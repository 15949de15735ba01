import json
from pathlib import Path

import pytest

from iimaid import fixtures, gamedoc
from iimaid.errors import SchemaViolation
from iimaid.gamedoc import GameDocument, IiProfile, MaidProfile

BUNDLED_KINDS = {
    "honesty_eval.maid.json": "maid",
    "capability_eval.maid.json": "maid",
    "evaluation_game.iimaid.json": "ii-maid",
    "evaluation_game_depth3.stack.json": "depth-stack",
    "truthful_match.profile.json": "maid-profile",
    "always_low_match.profile.json": "maid-profile",
    "always_low_deploy_low.profile.json": "maid-profile",
    "evaluation_game_ne.profile.json": "ii-profile",
}


@pytest.mark.parametrize("name", sorted(BUNDLED_KINDS))
def test_bundled_documents_round_trip_byte_for_byte(name):
    text = fixtures.data_text(name)
    doc = gamedoc.parse_document(text)
    assert doc.kind == BUNDLED_KINDS[name]
    assert gamedoc.serialize_document(doc.value) == text


def test_write_data_files_copies_the_bundled_documents(tmp_path):
    data = Path(fixtures.__file__).parent / "data"
    written = fixtures.write_data_files(tmp_path)
    assert [p.name for p in written] == sorted(BUNDLED_KINDS)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(BUNDLED_KINDS)
    for path in written:
        assert path.read_bytes() == (data / path.name).read_bytes()


@pytest.mark.parametrize("accessor", [
    fixtures.honesty_evaluation, fixtures.capability_evaluation,
    fixtures.evaluation_iimaid, fixtures.evaluation_depth3_stack,
    fixtures.ne_ii_profile, fixtures.truthful_match_rules,
    fixtures.always_low_match_rules, fixtures.always_low_deploy_low_rules,
])
def test_accessors_parse_a_fresh_copy_each_call(accessor):
    first, second = accessor(), accessor()
    assert first == second
    assert first is not second


def test_serialized_form_is_canonical():
    text = fixtures.data_text("honesty_eval.maid.json")
    assert text.endswith("\n")
    payload = json.loads(text)
    assert list(payload) == sorted(payload)
    assert payload["format_version"] == 1
    # probabilities travel as decimal strings
    assert payload["cpds"][0]["rows"][0]["row"]["high"] == "0.1"


def test_parsed_objects_have_expected_types():
    assert isinstance(gamedoc.parse_document(
        fixtures.data_text("truthful_match.profile.json")).value, MaidProfile)
    assert isinstance(gamedoc.parse_document(
        fixtures.data_text("evaluation_game_ne.profile.json")).value, IiProfile)
    doc = gamedoc.parse_document(fixtures.data_text("evaluation_game.iimaid.json"))
    assert isinstance(doc, GameDocument)
    assert sorted(doc.value.models) == ["ai_belief", "ground_truth"]


def reparse(payload):
    return gamedoc.parse_document(json.dumps(payload))


def mutated(name):
    return json.loads(fixtures.data_text(name))


def test_malformed_json():
    with pytest.raises(SchemaViolation) as e:
        gamedoc.parse_document("{nope")
    assert e.value.path == "$"
    assert e.value.message.startswith("invalid JSON")


def test_unknown_kind():
    payload = mutated("honesty_eval.maid.json")
    payload["kind"] = "mystery"
    with pytest.raises(SchemaViolation) as e:
        reparse(payload)
    assert e.value.path == "$.kind"
    assert e.value.message == "unknown kind 'mystery'"


def test_a_kind_that_is_not_a_string_is_unknown():
    with pytest.raises(SchemaViolation) as e:
        gamedoc.parse_document('{"kind": ["maid"]}')
    assert (e.value.path, e.value.message) == ("$.kind", "unknown kind ['maid']")


def test_unknown_field_rejected():
    payload = mutated("evaluation_game.iimaid.json")
    payload["extra"] = 1
    with pytest.raises(SchemaViolation) as e:
        reparse(payload)
    assert e.value.path == "$"
    assert "extra" in e.value.message


def test_belief_row_sum_violation_names_the_row():
    payload = mutated("evaluation_game.iimaid.json")
    payload["models"][0]["beliefs"]["A"] = {"ai_belief": "0.9"}
    with pytest.raises(SchemaViolation) as e:
        reparse(payload)
    assert e.value.path == "$.models[0].beliefs.A"
    assert e.value.message == "row sums to 0.9, expected 1"


def test_cpd_row_sum_violation():
    payload = mutated("honesty_eval.maid.json")
    payload["cpds"][0]["rows"][0]["row"]["high"] = "0.7"
    with pytest.raises(SchemaViolation) as e:
        reparse(payload)
    assert e.value.path == "$.cpds[0].rows[0].row"
    assert e.value.message == "row sums to 1.6, expected 1"


def test_decision_rule_must_not_live_in_cpds():
    payload = mutated("honesty_eval.maid.json")
    payload["cpds"].append({"child": "D_A", "rows": [
        {"context": ["high"], "row": {"high": "1", "low": "0"}},
        {"context": ["low"], "row": {"high": "0", "low": "1"}}]})
    with pytest.raises(SchemaViolation) as e:
        reparse(payload)
    assert e.value.path == "$.cpds[3]"
    assert e.value.message == "decision D_A must use xi, not cpds"


def test_xi_must_name_a_decision():
    payload = mutated("evaluation_game_depth3.stack.json")
    node = next(n for n in payload["nodes"] if "xi" in n)
    node["xi"].append({"child": "C", "rows": [
        {"context": [], "row": {"high": "1", "low": "0"}}]})
    with pytest.raises(SchemaViolation) as e:
        reparse(payload)
    assert e.value.path.endswith("xi[1].child")
    assert e.value.message == "C is not a decision"


def test_context_length_checked_against_parents():
    payload = mutated("honesty_eval.maid.json")
    payload["cpds"][0]["rows"][0]["context"] = ["high", "low"]
    with pytest.raises(SchemaViolation) as e:
        reparse(payload)
    assert e.value.path == "$.cpds[0].rows[0].context"
    assert e.value.message == "expected 0 values for parents []"


def test_profile_observation_order_is_normalized():
    payload = mutated("evaluation_game_ne.profile.json")
    for rule in payload["rules"]:
        rule["observation"] = list(reversed(rule["observation"]))
    profile = reparse(payload).value
    for iset in profile.rules:
        assert iset.observation == tuple(sorted(iset.observation))


def test_parse_rejects_non_object():
    with pytest.raises(SchemaViolation):
        gamedoc.parse_document("[1, 2]")


def _repeat(items, i=0):
    items.append(json.loads(json.dumps(items[i])))


# (document, mutation repeating one entry, path of the repeat)
DUPLICATES = [
    ("honesty_eval.maid.json", lambda d: _repeat(d["variables"]), "$.variables[5].name"),
    ("honesty_eval.maid.json", lambda d: _repeat(d["cpds"], 1), "$.cpds[3].child"),
    ("honesty_eval.maid.json", lambda d: _repeat(d["cpds"][0]["rows"]),
     "$.cpds[0].rows[1].context"),
    ("evaluation_game.iimaid.json", lambda d: _repeat(d["models"]), "$.models[2].id"),
    ("evaluation_game_depth3.stack.json", lambda d: _repeat(d["nodes"], 3), "$.nodes[4].id"),
    ("evaluation_game_depth3.stack.json", lambda d: _repeat(d["nodes"][1]["xi"]),
     "$.nodes[1].xi[1].child"),
    ("truthful_match.profile.json", lambda d: _repeat(d["rules"]), "$.rules[2].decision"),
    ("evaluation_game_ne.profile.json", lambda d: _repeat(d["rules"], 5), "$.rules[8]"),
]


@pytest.mark.parametrize("name, mutate, path", DUPLICATES)
def test_duplicates_are_rejected_where_they_repeat(name, mutate, path):
    payload = mutated(name)
    mutate(payload)
    with pytest.raises(SchemaViolation) as e:
        reparse(payload)
    assert e.value.path == path
    assert e.value.message.startswith("duplicate ")


def test_repeated_json_key_is_rejected():
    text = fixtures.data_text("honesty_eval.maid.json")
    with pytest.raises(SchemaViolation) as e:
        gamedoc.parse_document(text.replace('"kind": "maid"', '"kind": "maid", "kind": "maid"'))
    assert (e.value.path, e.value.message) == ("$", "duplicate key 'kind'")


@pytest.mark.parametrize("name, mutate, path", [
    ("honesty_eval.maid.json",
     lambda d: d["variables"][0].update(domain=["high", "high", "low"]), "$.variables[0]"),
    # a repeated edge into a decision used to be merged silently
    ("honesty_eval.maid.json", lambda d: _repeat(d["edges"]), "$.edges"),
    ("honesty_eval.maid.json", lambda d: _repeat(d["agents"]), "$.agents"),
    ("truthful_match.profile.json", lambda d: _repeat(d["rules"][1]["parents"]),
     "$.rules[1].parents"),
    ("evaluation_game_ne.profile.json", lambda d: _repeat(d["rules"][0]["observation"]),
     "$.rules[0].observation"),
])
def test_repeated_list_items_fail_the_schema(name, mutate, path):
    payload = mutated(name)
    mutate(payload)
    with pytest.raises(SchemaViolation) as e:
        reparse(payload)
    assert e.value.path == path


def test_non_finite_utility_value_is_rejected():
    payload = mutated("honesty_eval.maid.json")
    payload["variables"][3]["values"]["1"] = "1e400"
    with pytest.raises(SchemaViolation) as e:
        reparse(payload)
    assert e.value.path == "$.variables[3].values.1"
    assert e.value.message == "not a finite number: '1e400'"
