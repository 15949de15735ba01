"""The one row contract (``bn.is_distribution``) at every entry point.

Each bad row below is rejected wherever a row enters the package, with the
issue code that entry point has always used, and a public ``maid`` function
checks each rule it is given once.
"""
import json
import math

import pytest

from iimaid import bn, fixtures, gamedoc, iiefg, incomplete, maid
from iimaid.bn import Cpd
from iimaid.errors import SchemaViolation, ValidationError
from iimaid.fixtures import (
    AI, AI_VIEW, CAPABILITY, DEPLOY, GROUND_TRUTH, HIGH, HUMAN, LOW, REPORT,
    always_low_deploy_low_rules, truthful_match_rules,
)
from iimaid.incomplete import IiMaid, InformationSet, SubjectiveMaid

# Each bad row over two labels, as it would replace a valid row.
BAD_ROWS = {
    "nan": lambda x, y: {x: math.nan, y: 0.5},
    "inf": lambda x, y: {x: math.inf, y: 0.5},
    "negative": lambda x, y: {x: -0.5, y: 1.5},
    "above-one": lambda x, y: {x: 1.5, y: -0.5},
    "sum-off-by-1e-6": lambda x, y: {x: 0.5, y: 0.5 + 1e-6},
    "missing-label": lambda x, y: {x: 0.5},
}
bad_rows = pytest.mark.parametrize("bad", sorted(BAD_ROWS))


def test_predicate():
    assert bn.is_distribution({"a": 0.25, "b": 0.75}, ("a", "b"))
    assert bn.is_distribution({"a": 1.0 + 1e-10, "b": -1e-10})
    assert not bn.is_distribution({"a": 1.0}, ("a", "b"))
    for make in BAD_ROWS.values():
        assert not bn.is_distribution(make("a", "b"), ("a", "b"))
    assert bn.bad_entry({"a": 0.5, "b": math.nan}) == "b"
    assert bn.bad_entry({"a": 0.5, "b": 0.6}) is None


def _report_rule(bad):
    return Cpd(REPORT, (CAPABILITY,), {
        (HIGH,): BAD_ROWS[bad](HIGH, LOW),
        (LOW,): bn.point_row((HIGH, LOW), LOW),
    })


def _issues(call):
    with pytest.raises(ValidationError) as e:
        call()
    return e.value.issues


@bad_rows
def test_chance_row_in_maid_build(bad):
    m = fixtures.honesty_evaluation()
    edges = [(p, c) for c in m.parents for p in m.parents[c]]
    cpds = {**m.cpds, CAPABILITY: Cpd(CAPABILITY, (), {(): BAD_ROWS[bad](HIGH, LOW)})}
    issues = _issues(lambda: maid.Maid.build(m.agents, m.variables.values(), edges,
                                             cpds.values()))
    code = "row-domain-mismatch" if bad == "missing-label" else "row-not-normalized"
    assert len(issues) == 1 and issues[0].startswith(f"{code}: C()")


@bad_rows
def test_committed_rule(bad, capability):
    assert _issues(lambda: maid.PostPolicyMaid(capability, {REPORT: _report_rule(bad)})) == [
        "rule-row-invalid: D_A('high',)"]


@bad_rows
def test_rule_in_maid_public_calls(bad, honesty):
    rules = {**truthful_match_rules(), REPORT: _report_rule(bad)}
    want = ["rule-row-invalid: D_A('high',)"]
    assert _issues(lambda: maid.expected_utilities(honesty, rules)) == want
    assert _issues(lambda: maid.is_nash(honesty, rules)) == want
    assert _issues(lambda: maid.best_response(honesty, {REPORT: rules[REPORT]}, HUMAN)) == want
    assert _issues(lambda: maid.decision_values(honesty, rules, DEPLOY, HUMAN)) == want


@bad_rows
def test_belief_row_in_ii_maid(bad, example1):
    gt = example1.models[GROUND_TRUTH]
    beliefs = {**gt.beliefs, AI: BAD_ROWS[bad](AI_VIEW, GROUND_TRUTH)}
    models = {**example1.models,
              GROUND_TRUTH: SubjectiveMaid(GROUND_TRUTH, gt.model, beliefs)}
    issues = _issues(lambda: IiMaid(example1.agents, example1.objective, models))
    assert issues == ["belief-row-not-normalized: ground_truth.A"]


@bad_rows
def test_profile_row_in_ii_policy(bad, example1, ne_profile):
    iset = InformationSet(AI, ((CAPABILITY, HIGH),), (HIGH, LOW))
    profile = {**ne_profile, iset: BAD_ROWS[bad](HIGH, LOW)}
    want = [f"row-not-normalized: {iset}"]
    assert incomplete.validate_ii_policy(example1, profile) == want
    assert _issues(lambda: incomplete.is_nash_ii(example1, profile)) == want


@bad_rows
def test_belief_row_in_belief_space(bad, example1):
    sp = iiefg.maid2efgII(example1).game.space
    beliefs = {agent: dict(by_state) for agent, by_state in sp.beliefs.items()}
    beliefs[AI][GROUND_TRUTH] = BAD_ROWS[bad](AI_VIEW, GROUND_TRUTH)
    bad_space = iiefg.BeliefSpace(sp.states, dict(sp.games), beliefs)
    assert "belief-row-not-normalized: A@ground_truth" in iiefg.validate_belief_space(bad_space)


def _decimal(p: float) -> str:
    # a decimal string that parses to ``p``; NaN has none, so it fails the schema
    return "1e400" if p == math.inf else repr(p)


# (document, the object holding the row, its key, the row's two labels, path)
DOCUMENT_ROWS = [
    ("honesty_eval.maid.json", lambda d: d["cpds"][0]["rows"][0], "row", (HIGH, LOW),
     "$.cpds[0].rows[0].row"),
    ("evaluation_game.iimaid.json", lambda d: d["models"][0]["beliefs"], AI,
     (AI_VIEW, GROUND_TRUTH), "$.models[0].beliefs.A"),
    ("truthful_match.profile.json", lambda d: d["rules"][0]["rows"][0], "row", (HIGH, LOW),
     "$.rules[0].rows[0].row"),
    ("evaluation_game_ne.profile.json", lambda d: d["rules"][0], "row", (HIGH, LOW),
     "$.rules[0].row"),
]


@bad_rows
@pytest.mark.parametrize("name, holder, key, labels, path", DOCUMENT_ROWS)
def test_row_in_document(bad, name, holder, key, labels, path):
    payload = json.loads(fixtures.data_text(name))
    holder(payload)[key] = {k: _decimal(p) for k, p in BAD_ROWS[bad](*labels).items()}
    with pytest.raises(SchemaViolation) as e:
        gamedoc.parse_document(json.dumps(payload))
    assert e.value.path.startswith(path)


def test_bad_entries_are_named_in_document_messages():
    payload = json.loads(fixtures.data_text("truthful_match.profile.json"))
    rows = payload["rules"][0]["rows"]
    for row, path, message in [
        ({"high": "1e400", "low": "0"}, "$.rules[0].rows[0].row.high",
         "not a finite number: '1e400'"),
        ({"high": "1e400", "low": "-1e400"}, "$.rules[0].rows[0].row.high",
         "not a finite number: '1e400'"),
        ({"high": "-0.5", "low": "1.5"}, "$.rules[0].rows[0].row.high",
         "-0.5 is not a probability"),
        ({"high": "0.5", "low": "0.25"}, "$.rules[0].rows[0].row",
         "row sums to 0.75, expected 1"),
    ]:
        rows[0]["row"] = row
        with pytest.raises(SchemaViolation) as e:
            gamedoc.parse_document(json.dumps(payload))
        assert (e.value.path, e.value.message) == (path, message)


def _counting_check(monkeypatch):
    calls = []
    real = maid._check_rule

    def counted(m, name, rule):
        calls.append(name)
        return real(m, name, rule)

    monkeypatch.setattr(maid, "_check_rule", counted)
    return calls


def test_public_calls_check_each_supplied_rule_once(monkeypatch, honesty, capability):
    committed = maid.PostPolicyMaid(capability, {REPORT: always_low_deploy_low_rules()[REPORT]})
    calls = _counting_check(monkeypatch)
    rules = truthful_match_rules()
    maid.is_nash(honesty, rules)
    assert sorted(calls) == [REPORT, DEPLOY]
    calls.clear()
    maid.best_response(honesty, {REPORT: rules[REPORT]}, HUMAN)
    assert calls == [REPORT]
    calls.clear()
    maid.find_pure_nash(honesty)
    assert calls == []
    # a model's committed rules were checked when it was made
    maid.is_nash(committed, {DEPLOY: always_low_deploy_low_rules()[DEPLOY]})
    maid.find_pure_nash(committed)
    assert calls == [DEPLOY]
