import json

import pytest

from iimaid import bn, cli, fixtures, gamedoc, incomplete, maid
from iimaid.bn import Cpd


@pytest.fixture
def data_dir(tmp_path):
    fixtures.write_data_files(tmp_path)
    return tmp_path


def run_json(capsys, *argv):
    code = cli.run([*argv, "--output", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def path_of(data_dir, name):
    return str(data_dir / name)


def test_validate_ok(capsys, data_dir):
    code, payload = run_json(capsys, "validate", path_of(data_dir, "honesty_eval.maid.json"))
    assert code == 0
    assert payload["format_version"] == 1
    assert payload["command"] == "validate"
    assert payload["result"]["kind"] == "maid"
    assert payload["result"]["valid"] is True
    assert "timings" in payload


def test_validate_malformed_exits_two(capsys, tmp_path, data_dir):
    bad = tmp_path / "bad.json"
    payload = json.loads(fixtures.data_text("evaluation_game.iimaid.json"))
    payload["models"][0]["beliefs"]["A"] = {"ai_belief": "0.9"}
    bad.write_text(json.dumps(payload))
    code, report = run_json(capsys, "validate", str(bad))
    assert code == 2
    err = report["error"]
    assert err["type"] == "SchemaViolation"
    assert err["path"] == "$.models[0].beliefs.A"
    assert "row sums to 0.9" in err["message"]


def test_non_utf8_document_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe" + fixtures.data_text("honesty_eval.maid.json").encode())
    code, report = run_json(capsys, "validate", str(bad))
    assert code == 2
    assert report["error"]["type"] == "SchemaViolation"
    assert report["error"]["path"] == "$"
    assert report["error"]["message"].startswith("not UTF-8 text")


def test_non_finite_profile_entry_exits_two(capsys, tmp_path, data_dir):
    profile = json.loads(fixtures.data_text("truthful_match.profile.json"))
    profile["rules"][0]["rows"][0]["row"] = {"high": "1e400", "low": "-1e400"}
    bad = tmp_path / "bad.profile.json"
    bad.write_text(json.dumps(profile))
    code, report = run_json(
        capsys, "eu", path_of(data_dir, "honesty_eval.maid.json"), "--profile", str(bad))
    assert code == 2
    assert report["error"] == {
        "type": "SchemaViolation", "path": "$.rules[0].rows[0].row.high",
        "message": "not a finite number: '1e400'"}


def test_text_error_without_a_path_is_one_spaced_line(capsys, data_dir):
    missing = path_of(data_dir, "nope.json")
    assert cli.run(["validate", missing]) == 2
    err = capsys.readouterr().err
    assert err == f"error: [Errno 2] No such file or directory: {missing!r}\n"


def test_text_error_with_a_path_names_it(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    payload = json.loads(fixtures.data_text("evaluation_game.iimaid.json"))
    payload["models"][0]["beliefs"]["A"] = {"ai_belief": "0.9"}
    bad.write_text(json.dumps(payload))
    assert cli.run(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == "error: $.models[0].beliefs.A row sums to 0.9, expected 1\n"


def test_missing_file_exits_two(capsys, data_dir):
    code, report = run_json(capsys, "validate", path_of(data_dir, "nope.json"))
    assert code == 2
    assert report["error"]["type"] == "FileNotFoundError"


def test_validate_depth_stack_reports_depths(capsys, data_dir):
    code, payload = run_json(
        capsys, "validate", path_of(data_dir, "evaluation_game_depth3.stack.json"))
    assert code == 0
    assert payload["result"]["kind"] == "depth-stack"
    assert payload["result"]["valid"] is True
    assert payload["result"]["depth"] == 3


def test_info_sets(capsys, data_dir):
    code, payload = run_json(
        capsys, "info-sets", path_of(data_dir, "evaluation_game.iimaid.json"))
    assert code == 0
    sets = payload["result"]["information_sets"]
    assert sets["A"]["count"] == 2
    assert sets["H"]["count"] == 6
    assert len(sets["H"]["sets"]) == 6
    assert sets["A"]["sets"][0]["observation"] == [["C", "high"]]


def test_eu(capsys, data_dir):
    code, payload = run_json(
        capsys, "eu", path_of(data_dir, "honesty_eval.maid.json"),
        "--profile", path_of(data_dir, "truthful_match.profile.json"))
    assert code == 0
    assert payload["result"]["expected_utilities"] == {"A": 1.0, "H": 1.0}


def test_eu_on_an_ii_maid_checks_each_row_once_and_evaluates_each_model_once(
        capsys, data_dir, monkeypatch):
    # Reading the two documents checks 62 rows: 30 as parsed, 28 as the two
    # diagrams are validated, and 4 belief rows.  The report then checks
    # each of the profile's 8 rows once more, and evaluates each of the two
    # models once, though H believes the objective one and its utilities are
    # reported too.
    checks, evaluated = [], []
    real_check, real_eval = bn.is_distribution, incomplete._profile_utilities
    monkeypatch.setattr(bn, "is_distribution",
                        lambda *args: checks.append(args) or real_check(*args))
    monkeypatch.setattr(incomplete, "_profile_utilities",
                        lambda *args: evaluated.append(args) or real_eval(*args))
    code, payload = run_json(
        capsys, "eu", path_of(data_dir, "evaluation_game.iimaid.json"),
        "--profile", path_of(data_dir, "evaluation_game_ne.profile.json"))
    assert code == 0
    assert len(checks) == 70
    assert len(evaluated) == 2


def test_check_nash_pass_and_fail(capsys, data_dir):
    code, payload = run_json(
        capsys, "check-nash", path_of(data_dir, "honesty_eval.maid.json"),
        "--profile", path_of(data_dir, "truthful_match.profile.json"))
    assert code == 0
    assert payload["result"]["is_nash"] is True

    code, payload = run_json(
        capsys, "check-nash", path_of(data_dir, "honesty_eval.maid.json"),
        "--profile", path_of(data_dir, "always_low_match.profile.json"))
    assert code == 1
    assert payload["result"]["is_nash"] is False
    assert payload["result"]["regrets"]["A"] == pytest.approx(0.2)


def test_check_nash_ii_profile(capsys, data_dir):
    code, payload = run_json(
        capsys, "check-nash", path_of(data_dir, "evaluation_game.iimaid.json"),
        "--profile", path_of(data_dir, "evaluation_game_ne.profile.json"))
    assert code == 0
    assert payload["result"]["is_nash"] is True
    assert payload["result"]["regrets"] == {"A": 0.0, "H": 0.0}


def test_solve_nash_roundtrips_through_check(capsys, data_dir, tmp_path):
    code, payload = run_json(
        capsys, "solve-nash", path_of(data_dir, "evaluation_game.iimaid.json"))
    assert code == 0
    profile_doc = payload["result"]["profile"]
    out = tmp_path / "sol.profile.json"
    out.write_text(json.dumps(profile_doc))
    code, check = run_json(
        capsys, "check-nash", path_of(data_dir, "evaluation_game.iimaid.json"),
        "--profile", str(out))
    assert code == 0
    assert check["result"]["is_nash"] is True


def test_solve_nash_counts_maid_equilibria(capsys, data_dir):
    code, payload = run_json(
        capsys, "solve-nash", path_of(data_dir, "honesty_eval.maid.json"))
    assert code == 0
    assert payload["result"]["count"] == 9


def test_check_consistency_flags_inconsistency(capsys, data_dir):
    code, payload = run_json(
        capsys, "check-consistency", path_of(data_dir, "evaluation_game.iimaid.json"))
    assert code == 1
    res = payload["result"]
    assert res["coherent"] is True
    assert res["coherence_violations"] == []
    assert res["eq_feasible"] is True
    assert res["strongly_consistent"] is False
    assert res["min_type_mass"] == 0.0
    assert res["sample_prior"] == {"ai_belief": 1.0, "ground_truth": 0.0}
    assert res["mass_bounds"]["ground_truth"] == [0.0, 0.0]


def test_solve_rbr(capsys, data_dir):
    code, payload = run_json(
        capsys, "solve-rbr", path_of(data_dir, "evaluation_game_depth3.stack.json"))
    assert code == 0
    res = payload["result"]
    assert res["depth"] == 3
    assert res["audit_mismatches"] == []
    assert res["objective_expected_utilities"] == {"A": 0.8, "H": 0.9}
    assert len(res["trace"]) == 8
    assert res["trace"][0]["node"] == "a_view"
    assert res["trace"][0]["action"] == "not_deploy"
    assert res["objective_rules"]["kind"] == "maid-profile"


def test_convert_efg(capsys, data_dir):
    code, payload = run_json(
        capsys, "convert-efg", path_of(data_dir, "capability_eval.maid.json"))
    assert code == 0
    res = payload["result"]
    assert res["nodes"] == 15
    assert res["leaves"] == 8
    assert res["info_set_sizes"]["H"] == {"D_H|high": 2, "D_H|low": 2}


def test_verify_equivalence(capsys, data_dir):
    code, payload = run_json(
        capsys, "verify-equivalence", path_of(data_dir, "evaluation_game.iimaid.json"))
    assert code == 0
    assert payload["result"]["equivalent"] is True
    assert payload["result"]["max_deviation"] == 0.0


def test_simulate_deterministic(capsys, data_dir):
    argv = ["simulate", path_of(data_dir, "honesty_eval.maid.json"),
            "--profile", path_of(data_dir, "always_low_match.profile.json"),
            "--rollouts", "2000", "--seed", "9", "--output", "json"]
    assert cli.run(argv) == 0
    first = capsys.readouterr().out
    assert cli.run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    means = payload["result"]["means"]
    assert abs(means["A"] - 0.8) < 0.1


def test_export_dot_maid_and_tree(capsys, data_dir):
    code = cli.run(["export-dot", path_of(data_dir, "honesty_eval.maid.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("style=dashed") == 3

    code = cli.run(["export-dot", path_of(data_dir, "evaluation_game.iimaid.json"),
                    "--depth", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("subgraph cluster") == 7

    code = cli.run(["export-dot", path_of(data_dir, "capability_eval.maid.json"),
                    "--efg"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("dir=none") == 2


def test_a_belief_tree_deeper_than_the_stack_renders(capsys, tmp_path):
    # Without H's rows the belief tree is a chain of clusters as long as
    # the requested depth, deeper than a recursive walk could reach.
    payload = json.loads(fixtures.data_text("evaluation_game.iimaid.json"))
    for model in payload["models"]:
        del model["beliefs"]["H"]
    deep = tmp_path / "deep.iimaid.json"
    deep.write_text(json.dumps(payload))
    code, report = run_json(capsys, "export-dot", str(deep), "--depth", "5000")
    assert code == 0
    assert report["result"]["dot"].count("subgraph cluster_") == 5001


def test_a_diagram_deeper_than_the_stack_is_solved(capsys, tmp_path):
    # 1,200 chance variables in a line, each copying the one before, and a
    # decision that observes the last: a sweep one call per variable deep
    # would exceed the recursion limit, though it has at most two leaves.
    names = [f"X{i:04d}" for i in range(1200)]
    copy = {("a",): {"a": 1.0, "b": 0.0}, ("b",): {"a": 0.0, "b": 1.0}}
    match = {(x, d): {"lo": float(x != d), "hi": float(x == d)} for x in "ab" for d in "ab"}
    m = maid.Maid.build(
        ("P",),
        [*(bn.chance(x, "ab") for x in names), bn.decision("D", "P", "ab"),
         bn.utility("U", "P", {"lo": 0.0, "hi": 1.0})],
        [*zip(names, names[1:]), (names[-1], "D"), (names[-1], "U"), ("D", "U")],
        [Cpd(names[0], (), {(): {"a": 0.0, "b": 1.0}}),
         *(Cpd(x, (p,), copy) for p, x in zip(names, names[1:])),
         Cpd("U", (names[-1], "D"), match)])
    game = tmp_path / "chain.maid.json"
    game.write_text(gamedoc.serialize_document(m))
    profile = tmp_path / "copy.profile.json"
    profile.write_text(json.dumps({"format_version": 1, "kind": "maid-profile", "rules": [
        {"decision": "D", "parents": [names[-1]], "rows": [
            {"context": [x], "row": {"a": str(int(x == "a")), "b": str(int(x == "b"))}}
            for x in "ab"]}]}))

    code, report = run_json(capsys, "eu", str(game), "--profile", str(profile))
    assert code == 0
    assert report["result"]["expected_utilities"] == {"P": 1.0}
    code, report = run_json(capsys, "check-nash", str(game), "--profile", str(profile))
    assert code == 0
    assert report["result"]["is_nash"] is True and report["result"]["regrets"] == {"P": 0.0}
    code, _ = run_json(capsys, "convert-efg", str(game))
    assert code == 0


def test_json_reports_are_byte_identical(capsys, data_dir):
    argv = ["check-consistency", path_of(data_dir, "evaluation_game.iimaid.json"),
            "--output", "json"]
    cli.run(argv)
    first = capsys.readouterr().out
    cli.run(argv)
    second = capsys.readouterr().out
    assert first == second


def test_envelope_lists_arguments(capsys, data_dir):
    _, payload = run_json(
        capsys, "eu", path_of(data_dir, "honesty_eval.maid.json"),
        "--profile", path_of(data_dir, "truthful_match.profile.json"))
    args = payload["arguments"]
    assert "file" in args and "profile" in args
    assert "output" not in args
    assert list(args) == sorted(args)


def test_text_mode_prints_readable_lines(capsys, data_dir):
    code = cli.run(["eu", path_of(data_dir, "honesty_eval.maid.json"),
                    "--profile", path_of(data_dir, "truthful_match.profile.json")])
    captured = capsys.readouterr()
    assert code == 0
    assert "expected_utilities" in captured.out or "A" in captured.out
    # wall-clock note goes to stderr, never stdout
    assert "seconds" not in captured.out


def test_profile_mismatch_is_an_error(capsys, data_dir):
    code, payload = run_json(
        capsys, "check-nash", path_of(data_dir, "capability_eval.maid.json"),
        "--profile", path_of(data_dir, "truthful_match.profile.json"))
    assert code == 2
    assert payload["error"]["type"] in ("MissingRule", "ValidationError")


@pytest.mark.parametrize("command, extra", [
    ("simulate", ["--rollouts", "0"]),
    ("simulate", ["--rollouts", "-5"]),
    ("solve-nash", ["--tol", "nan"]),
    ("check-nash", ["--tol", "inf"]),
    ("check-nash", ["--tol", "-0.5"]),
])
def test_invalid_numeric_arguments_exit_two(capsys, data_dir, command, extra):
    argv = [command, path_of(data_dir, "honesty_eval.maid.json")]
    if command != "solve-nash":
        argv += ["--profile", path_of(data_dir, "truthful_match.profile.json")]
    code, payload = run_json(capsys, *argv, *extra)
    assert code == 2
    assert payload["command"] == command
    assert payload["error"]["type"] == "ValidationError"
    assert "result" not in payload


@pytest.mark.parametrize("argv", [
    ["solve-nash", "honesty_eval.maid.json", "--cap", "0"],
    ["export-dot", "evaluation_game_depth3.stack.json", "--depth", "-1"],
])
def test_out_of_range_cap_and_depth_exit_two(capsys, data_dir, argv):
    code, payload = run_json(capsys, argv[0], path_of(data_dir, argv[1]), *argv[2:])
    assert code == 2
    assert payload["command"] == argv[0]
    assert payload["error"]["type"] == "ValidationError"
    assert argv[2] in payload["error"]["message"]


def test_single_rollout_reports_null_stderr(capsys, data_dir):
    code, payload = run_json(
        capsys, "simulate", path_of(data_dir, "honesty_eval.maid.json"),
        "--profile", path_of(data_dir, "always_low_match.profile.json"), "--rollouts", "1")
    assert code == 0
    assert payload["result"]["stderrs"] == {"A": None, "H": None}
