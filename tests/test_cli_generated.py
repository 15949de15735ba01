"""The CLI exit-code contract on valid documents the benchmark generators
write, a maid, an ii-maid and a depth stack per seed, each with a profile
where the kind takes one, and on edge shapes built here: an ii-maid with one
model, one whose beliefs are all empty and one whose second model commits a
decision (``xi``), a maid where one agent owns no decision and another no
utility, a maid with a zero chance entry, and depth stacks of depth 0 and 1.

Every subcommand that accepts a kind runs on each of its generated
documents, and every subcommand on each edge shape, text and JSON: it exits
0 or 1, or 2 with the error envelope, no exception escapes ``cli.run``, and
the JSON report is byte-identical across two runs.  Each document reads back
to the text it was written as, one invocation per subcommand gives the same
JSON bytes under ``PYTHONHASHSEED`` 0 and 1, and on the edge maids ``eu`` and
``check-nash`` report what ``maid.expected_utilities`` and ``maid.is_nash``
return.
"""
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from iimaid import bn, cli, fixtures, gamedoc, incomplete, maid
from iimaid.depth import DepthStack
from iimaid.fixtures import AI, HUMAN, LOW, REPORT
from iimaid.gamedoc import IiProfile, MaidProfile
from iimaid.incomplete import IiMaid, SubjectiveMaid
from perfbench import generators

SEEDS = (0, 1)
# kind -> the subcommands that accept it, each with whether it takes a profile
COMMANDS = {
    "maid": [("validate", False), ("info-sets", False), ("eu", True),
             ("check-nash", True), ("solve-nash", False), ("convert-efg", False),
             ("simulate", True), ("export-dot", False)],
    "ii-maid": [("validate", False), ("info-sets", False), ("eu", True),
                ("check-nash", True), ("solve-nash", False),
                ("check-consistency", False), ("verify-equivalence", False),
                ("simulate", True), ("export-dot", False)],
    "depth-stack": [("validate", False), ("solve-rbr", False), ("export-dot", False)],
}
EXTRA = {"simulate": ["--rollouts", "200", "--seed", "3"]}


def _documents(seed: int):
    """(kind, game, profile or None) for each generated document of a seed."""
    rng = Random(seed)
    m = generators.random_base_game(rng, 4, 1, 1)
    yield "maid", m, MaidProfile(generators.random_pure_profile(m, rng))
    x = generators.random_ii_game(Random(seed), 3, 3, 1, 1, 1)
    yield "ii-maid", x, IiProfile(next(incomplete.iter_pure_ii_profiles(x)))
    yield "depth-stack", generators.random_depth3_stack(Random(seed), 6, 2), None


def _one_observed_decision(agents, owner: str, payee: str, prior) -> maid.Maid:
    """``owner`` picks D seeing X, and ``payee`` gets 1 when D matches X."""
    variables = [bn.chance("X", ("a", "b")), bn.decision("D", owner, ("l", "r")),
                 bn.utility("U", payee, {"z": 0.0, "o": 1.0})]
    cpds = [bn.Cpd("X", (), {(): prior}),
            bn.tabulate("U", ("o", "z"), {"D": ("l", "r"), "X": ("a", "b")},
                        lambda c: "o" if (c["D"] == "l") == (c["X"] == "a") else "z")]
    return maid.Maid.build(agents, variables, [("X", "D"), ("X", "U"), ("D", "U")], cpds)


def _edge_documents():
    """(name, game, profile or None) for each edge shape."""
    h = fixtures.honesty_evaluation()
    low = maid.PostPolicyMaid(h, {REPORT: maid.decision_rule(h, REPORT, lambda ctx: LOW)})
    for name, m in (
        ("split-owners", _one_observed_decision(("P", "Q"), "P", "Q", {"a": 0.5, "b": 0.5})),
        ("zero-chance", _one_observed_decision(("P",), "P", "P", {"a": 1.0, "b": 0.0})),
    ):
        yield name, m, MaidProfile(next(maid.iter_pure_rules(m, m.decisions())))
    for name, x in (
        ("one-model", IiMaid(h.agents, "m", {
            "m": SubjectiveMaid("m", h, {AI: {"m": 1.0}, HUMAN: {"m": 1.0}})})),
        ("empty-beliefs", IiMaid(h.agents, "m", {"m": SubjectiveMaid("m", h, {})})),
        ("committed-model", IiMaid(h.agents, "truth", {
            "truth": SubjectiveMaid("truth", h, {AI: {"truth": 1.0}, HUMAN: {"low": 1.0}}),
            "low": SubjectiveMaid("low", low, {HUMAN: {"low": 1.0}})})),
    ):
        yield name, x, IiProfile(next(incomplete.iter_pure_ii_profiles(x)))
    yield "depth-0", DepthStack(h.agents, "solo", {"solo": SubjectiveMaid("solo", low, {})}), None
    yield "depth-1", DepthStack(h.agents, "top", {
        "top": SubjectiveMaid("top", low, {HUMAN: {"solo": 1.0}}),
        "solo": SubjectiveMaid("solo", low, {})}), None


def _write(target: Path, stem: str, game, profile) -> tuple[str, str | None]:
    """Write a game and its profile, if any, as ``<stem>.<game|profile>.json``."""
    paths = []
    for suffix, doc in (("game", game), ("profile", profile)):
        if doc is None:
            paths.append(None)
            continue
        path = target / f"{stem}.{suffix}.json"
        path.write_text(gamedoc.serialize_document(doc))
        paths.append(str(path))
    return tuple(paths)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """(kind, seed) -> (game path, profile path or None)."""
    target = tmp_path_factory.mktemp("generated")
    return {(kind, seed): _write(target, f"{kind}-{seed}", game, profile)
            for seed in SEEDS for kind, game, profile in _documents(seed)}


@pytest.fixture(scope="module")
def edges(tmp_path_factory):
    """edge shape name -> (game path, profile path or None)."""
    target = tmp_path_factory.mktemp("edges")
    return {name: _write(target, name, game, profile)
            for name, game, profile in _edge_documents()}


def test_every_subcommand_is_covered():
    assert {c for commands in COMMANDS.values() for c, _ in commands} == set(cli._COMMANDS)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _keeps_the_exit_code_contract(argv) -> None:
    code, out, _ = _run([*argv, "--output", "json"])
    report = json.loads(out)
    assert code in (0, 1, 2), argv
    assert ("error" in report) == (code == 2), (argv, report)
    if code == 2:
        assert {"type", "message"} <= set(report["error"]), argv
    assert _run([*argv, "--output", "json"])[:2] == (code, out), argv

    code, out, err = _run([*argv, "--output", "text"])
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error:") and out == "", argv


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", sorted(COMMANDS))
def test_generated_documents_keep_the_exit_code_contract(written, kind, seed):
    game, profile = written[kind, seed]
    for command, takes_profile in COMMANDS[kind]:
        _keeps_the_exit_code_contract([
            command, game, *(["--profile", profile] if takes_profile else []),
            *EXTRA.get(command, [])])


TAKES_PROFILE = {c for commands in COMMANDS.values() for c, takes in commands if takes}
EDGE_NAMES = [name for name, _, _ in _edge_documents()]


@pytest.mark.parametrize("name", EDGE_NAMES)
def test_edge_shapes_keep_the_exit_code_contract_under_every_subcommand(edges, name):
    game, profile = edges[name]
    for command in sorted(cli._COMMANDS):
        # a stack takes no profile, so its own path stands in for one: the
        # subcommands that want a profile reject the stack's kind first
        _keeps_the_exit_code_contract([
            command, game,
            *(["--profile", profile or game] if command in TAKES_PROFILE else []),
            *EXTRA.get(command, [])])


@pytest.mark.parametrize("name", ["split-owners", "zero-chance"])
def test_edge_maids_report_what_the_library_returns(edges, name):
    game, profile = edges[name]
    m = gamedoc.parse_document(Path(game).read_text()).value
    rules = gamedoc.parse_document(Path(profile).read_text()).value.rules

    def result(command):
        code, out, _ = _run([command, game, "--profile", profile, "--output", "json"])
        return code, json.loads(out)["result"]

    assert result("eu") == (0, {"expected_utilities": maid.expected_utilities(m, rules)})
    ok, regrets = maid.is_nash(m, rules, tol=1e-6)
    assert result("check-nash") == (0 if ok else 1, {"is_nash": ok, "regrets": regrets,
                                                      "tol": 1e-6})


def test_generated_documents_read_back_to_their_text(written, edges):
    for paths in [*written.values(), *edges.values()]:
        for path in filter(None, paths):
            text = Path(path).read_text()
            assert gamedoc.serialize_document(gamedoc.parse_document(text).value) == text, path


# Runs each argv in JSON mode and prints the [exit code, stdout] pairs.
_RUN_ALL = """
import contextlib, io, json, sys
from iimaid import cli
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run([*argv, "--output", "json"])
    out.append([code, buf.getvalue()])
print(json.dumps(out))
"""


def test_json_output_does_not_depend_on_the_hash_seed(written):
    # one invocation per subcommand, on the first kind that accepts it
    invocations = {}
    for kind in sorted(COMMANDS):
        game, profile = written[kind, SEEDS[0]]
        for command, takes_profile in COMMANDS[kind]:
            invocations.setdefault(command, [
                command, game, *(["--profile", profile] if takes_profile else []),
                *EXTRA.get(command, [])])
    assert set(invocations) == set(cli._COMMANDS)
    argvs = json.dumps(sorted(invocations.values()))
    outputs = []
    for hash_seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", _RUN_ALL, argvs], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert len(outputs[0]) == len(invocations)
    assert all(code in (0, 1) for code, _ in outputs[0]), outputs[0]
    assert outputs[0] == outputs[1]
