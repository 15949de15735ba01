"""The CLI exit-code contract on valid documents the benchmark generators
write, a maid, an ii-maid and a depth stack per seed, each with a profile
where the kind takes one.

Every subcommand that accepts a kind runs on each of its documents, text and
JSON: it exits 0 or 1, or 2 with the error envelope, no exception escapes
``cli.run``, and the JSON report is byte-identical across two runs.
"""
import contextlib
import io
import json
from random import Random

import pytest

from iimaid import cli, gamedoc, incomplete
from iimaid.gamedoc import IiProfile, MaidProfile
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


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """(kind, seed) -> (game path, profile path or None)."""
    target = tmp_path_factory.mktemp("generated")
    out = {}
    for seed in SEEDS:
        for kind, game, profile in _documents(seed):
            paths = []
            for suffix, doc in (("game", game), ("profile", profile)):
                if doc is None:
                    paths.append(None)
                    continue
                path = target / f"{kind}-{seed}.{suffix}.json"
                path.write_text(gamedoc.serialize_document(doc))
                paths.append(str(path))
            out[kind, seed] = tuple(paths)
    return out


def test_every_subcommand_is_covered():
    assert {c for commands in COMMANDS.values() for c, _ in commands} == set(cli._COMMANDS)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", sorted(COMMANDS))
def test_generated_documents_keep_the_exit_code_contract(written, kind, seed):
    game, profile = written[kind, seed]
    for command, takes_profile in COMMANDS[kind]:
        argv = [command, game, *(["--profile", profile] if takes_profile else []),
                *EXTRA.get(command, [])]
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
