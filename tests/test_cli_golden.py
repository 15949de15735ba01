"""Golden CLI output: the exit code and stdout of each subcommand on the
bundled documents, text and JSON, byte for byte; and the rendered document
spec, ``json.dumps(gamedoc.SCHEMAS, indent=2)`` in its key order, in
``tests/golden/schemas.json``.

Each invocation runs in a directory holding the bundled documents
(``fixtures.write_data_files``), named by bare file name, so the JSON
``arguments`` carry no temporary path.  The expected stdout is the file
``tests/golden/<name>.<output>``.  To rewrite them and the spec, run
``PYTHONPATH=src python -m tests.test_cli_golden`` from the repository root,
and name in CHANGES.md each byte that moved.
"""
import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from iimaid import cli, fixtures, gamedoc

GOLDEN = Path(__file__).parent / "golden"
HONESTY, CAPABILITY = "honesty_eval.maid.json", "capability_eval.maid.json"
GAME, STACK = "evaluation_game.iimaid.json", "evaluation_game_depth3.stack.json"
TRUTHFUL, LOW_MATCH = "truthful_match.profile.json", "always_low_match.profile.json"
NE = "evaluation_game_ne.profile.json"

# name -> (exit code, argv without ``--output``)
INVOCATIONS = {
    "validate": (0, ["validate", STACK]),
    "info-sets": (0, ["info-sets", GAME]),
    "check-consistency": (1, ["check-consistency", GAME]),
    "solve-rbr": (0, ["solve-rbr", STACK]),
    "verify-equivalence": (0, ["verify-equivalence", GAME]),
    "eu-maid": (0, ["eu", HONESTY, "--profile", TRUTHFUL]),
    "eu-ii": (0, ["eu", GAME, "--profile", NE]),
    "check-nash-maid": (1, ["check-nash", HONESTY, "--profile", LOW_MATCH]),
    "check-nash-ii": (0, ["check-nash", GAME, "--profile", NE]),
    "solve-nash-maid": (0, ["solve-nash", HONESTY]),
    "solve-nash-ii": (0, ["solve-nash", GAME]),
    "convert-efg-honesty": (0, ["convert-efg", HONESTY]),
    "convert-efg-capability": (0, ["convert-efg", CAPABILITY]),
    "simulate": (0, ["simulate", HONESTY, "--profile", TRUTHFUL,
                     "--rollouts", "2000", "--seed", "7"]),
    "export-dot-ii": (0, ["export-dot", GAME, "--depth", "2"]),
    "export-dot-stack": (0, ["export-dot", STACK]),
    "export-dot-efg": (0, ["export-dot", HONESTY, "--efg"]),
}
OUTPUTS = ("text", "json")


def _run(argv: list[str]) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, out.getvalue().encode()


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("golden")
    fixtures.write_data_files(target)
    return target


@pytest.mark.parametrize("output", OUTPUTS)
@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_cli_output_matches_its_golden_file(data_dir, monkeypatch, name, output):
    code, argv = INVOCATIONS[name]
    monkeypatch.chdir(data_dir)
    got = _run([*argv, "--output", output])
    assert got == (code, (GOLDEN / f"{name}.{output}").read_bytes())


def _schemas_text() -> str:
    # No sort_keys: the walk breaks ties between violations at one path in
    # schema key order, so the order is part of the spec.
    return json.dumps(gamedoc.SCHEMAS, indent=2) + "\n"


def test_the_document_spec_matches_its_golden_file():
    assert _schemas_text() == (GOLDEN / "schemas.json").read_text()


def _rewrite() -> None:
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "schemas.json").write_text(_schemas_text())
    with tempfile.TemporaryDirectory() as tmp:
        fixtures.write_data_files(tmp)
        here = os.getcwd()
        os.chdir(tmp)
        try:
            for name, (code, argv) in sorted(INVOCATIONS.items()):
                for output in OUTPUTS:
                    got, stdout = _run([*argv, "--output", output])
                    if got != code:
                        raise SystemExit(f"{name} --output {output}: exit {got}, want {code}")
                    (GOLDEN / f"{name}.{output}").write_bytes(stdout)
        finally:
            os.chdir(here)


if __name__ == "__main__":
    _rewrite()
