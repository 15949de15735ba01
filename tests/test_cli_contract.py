"""The CLI exit-code contract, over corrupted documents and argument values.

Every run of every subcommand exits 0 (ok), 1 (check failed) or 2 (error)
with no exception escaping ``cli.run``, and an exit 2 reports the error
envelope: the JSON ``error`` object, or one ``error:`` line on stderr.
"""
import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from iimaid import cli, fixtures

GAMES = [
    "honesty_eval.maid.json",
    "capability_eval.maid.json",
    "evaluation_game.iimaid.json",
    "evaluation_game_depth3.stack.json",
]
PROFILES = [
    "truthful_match.profile.json",
    "always_low_match.profile.json",
    "always_low_deploy_low.profile.json",
    "evaluation_game_ne.profile.json",
]

# Each subcommand's options, with in-range and out-of-range values that
# argparse itself accepts, so that the command's own checks judge them.
VALUES = {
    "--tol": ["1e-6", "0", "-1", "nan", "inf"],
    "--cap": ["64", "1", "0", "-3"],
    "--depth": ["0", "2", "-1"],
    "--rollouts": ["20", "1", "0", "-1"],
    "--seed": ["0", "5", "-1"],
}
OPTIONS = {
    "validate": [],
    "info-sets": [],
    "eu": ["--profile"],
    "check-nash": ["--profile", "--tol", "--cap"],
    "solve-nash": ["--tol", "--cap"],
    "check-consistency": [],
    "solve-rbr": ["--tol"],
    "convert-efg": [],
    "verify-equivalence": ["--tol", "--cap"],
    "simulate": ["--profile", "--rollouts", "--seed"],
    "export-dot": ["--depth", "--efg"],
}
DECIMAL = re.compile(rb'"-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"')
REPLACEMENTS = [b'"1e400"', b'"-1e400"', b'"-0.5"', b'"1.5"', b'"nan"', b'"0"', b'"-1"']


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("data")
    fixtures.write_data_files(target)
    return target


def test_every_subcommand_is_covered():
    assert set(OPTIONS) == set(cli._COMMANDS)


def _containers(value, kind):
    """Every list (kind ``list``) or every (object, key) pair, in document order."""
    found = []

    def walk(v):
        if isinstance(v, list):
            if kind is list and v:
                found.append(v)
            for item in v:
                walk(item)
        elif isinstance(v, dict):
            for key in v:
                if kind is dict:
                    found.append((v, key))
                walk(v[key])

    walk(value)
    return found


def _corrupt(data, raw: bytes) -> bytes:
    """One corruption of a document's bytes, chosen by ``data``."""
    how = data.draw(st.sampled_from(
        ["none", "flip", "non-utf8", "number", "duplicate", "drop"]))
    if how == "flip":
        i = data.draw(st.integers(0, len(raw) - 1))
        return raw[:i] + bytes([data.draw(st.integers(0, 255))]) + raw[i + 1:]
    if how == "non-utf8":
        i = data.draw(st.integers(0, len(raw)))
        return raw[:i] + b"\xff\xfe" + raw[i:]
    if how == "number":
        spans = [m.span() for m in DECIMAL.finditer(raw)]
        if not spans:
            return raw
        start, end = data.draw(st.sampled_from(spans))
        return raw[:start] + data.draw(st.sampled_from(REPLACEMENTS)) + raw[end:]
    doc = json.loads(raw)
    if how == "duplicate":
        target = data.draw(st.sampled_from(_containers(doc, list)))
        target.append(json.loads(json.dumps(data.draw(st.sampled_from(target)))))
    elif how == "drop":
        obj, key = data.draw(st.sampled_from(_containers(doc, dict)))
        del obj[key]
    return json.dumps(doc).encode()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(OPTIONS)), st.data())
def test_exit_code_contract(data_dir, command, data):
    game = data_dir / data.draw(st.sampled_from(GAMES))
    argv = [command, str(game)]
    for option in OPTIONS[command]:
        if option == "--profile":
            argv += [option, str(data_dir / data.draw(st.sampled_from(PROFILES)))]
        elif option == "--efg":
            argv += [option] if data.draw(st.booleans()) else []
        elif data.draw(st.booleans()):
            argv += [option, data.draw(st.sampled_from(VALUES[option]))]
    victim = data.draw(st.sampled_from(
        [i for i, a in enumerate(argv) if a.endswith(".json")]))
    corrupt = data_dir / "corrupt.json"
    corrupt.write_bytes(_corrupt(data, (data_dir / argv[victim]).read_bytes()))
    argv[victim] = str(corrupt)
    mode = data.draw(st.sampled_from(["json", "text"]))

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([*argv, "--output", mode])

    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if mode == "json":
        report = json.loads(out.getvalue())
        assert report["command"] == command
        assert ("error" in report) == (code == 2)
        assert ("result" in report) == (code != 2)
        if code == 2:
            assert {"type", "message"} <= set(report["error"])
    elif code == 2:
        assert err.getvalue().startswith("error:")
        assert out.getvalue() == ""
