"""The benchmark's workloads: seeded inputs, queries and answer checks.

BENCHMARK.json gates maid-complete and ii-games.  depth-stacks and
cli-oneshot run the same way by hand (``--workload depth-stacks``) and are
not gated; see NOTES.md for why.  The traced run of ii-games also sends
every CLI subcommand in-process, so that the cli, simulate and depth layers
are traced in a gated workload.

A query is one public solver call.  Each workload builds a fixed list of
queries from its seed; the runner sends them one at a time in a closed loop
(one client), wrapping around when it reaches the end.  A pass takes about
a second, so a run repeats each query dozens of times and reports its fastest
repeat; each maid-complete game is still queried by one query only.

Every query carries a check that runs after the timed region and returns
the problems it found.  Checks compare against independent oracles
(``oracles``), against verdicts known by construction, or against the
library's own retained audit.
"""

from __future__ import annotations

import io
import json
import os
import random
import re
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from itertools import zip_longest
from pathlib import Path
from typing import Any, Callable

from iimaid import bn, cli, depth, fixtures, gamedoc, iiefg, incomplete, maid
from iimaid.gamedoc import IiProfile, MaidProfile
from iimaid.incomplete import InformationSet

from perfbench import generators as gen
from perfbench import oracles

EXACT = 1e-9  # agreement required between the library and an oracle
NASH_TOL = 1e-6  # is_nash_ii's default tolerance


@dataclass
class Query:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], list[str]]


@dataclass
class Workload:
    queries: list[Query]
    # one query of each kind, on inputs outside ``queries``, called once in set-up
    warmup: list[Query]
    # the inputs' text, which a traced run parses again to trace gamedoc
    documents: list[str]
    # builds the queries the traced run sends, when they differ from ``queries``
    traced: Callable[[], list[Query]] | None = None
    # ru_maxrss (KiB) of each child process, for workloads that start them
    child_rss_kib: list[int] | None = None
    # per-layer metrics a traced run adds from outside the traced process
    layer_metrics: Callable[[], dict] | None = None
    # scratch directories to remove when the run ends
    scratch: list[tempfile.TemporaryDirectory] = field(default_factory=list)

    def cleanup(self) -> None:
        for tmp in self.scratch:
            tmp.cleanup()


def round_trip(value: Any, documents: list[str]) -> Any:
    """Serialize an input and hand the program only what parsing gives back."""
    text = gamedoc.serialize_document(value)
    documents.append(text)
    return gamedoc.parse_document(text).value


def _close(got: dict, want: dict, what: str) -> list[str]:
    if set(got) != set(want):
        return [f"{what}: agents {sorted(got)} vs oracle {sorted(want)}"]
    return [
        f"{what}[{a}] = {got[a]!r}, oracle {want[a]!r}"
        for a in sorted(want)
        if abs(got[a] - want[a]) > EXACT
    ]


def _first_of_each_kind(block: list[tuple]) -> list[tuple]:
    """The first entry of each query kind in a block, to build warm-up inputs."""
    seen: dict = {}
    for entry in block:
        seen.setdefault(entry[0], entry)
    return list(seen.values())


# ------------------------------------------------------------- maid-complete

# One block of the repeating pattern: (query, chance variables, parents
# observed by D1, by D2).  Sizes follow the two scaling axes, and
# find_pure_nash runs only on the smallest games.  A query's latency is its
# fastest repeat, and on a shared host only calls of a few milliseconds
# reliably get a fast stretch to themselves, so sizes are kept small: on a
# 2-core x86 VM every query takes 1-11 ms except the k=3 one (34 ms).  Each
# shape appears once per block, so the median falls among the n=9
# expected_utilities and (4, 1, 2) is_nash queries (3-5 ms), and the 90th
# percentile among the (5, 2, 2) is_nash and find_pure_nash ones (about
# 10 ms), inside groups of similar cost, away from the jumps between them.
MAID_BLOCK = [
    ("is_nash", 4, 1, 1),
    ("expected_utilities", 8, 1, 1),
    ("is_nash", 4, 2, 1),
    ("is_nash", 5, 1, 1),
    ("is_nash", 3, 1, 1),
    ("is_nash", 4, 1, 2),
    ("expected_utilities", 9, 1, 1),
    ("is_nash", 5, 2, 2),
    ("find_pure_nash", 2, 1, 1),
    ("is_nash", 5, 1, 2),
    ("expected_utilities", 7, 1, 1),
    ("is_nash", 3, 3, 1),
    ("is_nash", 6, 1, 1),
]
MAID_BLOCKS = 8


def maid_query(kind: str, rng: random.Random, shape, documents: list[str]) -> Query:
    n, k1, k2 = shape
    m = round_trip(gen.random_base_game(rng, n, k1, k2), documents)
    if kind == "find_pure_nash":
        def check(found, m=m):
            want = [oracles.chosen_actions(p) for p in oracles.pure_nash_profiles(m)]
            got = [oracles.chosen_actions(p) for p in found]
            return [] if got == want else [f"find_pure_nash: {got} vs oracle {want}"]
        return Query(kind, lambda: maid.find_pure_nash(m), check)
    rules = round_trip(MaidProfile(gen.random_pure_profile(m, rng)), documents).rules
    if kind == "expected_utilities":
        return Query(
            kind,
            lambda: maid.expected_utilities(m, rules),
            lambda eus: _close(eus, oracles.expected_utilities(m, rules), "EU"),
        )

    def check(answer):
        ok, regrets = answer
        problems = _close(regrets, oracles.maid_regrets(m, rules), "regret")
        if ok != all(r <= EXACT for r in regrets.values()):
            problems.append(f"is_nash verdict {ok} disagrees with regrets {regrets}")
        return problems

    return Query(kind, lambda: maid.is_nash(m, rules), check)


def maid_complete(seed: int) -> Workload:
    rng = random.Random(f"maid-complete/{seed}")
    documents: list[str] = []
    warmup = [maid_query(kind, rng, shape, documents)
              for kind, *shape in _first_of_each_kind(MAID_BLOCK)]
    queries = [maid_query(kind, rng, shape, documents)
               for _ in range(MAID_BLOCKS) for kind, *shape in MAID_BLOCK]
    return Workload(queries, warmup, documents)


# ------------------------------------------------------------------ ii-games

# (models, chance variables, parents observed by D1, by D2, other chance
# variables D2 observes in the last model instead, random profiles checked
# by is_nash_ii, whether check_consistency and verify_equivalence run).
# Pure-profile spaces are 16 and 64, so that queries stay short (see
# MAID_BLOCK); the bundled game adds a space of 256.  Costs on a 2-core x86
# VM: is_nash_ii 5 ms on the 16-profile games and 12 ms on the 64-profile
# one, check_consistency 12 ms and verify_equivalence 19 ms on the first
# game, 0.17 s on the bundled one.  So the median falls among the
# 16-profile is_nash_ii calls and the 90th percentile among the 64-profile
# ones, with about 11 queries above that group.  find_nash_ii stops
# at the first equilibrium, so its cost depends on where that lies; it runs
# only on the bundled game, whose answer is fixed.
II_BLOCK = [
    (3, 2, 1, 1, None, 6, True),
    (3, 3, 1, 1, 1, 10, False),
    (4, 2, 1, 1, None, 6, False),
    (3, 3, 1, 1, None, 6, False),
]
II_BLOCKS = 3


def _iset(agent, obs, actions):
    return InformationSet(agent, tuple(obs), tuple(actions))


def criterion5_mutation(profile: dict) -> dict:
    """The bundled equilibrium with A reporting truthfully and H deploying
    only on a low report (criterion 5): A then regrets 0.2."""
    mutated = dict(profile)
    high_low, deploy = ("high", "low"), ("deploy", "not_deploy")
    mutated[_iset("A", [("C", "high")], high_low)] = {"high": 1.0, "low": 0.0}
    mutated[_iset("A", [("C", "low")], high_low)] = {"high": 0.0, "low": 1.0}
    mutated[_iset("H", [("D_A", "high")], deploy)] = {"deploy": 0.0, "not_deploy": 1.0}
    mutated[_iset("H", [("D_A", "low")], deploy)] = {"deploy": 1.0, "not_deploy": 0.0}
    return mutated


def _ii_queries(x, profiles, known: dict | None, solve: bool, find: bool) -> list[Query]:
    """Queries on one subjective game: information sets, is_nash_ii on each
    profile and maid2efgII, plus check_consistency and verify_equivalence
    when ``solve`` and find_nash_ii when ``find``.  ``known`` holds verdicts
    fixed in advance for the bundled game; random games are strongly
    consistent by construction."""
    want_sets = {a: oracles.information_sets(x, a) for a in x.agents}
    out = []
    for agent in x.agents:
        def check_sets(got, agent=agent):
            if got != want_sets[agent]:
                return [f"information_sets({agent}): {len(got)} vs oracle {len(want_sets[agent])}"]
            if known and len(got) != known["sets"][agent]:
                return [f"information_sets({agent}): {len(got)}, known {known['sets'][agent]}"]
            return []
        out.append(Query("information_sets",
                         lambda agent=agent: incomplete.information_sets(x, agent), check_sets))

    def check_consistency(rep):
        strongly = known["strongly_consistent"] if known else True
        problems = []
        if not rep.eq_feasible or rep.strongly_consistent != strongly:
            problems.append(f"consistency: feasible={rep.eq_feasible} "
                            f"strong={rep.strongly_consistent}, expected strong={strongly}")
        if rep.eq_feasible and oracles.common_prior_residual(x, rep.sample) > 1e-6:
            problems.append("consistency: sample prior does not reproduce the beliefs")
        return problems
    if solve:
        out.append(Query("check_consistency", lambda: incomplete.check_consistency(x),
                         check_consistency))

    for profile, verdict in profiles:
        def check_nash(answer, profile=profile, verdict=verdict):
            ok, regrets = answer
            problems = _close(regrets, oracles.ii_regrets(x, profile), "ii regret")
            if ok != all(r <= NASH_TOL for r in regrets.values()):
                problems.append(f"is_nash_ii verdict {ok} disagrees with regrets {regrets}")
            if verdict is not None and ok != verdict:
                problems.append(f"is_nash_ii verdict {ok}, known {verdict}")
            return problems
        out.append(Query("is_nash_ii", lambda profile=profile: incomplete.is_nash_ii(x, profile),
                         check_nash))

    if find:
        def check_find(found):
            if found is None:
                if oracles.first_pure_ii_nash(x, NASH_TOL) is not None:
                    return ["find_nash_ii: none found, the oracle finds one"]
                return []
            ok, regrets = incomplete.is_nash_ii(x, found)
            return [] if ok else [f"find_nash_ii profile fails is_nash_ii: {regrets}"]
        out.append(Query("find_nash_ii", lambda: incomplete.find_nash_ii(x), check_find))

    def check_conversion(c):
        keys = set(c.correspondence)
        if keys != set().union(*want_sets.values()):
            return ["maid2efgII: correspondence misses information sets"]
        if len(set(c.correspondence.values())) != len(keys):
            return ["maid2efgII: two information sets share a cell"]
        return []
    out.append(Query("maid2efgII", lambda: iiefg.maid2efgII(x), check_conversion))

    def check_equivalence(answer):
        ok, worst = answer
        return [] if ok and worst <= EXACT else [f"verify_equivalence: ok={ok} worst={worst}"]
    if solve:
        conv = iiefg.maid2efgII(x)
        out.append(Query("verify_equivalence", lambda: iiefg.verify_equivalence(x, conv),
                         check_equivalence))
    return out


def _random_ii_profile(x, rng: random.Random) -> dict:
    slots = sorted(set().union(*(oracles.information_sets(x, a) for a in x.agents)))
    return {i: bn.point_row(i.actions, rng.choice(i.actions)) for i in slots}


def bundled_ii_queries(documents: list[str]) -> list[Query]:
    x = round_trip(fixtures.evaluation_iimaid(), documents)
    ne = round_trip(IiProfile(fixtures.ne_ii_profile()), documents).rules
    mutated = round_trip(IiProfile(criterion5_mutation(ne)), documents).rules
    known = {"sets": {"A": 2, "H": 6}, "strongly_consistent": False}
    return _ii_queries(x, [(ne, True), (mutated, False)], known, solve=True, find=True)


def ii_games(seed: int, root: Path) -> Workload:
    rng = random.Random(f"ii-games/{seed}")
    documents: list[str] = []
    bundled = bundled_ii_queries(documents)

    def queries(n_models, n_chance, k1, k2, variant, n_profiles, solve, find=False):
        x = round_trip(gen.random_ii_game(rng, n_models, n_chance, k1, k2, variant), documents)
        profiles = [
            (round_trip(IiProfile(_random_ii_profile(x, rng)), documents).rules, None)
            for _ in range(n_profiles)
        ]
        return _ii_queries(x, profiles, None, solve, find)

    # every kind once, on a 16-profile game, which bounds find_nash_ii's cost
    warmup = queries(*II_BLOCK[0], find=True)
    measured = []
    for _ in range(II_BLOCKS):
        # interleave the games' queries so that a partial block keeps the mix
        per_game = [queries(*shape) for shape in II_BLOCK]
        measured += [q for row in zip_longest(*per_game) for q in row if q is not None]
    wl = Workload(measured + bundled, warmup, documents,
                  layer_metrics=lambda: import_times(root))
    simulate_seed = str(rng.randrange(1 << 30))

    def traced():
        tmp = bundled_documents(root)
        wl.scratch.append(tmp)
        return wl.queries + [in_process_query(*c, tmp.name)
                             for c in cli_commands(simulate_seed)]

    wl.traced = traced
    return wl


# -------------------------------------------------------------- depth-stacks
# Not listed in BENCHMARK.json; run by hand.

# (stack depth, chance variables, observed chance parents per decision):
# decisions observe about 30% of the chance variables.
DEPTH_BLOCK = [
    (2, 6, 2), (3, 6, 2), (2, 6, 2), (3, 6, 2),
    (2, 8, 2), (3, 8, 2), (2, 8, 3), (3, 8, 3),
    (2, 10, 3), (3, 10, 3),
]
DEPTH_BLOCKS = 4


def depth_query(stack, shape) -> Query:
    levels, n, _ = shape

    def check(result):
        problems = depth.audit_trace(stack, result)
        if result.depth != levels:
            problems.append(f"depth {result.depth}, built as {levels}")
        if levels == 2:
            got = {d: oracles.chosen_actions({d: c})[d] for d, c in result.objective_rules.items()}
            want = oracles.depth2_objective_actions(stack)
            if got != want:
                problems.append(f"objective rules {got} vs criterion-8 oracle {want}")
        return problems

    return Query(f"recursive_best_response/{levels}",
                 lambda: depth.recursive_best_response(stack), check)


def depth_stacks(seed: int) -> Workload:
    rng = random.Random(f"depth-stacks/{seed}")
    documents: list[str] = []
    make = {2: gen.random_depth2_stack, 3: gen.random_depth3_stack}
    def query(lv, n, k):
        return depth_query(round_trip(make[lv](rng, n, k), documents), (lv, n, k))

    warmup = [query(*shape) for shape in _first_of_each_kind(DEPTH_BLOCK)]
    queries = [query(*shape) for _ in range(DEPTH_BLOCKS) for shape in DEPTH_BLOCK]
    return Workload(queries, warmup, documents)


# --------------------------------------------------------------- cli-oneshot

# Every subcommand on the bundled documents, with the exit code each must
# give.  check-nash exits 1 because always-low against deploy-iff-accurate is
# not an equilibrium (criterion 2), and check-consistency exits 1 because the
# bundled game is not strongly consistent (criterion 3).  The rollout count puts simulate's time near
# check-consistency's, so the two slowest commands form one cluster.
CLI_ROLLOUTS = 80_000
CLI_COMMANDS = [
    (["validate", "evaluation_game.iimaid.json"], 0),
    (["info-sets", "evaluation_game.iimaid.json"], 0),
    (["eu", "honesty_eval.maid.json", "--profile", "truthful_match.profile.json"], 0),
    (["check-nash", "honesty_eval.maid.json", "--profile", "always_low_match.profile.json"], 1),
    (["solve-nash", "evaluation_game.iimaid.json"], 0),
    (["check-consistency", "evaluation_game.iimaid.json"], 1),
    (["solve-rbr", "evaluation_game_depth3.stack.json"], 0),
    (["convert-efg", "honesty_eval.maid.json"], 0),
    (["verify-equivalence", "evaluation_game.iimaid.json"], 0),
    (["simulate", "honesty_eval.maid.json", "--profile", "truthful_match.profile.json",
      "--rollouts", str(CLI_ROLLOUTS)], 0),
    (["export-dot", "evaluation_game.iimaid.json", "--depth", "2"], 0),
]
CLI_ROUNDS = 12


@dataclass(frozen=True)
class CliAnswer:
    code: int
    stdout: bytes


def run_child(argv: list[str], env: dict, cwd: str, rss: list[int]) -> CliAnswer:
    """Run one process to completion and record its own peak RSS."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=env, cwd=cwd)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    rss.append(usage.ru_maxrss)
    return CliAnswer(proc.returncode, out)


def bundled_documents(root: Path) -> tempfile.TemporaryDirectory:
    """A scratch directory under ``root/.perfbench`` holding the bundled documents."""
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.TemporaryDirectory(dir=scratch)
    fixtures.write_data_files(tmp.name)
    return tmp


def cli_commands(simulate_seed: str) -> list[tuple[list[str], int]]:
    return [
        (args + ["--seed", simulate_seed] if args[0] == "simulate" else args, code)
        for args, code in CLI_COMMANDS
    ]


def in_process_query(args: list[str], code: int, cwd: str) -> Query:
    """One subcommand run through ``cli.run`` in this process, from ``cwd``."""
    argv = [*args, "--output", "json"]

    def call():
        buf = io.StringIO()
        before = os.getcwd()
        os.chdir(cwd)
        try:
            with redirect_stdout(buf):
                got = cli.run(argv)
        finally:
            os.chdir(before)
        return CliAnswer(got, buf.getvalue().encode())

    def check(answer: CliAnswer) -> list[str]:
        return [] if answer.code == code else [f"{args[0]}: exit {answer.code}, expected {code}"]

    return Query(args[0], call, check)


def cli_oneshot(seed: int, root: Path) -> Workload:
    rng = random.Random(f"cli-oneshot/{seed}")
    tmp = bundled_documents(root)
    documents: list[str] = []
    for path in sorted(Path(tmp.name).iterdir()):
        text = path.read_text("utf-8")
        round_trip(gamedoc.parse_document(text).value, documents)
        if documents[-1] != text:
            raise RuntimeError(f"{path.name} does not round-trip byte for byte")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    rss: list[int] = []
    first_stdout: dict[int, bytes] = {}

    def command(i: int, args: list[str], code: int) -> Query:
        argv = [sys.executable, "-m", "iimaid", *args, "--output", "json"]

        def check(answer: CliAnswer) -> list[str]:
            problems = []
            if answer.code != code:
                problems.append(f"{args[0]}: exit {answer.code}, expected {code}")
            if first_stdout.setdefault(i, answer.stdout) != answer.stdout:
                problems.append(f"{args[0]}: stdout differs between invocations")
            try:
                report = json.loads(answer.stdout)
                if report.get("command") != args[0]:
                    problems.append(f"{args[0]}: report names {report.get('command')!r}")
            except ValueError:
                problems.append(f"{args[0]}: stdout is not JSON")
            return problems

        return Query(args[0], lambda: run_child(argv, env, tmp.name, rss), check)

    commands = cli_commands(str(rng.randrange(1 << 30)))
    queries = []
    for _ in range(CLI_ROUNDS):
        order = list(range(len(commands)))
        rng.shuffle(order)
        queries += [command(i, *commands[i]) for i in order]
    warmup = [command(0, *commands[0])]
    return Workload(
        queries, warmup, documents,
        traced=lambda: [in_process_query(*c, tmp.name) for c in commands],
        child_rss_kib=rss,
        layer_metrics=lambda: import_times(root),
        scratch=[tmp],
    )


IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S.*)$")


def import_times(root: Path, runs: int = 3) -> dict:
    """Cumulative import times from ``python -X importtime`` of a fresh CLI
    process whose command imports scipy.optimize (check-consistency), as
    medians over ``runs`` processes."""
    docs = root / ".perfbench" / "importtime"
    fixtures.write_data_files(docs)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    wanted = {"iimaid": "import.iimaid_s", "jsonschema": "import.jsonschema_s",
              "scipy.optimize": "import.scipy_optimize_s"}
    samples = defaultdict(list)
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "iimaid", "check-consistency",
             str(docs / "evaluation_game.iimaid.json"), "--output", "json"],
            capture_output=True, text=True, env=env, cwd=root,
        )
        for line in proc.stderr.splitlines():
            m = IMPORT_LINE.match(line)
            if m and m.group(3).strip() in wanted:
                samples[wanted[m.group(3).strip()]].append(int(m.group(2)) / 1e6)
    return {key: (statistics.median(samples[key]) if samples[key] else 0.0, "s")
            for key in wanted.values()}


BUILDERS = {
    "maid-complete": lambda seed, root: maid_complete(seed),
    "ii-games": ii_games,
    "depth-stacks": lambda seed, root: depth_stacks(seed),
    "cli-oneshot": cli_oneshot,
}
