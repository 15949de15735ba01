"""Self-test of the benchmark's answer checks.

Plants known wrong answers in each workload's queries, runs them through the
same closed loop and checks as a benchmark run, and confirms that the share
of failed queries rises above zero; the same queries with their true
answers must all pass.  Run from the repository root:

    python3 perfbench/selftest.py

Exits 0 when every planted error is caught and every control passes.
"""

import random
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from iimaid import fixtures, iiefg, incomplete  # noqa: E402
from iimaid.incomplete import InformationSet  # noqa: E402

from perfbench import generators as gen  # noqa: E402
from perfbench import workloads as wl  # noqa: E402
from perfbench.run import closed_loop, count_failures  # noqa: E402

SECONDS = 0.3


def failed_frac(queries) -> float:
    samples, answers, _ = closed_loop(queries, SECONDS)
    return count_failures(queries, answers) / len(samples)


def _by_kind(queries, kind, nth=0):
    return [q for q in queries if q.kind == kind][nth]


def criterion6_swap(conv):
    """Criterion 6: swap the cells of two of H's information sets."""
    actions = ("deploy", "not_deploy")
    a = InformationSet("H", (("C", "high"), ("D_A", "high")), actions)
    b = InformationSet("H", (("C", "high"), ("D_A", "low")), actions)
    corrupted = dict(conv.correspondence)
    corrupted[a], corrupted[b] = corrupted[b], corrupted[a]
    return iiefg.IiConversion(conv.game, corrupted)


def cases():
    """(name, control queries, planted queries)."""
    bundled = wl.bundled_ii_queries([])
    x = fixtures.evaluation_iimaid()
    bad_conv = criterion6_swap(iiefg.maid2efgII(x))
    equivalence = _by_kind(bundled, "verify_equivalence")
    yield ("ii-games: criterion 6 swapped correspondence", [equivalence],
           [replace(equivalence, call=lambda: iiefg.verify_equivalence(x, bad_conv))])

    ne_query = _by_kind(bundled, "is_nash_ii", 0)
    mutated = wl.criterion5_mutation(fixtures.ne_ii_profile())
    yield ("ii-games: criterion 5 mutated profile answered for the equilibrium",
           [ne_query], [replace(ne_query, call=lambda: incomplete.is_nash_ii(x, mutated))])

    rng = random.Random(0)
    first, second = (wl.maid_query("is_nash", rng, (8, 1, 2), []) for _ in range(2))
    yield ("maid-complete: regrets of another game", [first],
           [replace(first, call=second.call)])

    make = gen.random_depth2_stack
    s1, s2 = make(rng, 6, 2), make(rng, 6, 2)
    q1, q2 = wl.depth_query(s1, (2, 6, 2)), wl.depth_query(s2, (2, 6, 2))
    yield ("depth-stacks: solution of another stack", [q1], [replace(q1, call=q2.call)])

    cli = wl.cli_oneshot(0, ROOT)
    try:
        consistency = _by_kind(cli.queries, "check-consistency")

        def exits_zero():
            answer = consistency.call()
            return wl.CliAnswer(0, answer.stdout)

        yield ("cli-oneshot: check-consistency reported as passing", [consistency],
               [replace(consistency, call=exits_zero)])
    finally:
        cli.cleanup()


def main() -> int:
    ok = True
    for name, control, planted in cases():
        clean, dirty = failed_frac(control), failed_frac(planted)
        caught = clean == 0.0 and dirty > 0.0
        ok &= caught
        print(f"{'ok  ' if caught else 'FAIL'} {name}: failed_frac "
              f"{clean:.3f} with true answers, {dirty:.3f} planted")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
