"""Time two checkouts of the library against each other in one process.

    python3 scripts/ab_interleave.py PARENT CHANGE --workload ii-games --seed 1 --passes 40

PARENT and CHANGE are checkouts: directories holding ``src/iimaid`` and
``perfbench/``.  Each side's library and benchmark are imported from its
own checkout under fresh ``sys.modules`` entries, and each side builds the
workload's queries through its own ``perfbench.workloads`` (the same
builders ``perfbench/run.py`` uses), then sends its warm-up queries once.

The queries are then sent interleaved: for each pass and each query, both
sides answer it back to back, and which side goes first alternates from one
query to the next and from one pass to the next.  A query's latency is its
fastest repeat, as in ``perfbench/run.py``, so each side's ``queries_per_s``
is the number of queries over the sum of those fastest repeats, and its
``query_p50_s`` and ``query_p90_s`` are those fastest repeats' quantiles,
taken by that side's ``perfbench/run.py``.  Two separate processes running
identical code can read 20% apart on a shared host; here both sides see the
same moments of the machine.

After timing, each side's first answers go through that side's checks, and
the ``repr`` of the two sides' first answers is compared query by query.
The report goes to standard error; the last line of standard output is one
JSON object with each side's per-kind sums (seconds), ``queries_per_s``,
``query_p50_s``, ``query_p90_s`` and failed checks, and the queries whose
answers differ.  The exit status is 1 when either side fails a check, and 0
otherwise.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import sys
import time
from pathlib import Path

PACKAGES = ("iimaid", "perfbench")


def _ours(name: str) -> bool:
    return name.split(".")[0] in PACKAGES


class Side:
    """One checkout's modules and the workload built from them."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        for name in [n for n in sys.modules if _ours(n)]:
            del sys.modules[name]
        saved = sys.path[:]
        sys.path[:0] = [str(root / "src"), str(root)]
        try:
            workloads = importlib.import_module("perfbench.workloads")
            self.quantile = importlib.import_module("perfbench.run").quantile
            build = workloads.BUILDERS.get(workload)
            if build is None:
                sys.exit(f"error: unknown workload {workload!r}; "
                         f"choose from {sorted(workloads.BUILDERS)}")
            self.modules = {n: m for n, m in sys.modules.items() if _ours(n)}
            self.workload = build(seed, root)
        finally:
            sys.path[:] = saved
        library = Path(self.modules["iimaid"].__file__).resolve()
        if not library.is_relative_to(root.resolve()):
            sys.exit(f"error: {root} imported the library from {library}")
        self.activate()
        for q in self.workload.warmup:
            q.call()

    def activate(self) -> None:
        """Make this side's modules the ones any import at call time finds."""
        sys.modules.update(self.modules)


def interleave(sides: list[Side], passes: int):
    """Each side's fastest repeat and first answer, per query."""
    n = len(sides[0].workload.queries)
    best = [[float("inf")] * n for _ in sides]
    first: list[list] = [[None] * n for _ in sides]
    for p in range(passes):
        for i in range(n):
            order = (0, 1) if (p + i) % 2 == 0 else (1, 0)
            for s in order:
                sides[s].activate()
                q = sides[s].workload.queries[i]
                start = time.perf_counter()
                try:
                    answer = q.call()
                except Exception as exc:  # a failed query is counted, not fatal
                    answer = exc
                elapsed = time.perf_counter() - start
                best[s][i] = min(best[s][i], elapsed)
                if p == 0:
                    first[s][i] = answer
    return best, first


def check(side: Side, answers: list) -> int:
    side.activate()
    failed = 0
    for i, (q, answer) in enumerate(zip(side.workload.queries, answers)):
        problems = ([f"raised {answer!r}"] if isinstance(answer, Exception)
                    else q.check(answer))
        for problem in problems:
            print(f"{side.root}: query {i} ({q.kind}): {problem}", file=sys.stderr)
        failed += bool(problems)
    return failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", default="ii-games")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--passes", type=int, default=40)
    args = p.parse_args(argv)
    if args.passes <= 0:
        p.error("--passes must be positive")

    sides = [Side(args.parent, args.workload, args.seed),
             Side(args.change, args.workload, args.seed)]
    kinds = [q.kind for q in sides[0].workload.queries]
    if kinds != [q.kind for q in sides[1].workload.queries]:
        sys.exit("error: the two checkouts build different query lists")
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    best, first = interleave(sides, args.passes)
    elapsed = time.perf_counter() - start

    report = {"workload": args.workload, "seed": args.seed, "passes": args.passes,
              "queries": len(kinds), "elapsed_s": elapsed}
    for name, side, fastest, answers in zip(("parent", "change"), sides, best, first):
        per_kind: dict[str, float] = {}
        for kind, seconds in zip(kinds, fastest):
            per_kind[kind] = per_kind.get(kind, 0.0) + seconds
        report[name] = {
            "root": str(side.root),
            "per_kind_s": per_kind,
            "queries_per_s": len(fastest) / sum(fastest),
            "query_p50_s": side.quantile(fastest, 0.5),
            "query_p90_s": side.quantile(fastest, 0.9),
            "failed": check(side, answers),
        }
    report["differing_answers"] = [
        i for i, (a, b) in enumerate(zip(*first)) if repr(a) != repr(b)]
    report["speedup"] = report["change"]["queries_per_s"] / report["parent"]["queries_per_s"]

    for kind in sorted(set(kinds)):
        a, b = (report[s]["per_kind_s"][kind] for s in ("parent", "change"))
        print(f"{kind:>20}: {1e3 * a:9.3f} ms -> {1e3 * b:9.3f} ms  ({a / b:.3f}x)",
              file=sys.stderr)
    print(f"queries_per_s: {report['parent']['queries_per_s']:.1f} -> "
          f"{report['change']['queries_per_s']:.1f} ({report['speedup']:.3f}x) over "
          f"{args.passes} passes in {elapsed:.1f} s; "
          f"{len(report['differing_answers'])} answers differ", file=sys.stderr)
    for metric in ("query_p50_s", "query_p90_s"):
        a, b = (report[s][metric] for s in ("parent", "change"))
        print(f"{metric}: {1e3 * a:.3f} ms -> {1e3 * b:.3f} ms ({a / b:.3f}x)",
              file=sys.stderr)
    print(json.dumps(report))
    return 1 if report["parent"]["failed"] or report["change"]["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
