"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root: the library is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the run sets up the workload, sends its queries in a closed
loop with one client for ``--seconds`` seconds, passing over the query list
many times, then checks every answer and reports the end-to-end metrics.  A
query's latency is the least of its repeats in the run: on a shared host the
same call runs up to 1.7x slower in some moments than in others, and the
fastest repeat is the one least disturbed by that.  With ``--trace 1`` it
sends each query of the list once untraced and once traced and reports
per-layer metrics, including the tracing overhead.  Set-up is timed from the first statement of this file;
four more set-ups run in fresh processes, and ``setup_s`` is the median of
the five.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from contextlib import nullcontext  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5


def _import_library() -> None:
    if not (ROOT / "src" / "iimaid" / "__init__.py").is_file():
        sys.exit(f"error: no library source at {ROOT / 'src' / 'iimaid'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def setup(args):
    from perfbench import workloads

    build = workloads.BUILDERS.get(args.workload)
    if build is None:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.BUILDERS)}")
    wl = build(args.seed, ROOT)
    for q in wl.warmup:
        q.call()
    if wl.child_rss_kib is not None:
        wl.child_rss_kib.clear()
    # the inputs live for the whole run; keep the collector from rescanning them
    gc.collect()
    gc.freeze()
    return wl


# stands for the answer of a query already answered once; only a query's
# first answer is kept, so memory does not grow with throughput
REPEAT = object()


def call(q):
    """The query's answer, or the exception it raised."""
    try:
        return q.call()
    except Exception as exc:  # a failed query is counted, not fatal
        return exc


def keep(answers: list, answered: set, i: int, answer) -> None:
    if isinstance(answer, Exception):
        answers.append((i, answer))
    elif i in answered:
        answers.append((i, REPEAT))
    else:
        answered.add(i)
        answers.append((i, answer))


def closed_loop(queries, seconds: float):
    """Send queries one after another until ``seconds`` have passed.

    Returns ([(query index, latency)], [(query index, answer, exception or
    REPEAT)], elapsed).
    """
    samples, answers, answered = [], [], set()
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        t = time.perf_counter()
        answer = call(queries[i % len(queries)])
        samples.append((i % len(queries), time.perf_counter() - t))
        keep(answers, answered, i % len(queries), answer)
        i += 1
    return samples, answers, time.perf_counter() - start


def best_latencies(samples) -> list[float]:
    """Each query's fastest repeat, in query order."""
    best: dict[int, float] = {}
    for i, seconds in samples:
        best[i] = min(seconds, best.get(i, seconds))
    return [best[i] for i in sorted(best)]


def count_failures(queries, answers) -> int:
    """Check answers outside the timed region; returns how many queries failed.

    A query that raised fails.  Each query's check runs on its first answer,
    and a repeat of the query counts as failed when that check failed."""
    verdict: dict[int, bool] = {}
    failed = 0
    for i, answer in answers:
        if isinstance(answer, Exception):
            print(f"query {i} ({queries[i].kind}) raised {answer!r}", file=sys.stderr)
            failed += 1
            continue
        if answer is not REPEAT:
            problems = queries[i].check(answer)
            for p in problems:
                print(f"query {i} ({queries[i].kind}): {p}", file=sys.stderr)
            verdict[i] = not problems
        failed += not verdict[i]
    return failed


def setup_seconds(args, own: float) -> float:
    """Median set-up time over this process and fresh ones."""
    samples = [own]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def quantile(values, q: float) -> float:
    """The q-quantile by linear interpolation between order statistics."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def end_to_end(args, wl, setup_s: float):
    """The closed-loop run; returns (attempted, failed, metrics)."""
    samples, answers, elapsed = closed_loop(wl.queries, args.seconds)
    if wl.child_rss_kib is not None:
        peak_kib = max(wl.child_rss_kib)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    failed = count_failures(wl.queries, answers)
    n = len(samples)
    best = best_latencies(samples)
    print(f"{args.workload}: {n} calls of {len(best)} distinct queries "
          f"({n / len(wl.queries):.1f} passes) in {elapsed:.3f} s, {failed} failed; "
          f"p90 has {len(best) - int(0.9 * len(best))} queries at or beyond it; "
          f"wall-clock {n / elapsed:.3f} queries/s", file=sys.stderr)
    metrics = {
        # one client sending each query once, each at its fastest repeat
        "queries_per_s": (len(best) / sum(best), "1/s"),
        "query_p50_s": (quantile(best, 0.5), "s"),
        "query_p90_s": (quantile(best, 0.9), "s"),
        "ok_frac": ((n - failed) / n, "ratio"),
        "setup_s": (setup_seconds(args, setup_s), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    return n, failed, metrics


def per_layer(args, wl):
    """Each query once untraced and once traced; returns (attempted, failed,
    metrics).  The two runs of a query are back to back, so a slow phase of
    the machine hits both and the overhead estimate stays fair."""
    from perfbench import trace

    queries = wl.queries
    if wl.traced is not None:
        queries = wl.traced()
        for q in queries:
            q.call()  # set-up warmed one query of each kind, not these
    tracer = trace.Tracer()
    with tracer.installed():
        for text in wl.documents:
            trace.reparse(text)
    answers, answered, elapsed = [], set(), {False: 0.0, True: 0.0}
    for i, q in enumerate(queries):
        # alternate which run goes first, so that warm caches favour neither
        for traced in ((False, True) if i % 2 else (True, False)):
            with tracer.installed() if traced else nullcontext():
                start = time.perf_counter()
                answer = call(q)
                elapsed[traced] += time.perf_counter() - start
            keep(answers, answered, i, answer)
    failed = count_failures(queries, answers)
    metrics = tracer.metrics()
    if wl.layer_metrics is not None:
        metrics.update(wl.layer_metrics())
    # tracing overhead: untraced queries_per_s over traced queries_per_s, less one
    metrics["trace.overhead_frac"] = (elapsed[True] / elapsed[False] - 1.0, "ratio")
    out = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json"
    tracer.write_spans(out)
    print(f"{args.workload}: traced {elapsed[True]:.3f} s vs untraced {elapsed[False]:.3f} s "
          f"over {len(queries)} queries; {len(tracer.spans)} spans written to {out}",
          file=sys.stderr)
    return len(answers), failed, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_library()
    wl = setup(args)
    setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        wl.cleanup()
        print(setup_s)
        return 0
    try:
        if args.trace:
            attempted, failed, metrics = per_layer(args, wl)
        else:
            attempted, failed, metrics = end_to_end(args, wl, setup_s)
    finally:
        wl.cleanup()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
