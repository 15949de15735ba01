"""Reproduce the ROADMAP's item-1 baselines once with the benchmark's generators.

These are notes, not gated metrics; NOTES.md records one run.  Run from the
repository root (takes about a minute; best response at k=4 alone takes
tens of seconds):

    python3 perfbench/baselines.py
"""

import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from iimaid import fixtures, iiefg, maid  # noqa: E402
from iimaid.simulate import simulate  # noqa: E402

from perfbench import generators as gen  # noqa: E402
from perfbench.workloads import IMPORT_LINE  # noqa: E402


def timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def import_breakdown(argv, env) -> dict[str, float]:
    proc = subprocess.run([sys.executable, "-X", "importtime", *argv],
                          capture_output=True, text=True, env=env)
    out = {}
    for line in proc.stderr.splitlines():
        m = IMPORT_LINE.match(line)
        if m:
            out[m.group(3).strip()] = int(m.group(2)) / 1e6
    return out


def main() -> None:
    rng = random.Random(0)
    rows = []
    for k in (3, 4):
        m = gen.random_base_game(rng, k, k, 1)
        others = {"D2": gen.random_pure_rule(m, "D2", rng)}
        n = maid.count_pure_policies(m, ["D1"])
        rows.append((f"best_response, D1 observes k={k} binary parents ({n} policies)",
                     timed(maid.best_response, m, others, "P1")))
    for n in (16, 18):
        m = gen.random_base_game(rng, n, 1, 1, chain=True)
        rows.append((f"expected_utilities, chain of n={n} chance variables",
                     timed(maid.expected_utilities, m, gen.random_pure_profile(m, rng))))
    x = fixtures.evaluation_iimaid()
    rows.append(("verify_equivalence, bundled game (256 profiles)",
                 timed(iiefg.verify_equivalence, x, iiefg.maid2efgII(x))))
    x = gen.random_ii_game(rng, 3, 3, 1, 2, 1)
    rows.append(("verify_equivalence, generated 3-model game (256 profiles)",
                 timed(iiefg.verify_equivalence, x, iiefg.maid2efgII(x))))
    rows.append(("simulate, honesty evaluation, 100k rollouts",
                 timed(simulate, fixtures.honesty_evaluation(),
                       fixtures.truthful_match_rules(), 100_000, 17)))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    imports = import_breakdown(["-c", "import iimaid"], env)
    rows.append(("import iimaid (-X importtime, cumulative)", imports["iimaid"]))
    rows.append(("  of which jsonschema", imports["jsonschema"]))
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        fixtures.write_data_files(tmp)
        argv = ["-m", "iimaid", "check-consistency",
                str(Path(tmp) / "evaluation_game.iimaid.json"), "--output", "json"]
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], capture_output=True, env=env)
        rows.append(("check-consistency CLI process, end to end",
                     time.perf_counter() - start))
        rows.append(("  of which import scipy.optimize",
                     import_breakdown(argv, env)["scipy.optimize"]))
    for name, seconds in rows:
        print(f"{seconds:9.3f} s  {name}")


if __name__ == "__main__":
    main()
