"""Time each benchmark command from ``main()`` returning to its process ending.

    python3 BENCH_exit_gc.py --tree parent=../parent --tree change=. \
        [--workload newswire] [--seed 11] [--repeats 10]

Run from the repository root. Writes the ``perfbench`` world of the workload
and seed, then runs the commands of a benchmark round (``Bench.phases``)
``--repeats`` times for each tree, the trees taking turns. Each command runs
as the benchmark runs it, through ``perfbench/child.py`` in a fresh
interpreter, with ``newsgeo`` imported from the tree's ``src``. The child
notes the monotonic clock when ``newsgeo.cli.main`` returns, and this
process notes it when the child has exited; the difference is the time the
interpreter takes to shut down, which no span of the trace reaches. Prints
one JSON object: for each tree and command, the median and quartiles of
that time in milliseconds, and every run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent
PERFBENCH = ROOT / "perfbench"
sys.path[:0] = [str(PERFBENCH), str(ROOT / "src")]  # the world's validation reads newsgeo

from run import BLAS_ONE_THREAD, Bench  # noqa: E402

# Runs child.py as __main__, with newsgeo.cli.main wrapped to note the clock
# when it returns.
WRAPPER = """
import os, runpy, sys, time
import newsgeo.cli

stamp, child = sys.argv[1:3]
sys.path.insert(0, os.path.dirname(child))
main = newsgeo.cli.main

def noting(argv=None):
    try:
        return main(argv)
    finally:
        returned = time.monotonic()
        with open(stamp, "w") as handle:
            handle.write(repr(returned))

newsgeo.cli.main = noting
sys.argv = sys.argv[2:]
runpy.run_path(child, run_name="__main__")
"""


def exit_ms(bench: Bench, argv: list[str], src: Path) -> float:
    """Milliseconds from the command's `main()` returning to its process ending."""
    stamp = bench.work / "returned"
    env = dict(os.environ, **BLAS_ONE_THREAD, PYTHONPATH=str(src))
    child = subprocess.Popen(
        [sys.executable, "-c", WRAPPER, str(stamp), str(PERFBENCH / "child.py"), *argv],
        cwd=bench.dir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    _, stderr = child.communicate()
    ended = time.monotonic()
    if child.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {child.returncode}: {stderr.decode()[-500:]}")
    return (ended - float(stamp.read_text())) * 1000


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True, metavar="NAME=PATH")
    parser.add_argument("--workload", default="newswire")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--repeats", type=int, default=10)
    args = parser.parse_args()
    trees = {name: Path(path).resolve() / "src" for name, _, path in (t.partition("=") for t in args.tree)}
    work = Path(tempfile.mkdtemp(prefix="exit-gc-"))
    try:
        bench = Bench(args.workload, args.seed, work)
        runs: dict[str, dict[str, list[float]]] = {name: {} for name in trees}
        sim = ["--sim", f"{args.workload}:{args.seed}"] if bench.plan.cold else []
        round_ = 0
        for repeat in range(args.repeats):
            names = list(trees) if repeat % 2 == 0 else list(reversed(trees))
            for name in names:
                for phase in bench.phases(round_):
                    argv = [*sim, "--", *phase.command, "--output", phase.output]
                    runs[name].setdefault(phase.name, []).append(exit_ms(bench, argv, trees[name]))
                    bench.check(phase)  # as the benchmark does: the same bytes every run
                round_ += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    gap_ms = {}
    for name, phases in runs.items():
        gap_ms[name] = {}
        for phase, values in phases.items():
            q1, median, q3 = statistics.quantiles(values, n=4)
            gap_ms[name][phase] = {
                "median": round(median, 2), "q1": round(q1, 2), "q3": round(q3, 2),
                "runs": [round(v, 2) for v in values],
            }
    result = dict(workload=args.workload, seed=args.seed, repeats=args.repeats, exit_ms=gap_ms)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
