"""Benchmark of weylnet: one workload per run, checked outputs, JSON result.

    python3 perfbench/run.py --workload algebra --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
`--trace 0` times whole rounds of the workload for `--seconds` and reports
the end-to-end metrics; `--trace 1` runs a fixed number of rounds, each once
untraced and once traced, and reports the per-layer metrics of the traced
ones.  The last line of stdout is the result object; a copy goes to
`perfbench/results/`, and a traced run writes its spans there too.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# At most two threads: keep BLAS single-threaded, here and in set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_PROBES = 11  # measured cold starts per run, after one unmeasured start

# Cold import of weylnet plus the first load_registry, in a fresh interpreter.
PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from fractions import Fraction
from weylnet.funcspace import Grid
from weylnet.registry import load_registry
load_registry(None, Grid(Fraction(-32), Fraction(32), int(sys.argv[2])))
t1 = time.perf_counter()
import weylnet
print(repr(t1 - t0), weylnet.__file__)
"""


def setup_seconds(points: int) -> float:
    times = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC), str(points)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        seconds, path = proc.stdout.split()
        if not Path(path).is_relative_to(SRC):
            raise RuntimeError(f"probe imported weylnet from {path}")
        if i:
            times.append(float(seconds))
    return statistics.median(times)


def run_round(ops, tracer=None):
    """Run one round; returns [(operation, seconds, problem or None)]."""
    done = []
    for op in ops:
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as e:  # a raising operation is a failed one
            out, problem = None, f"raised {type(e).__name__}: {e}"
        else:
            problem = None
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            tracer.end_op()
        if problem is None:
            problem = op.check(out)
        done.append((op, seconds, problem))
    return done


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.times = []  # seconds of every operation
        self.well_formed_times = []

    def add(self, done):
        for op, seconds, problem in done:
            self.attempted += 1
            self.times.append(seconds)
            if op.well_formed:
                self.well_formed_times.append(seconds)
            if problem is not None:
                self.failed += 1
                if op.well_formed:
                    self.correct = False
                    print(f"check failed: {problem}", file=sys.stderr)


def measure(workload, rng, seconds):
    """End-to-end metrics over whole rounds for `seconds` after a warm-up."""
    setup = setup_seconds(workload.grid_points)
    warm = Tally()
    warm.add(run_round(workload.make_round(rng)))
    tally = Tally()
    start = time.perf_counter()
    while True:
        tally.add(run_round(workload.make_round(rng)))
        if time.perf_counter() - start >= seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup, "s"),
        "op_s.p50": (statistics.median(tally.well_formed_times), "s"),
        "ops_per_s": (tally.attempted / sum(tally.times), "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return warm.correct and tally.correct, tally, metrics


def trace(workload, rng, out_path):
    """Per-layer metrics over a fixed number of rounds, so counts repeat."""
    from spans import Tracer

    run_round(workload.make_round(rng))  # warm-up
    tracer = Tracer()
    plain, traced = Tally(), Tally()
    for _ in range(workload.traced_rounds):
        state = rng.getstate()
        plain.add(run_round(workload.make_round(rng)))
        rng.setstate(state)
        traced.add(run_round(workload.make_round(rng), tracer))
    metrics = tracer.metrics()
    metrics["trace.overhead"] = (
        statistics.median(traced.well_formed_times) / statistics.median(plain.well_formed_times),
        "ratio",
    )
    tracer.write(out_path)
    return plain.correct and traced.correct, traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weylnet" / "__init__.py").is_file():
        print(f"error: no weylnet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        correct, tally, metrics = trace(workload, rng, RESULTS / f"{stem}.spans.json")
    else:
        correct, tally, metrics = measure(workload, rng, args.seconds)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value} {unit}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (RESULTS / f"{stem}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
