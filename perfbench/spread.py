"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload kernels --runs 10

It runs untraced, the runs whose end-to-end metrics carry bounds.  For
every metric: the median of the runs and the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, beside the metric's bound from ``BENCHMARK.json``
and a third of it.  Seeds are 1..N (or ``--first-seed`` onward).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':34} {'median':>12} {'spread':>8} {'bound':>6} "
          f"{'bound/3':>8}")
    for name, series in values.items():
        mid = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / mid if mid else 0.0
        bound = bounds[name]
        print(f"{name:34} {mid:12.6g} {spread:8.4f} {bound:>6} "
              f"{bound / 3:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
