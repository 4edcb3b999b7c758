#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,3] [--seconds S]

Runs perfbench/run.py once per (workload, seed), untraced, and prints for
each end-to-end metric its median over the seeds and the spread — the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median — beside the metric's bound from BENCHMARK.json.
Exits non-zero when a run fails or a spread exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        walls = []
        for seed in args.seeds.split(","):
            start = time.monotonic()
            run = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", seed, "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            walls.append(time.monotonic() - start)
            if run.returncode != 0:
                print(f"{workload} seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print(f"{workload:10s} wall seconds per run: max {max(walls):.1f}, "
              f"median {statistics.median(walls):.1f}")
        for metric in spec["end_to_end"]:
            samples = values[metric["name"]]
            if len(samples) < 2:
                continue
            median = statistics.median(samples)
            q1, _, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / median
            within = spread <= metric["bound"]
            ok = ok and within
            print(f"{workload:10s} {metric['name']:12s} median {median:<12.6g} "
                  f"spread {spread:.4f} bound {metric['bound']} "
                  f"{'ok' if within else 'OVER'}  "
                  f"[{' '.join(f'{v:.4g}' for v in samples)}]")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
