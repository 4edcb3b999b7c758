#!/usr/bin/env python3
"""retscan benchmark: build the library, the `retscan` CLI and the benchmark
binary from this source tree, then run one workload.

    python3 perfbench/run.py --workload retention|atpg|faultsim|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build lives in .bench_build/ (reused
across runs), scratch files in .bench_build/run/, and traced runs write
their spans and "where the time goes" tables to perfbench/out/. The last
line of stdout is the JSON result, with the metrics and units BENCHMARK.json
lists for the run's mode; the exit code is non-zero when the build fails, an
output check fails, or an end-to-end metric is missing from the result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build():
    """Configure (cheap once cached) and build incrementally; logs go to stderr."""
    subprocess.run(
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD_DIR), "-j", BUILD_JOBS,
         "--target", "perfbench", "retscan_cli"],
        check=True, stdout=sys.stderr)


def result(raw, trace):
    """The benchmark result from the binary's JSON line: the metrics
    BENCHMARK.json lists for this mode, with their units. A per-layer metric
    the workload did not set reads 0 (its layer is idle there). Returns the
    result and a list of problems: a missing end-to-end metric, or a value
    whose name BENCHMARK.json does not list at all."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = raw["values"]
    problems = [f"unknown metric {name}" for name in values
                if name not in {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}]
    metrics = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        name = metric["name"]
        if name in values:
            value = values[name]
        elif trace:
            value = 0.0
        else:
            problems.append(f"end-to-end metric {name} was not measured")
            continue
        metrics[name] = {"value": value, "unit": metric["unit"]}
    correct = raw["correct"] and not problems
    return {"correct": correct, "attempted": raw["attempted"],
            "failed": raw["failed"] if correct else max(raw["failed"], 1),
            "metrics": metrics}, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["retention", "atpg", "faultsim", "serve"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        build()
    except (subprocess.CalledProcessError, FileNotFoundError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 2

    work = BUILD_DIR / "run"
    out = BENCH_DIR / "out"
    work.mkdir(parents=True, exist_ok=True)
    out.mkdir(parents=True, exist_ok=True)
    command = [
        str(BUILD_DIR / "perfbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--retscan", str(BUILD_DIR / "retscan" / "retscan"),
        "--circuits", str(ROOT / "bench" / "circuits"),
        "--work", os.path.relpath(work, ROOT), "--out", str(out),
    ]
    # Own process group, so a timeout or a SIGTERM to this script also takes
    # down the serve daemon the benchmark binary spawned.
    bench = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        output, _ = bench.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if bench.poll() is None:
            os.killpg(bench.pid, signal.SIGKILL)
            bench.wait()
    lines = output.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"perfbench: no result from the benchmark binary (exit {bench.returncode})",
              file=sys.stderr)
        return bench.returncode or 1
    final, problems = result(raw, args.trace)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    for line in lines[:-1]:
        print(line)
    for name, metric in final["metrics"].items():
        print(f"{name} {metric['value']:.9g} {metric['unit']}")
    print(json.dumps(final), flush=True)
    if bench.returncode != 0:
        return bench.returncode
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
