#!/usr/bin/env python3
"""Validate BENCH_*.json bench reports and gate perf regressions.

Usage:
    check_bench_json.py [--baselines DIR] [--max-regression FRAC] FILES...

Every report must be a flat JSON object with a "bench" name, a "pass"
metric equal to 1, and finite numeric values for everything else; benches
listed in REQUIRED_KEYS must carry those keys. Ratio metrics listed in
GATED_KEYS are machine-independent (packed vs scalar on the same host), so
they are compared against the checked-in baselines: a value below
baseline * (1 - max_regression) fails the gate.
"""

import argparse
import json
import math
import pathlib
import sys

# Execution-shape metadata every report must carry (seeded by
# bench::JsonReport at construction, so a missing key means a bench bypassed
# the shared reporter).
SHAPE_KEYS = ["threads", "hardware_concurrency", "lane_words", "lane_bits"]

# Keys every report of a given bench must emit (beyond "bench", "pass" and
# SHAPE_KEYS).
REQUIRED_KEYS = {
    "validation": [
        "fast_sequences_per_sec",
        "fast_detection_rate",
        "fast_correction_rate",
        "shard_count",
        "reference_sequences",
        "parallel_speedup",
        "scaling_efficiency",
        "gate_speedup",
        "event_speedup",
        "event_sweeps",
        "avg_dirty_fraction",
        "checkpoint_overhead",
        "artifact_warm_speedup",
        "artifact_cold_setup_sec",
        "artifact_warm_setup_sec",
    ]
    + [f"parallel_speedup_t{n}" for n in (1, 2, 4, 8)]
    + [f"scaling_efficiency_t{n}" for n in (1, 2, 4, 8)],
    "atpg": [
        "coverage",
        "patterns",
        "atpg_speedup",
        "podem_threaded_speedup",
        "faultsim_speedup",
        "delivery_speedup",
    ]
    + [f"faultsim_speedup_t{n}" for n in (1, 2, 4, 8)]
    + [f"scaling_efficiency_t{n}" for n in (1, 2, 4, 8)],
    "engine": [
        "gates",
        "compiled_meps",
        "word_meps",
        "interp_meps",
        "compile_speedup",
        "laneblock_speedup",
        "cone_fault_evals_per_sec",
        "full_fault_evals_per_sec",
        "cone_speedup",
    ],
    "external": [
        "circuits",
        "total_cells",
        "min_coverage",
        "min_coverage_td",
        "min_coverage_seq",
        "min_coverage_iscas85",
        "min_coverage_iscas89",
        "min_coverage_epfl",
        "compiled_meps",
        "faultsim_evals_per_sec",
    ],
}

# Ratio metrics gated against bench/baselines/BENCH_<name>.json.
GATED_KEYS = {
    "validation": ["gate_speedup", "event_speedup"],
    "atpg": ["faultsim_speedup", "delivery_speedup"],
    "engine": ["compile_speedup", "cone_speedup"],
    "external": [
        "min_coverage",
        "min_coverage_td",
        "min_coverage_seq",
        "min_coverage_iscas85",
        "min_coverage_iscas89",
        "min_coverage_epfl",
    ],
}


def conditional_gates(name, report):
    """Absolute floors that only apply when the recorded execution shape can
    actually deliver them — all keyed on metadata inside the report itself,
    so the same checker passes on a 1-core container, a 4-vCPU CI runner and
    a wide dev box without per-host configuration.

    Returns a list of (key, floor, reason) tuples.
    """
    gates = []
    lane_words = report.get("lane_words", 0)
    cores = report.get("hardware_concurrency", 0)
    threads = report.get("threads", 0)

    if name == "engine" and lane_words >= 4:
        # The lane-block datapath must beat the single-word sweep by >= 2.5x
        # in the same binary on the same host (the PR6 tentpole contract).
        gates.append(("laneblock_speedup", 2.5,
                      f"lane_words={lane_words:.0f} >= 4"))

    if name == "validation":
        # The dirty-net worklist must beat the full sweep by >= 2x on the
        # low-activity retention workload (the PR7 tentpole contract). A
        # pure same-binary same-host scheduling ratio, so no shape guard.
        gates.append(("event_speedup", 2.0, "low-activity workload"))
        # A warm resubmission through the serve daemon's caches must beat
        # the cold job's setup (spec parse + synthesis + compile + warm-up)
        # by >= 1.2x — same binary, same host, a pure ratio (the PR9
        # tentpole contract; in practice it lands far above this floor).
        gates.append(("artifact_warm_speedup", 1.2, "serve warm resubmission"))
        # Thread-scaling floors need real cores (>= 8 logical, i.e. ~4
        # physical with SMT) and a non-trivial budget — tiny smoke runs are
        # dominated by shard setup.
        scalable = (cores >= 8 and report.get("reference_sequences", 0) >= 50000)
        if scalable and 4 <= threads <= cores:
            gates.append(("parallel_speedup", 1.5,
                          f"threads={threads:.0f}, cores={cores:.0f}"))
        if scalable:
            gates.append(("scaling_efficiency_t4", 0.5,
                          f"cores={cores:.0f} >= 8, full budget"))

    if name == "atpg":
        # Compiled incremental PODEM vs the reference full-re-simulation
        # PODEM on identical targets, results checked identical in the same
        # run (bench/reference_podem.hpp). Same binary, same host, a pure
        # ratio; measured ~30x on the protected FIFO.
        gates.append(("atpg_speedup", 8.0, "compiled vs reference PODEM"))

    if name == "atpg" and cores >= 8:
        gates.append(("scaling_efficiency_t4", 0.5, f"cores={cores:.0f} >= 8"))
        # Complete ATPG with speculative PODEM on the default pool vs a
        # 1-thread pool, pattern sets checked identical in the same run.
        gates.append(("podem_threaded_speedup", 1.5, f"cores={cores:.0f} >= 8"))

    return gates


def conditional_ceilings(name, report):
    """Absolute ceilings — ratios that must stay NEAR 1 rather than large.
    Same shape as conditional_gates, but the check is value <= ceiling.

    Returns a list of (key, ceiling, reason) tuples.
    """
    del report
    ceilings = []
    if name == "validation":
        # Checkpointing a campaign (one slot copy into the mapped journal
        # per shard, after one sized file creation at bind time) must cost
        # at most 5% wall clock over the identical plain campaign —
        # durability is supposed to be noise, not a tax.
        ceilings.append(("checkpoint_overhead", 1.05, "journal append per shard"))
    return ceilings


def fail(message):
    print(f"FAIL: {message}")
    return 1


def check_report(path, baselines_dir, max_regression):
    errors = 0
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        return fail(f"{path}: unreadable or invalid JSON: {error}")

    if not isinstance(report, dict):
        return fail(f"{path}: expected a JSON object")

    name = report.get("bench")
    if not isinstance(name, str) or not name:
        errors += fail(f"{path}: missing/empty 'bench' name")
        name = path.stem.removeprefix("BENCH_")

    for key, value in report.items():
        if key == "bench":
            continue
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            errors += fail(f"{path}: metric '{key}' is not a finite number: {value!r}")

    if report.get("pass") != 1:
        errors += fail(f"{path}: 'pass' != 1 (bench-internal assertions failed)")

    required = SHAPE_KEYS + REQUIRED_KEYS.get(name, []) if name in REQUIRED_KEYS \
        else []
    for key in required:
        if key not in report:
            errors += fail(f"{path}: required metric '{key}' missing")

    for key, floor, reason in conditional_gates(name, report):
        value = report.get(key)
        if not isinstance(value, (int, float)) or value < floor:
            errors += fail(
                f"{path}: conditional gate on '{key}': {value} < {floor} ({reason})"
            )
        else:
            print(f"ok:   {name}.{key} = {value:.2f} (floor {floor}, {reason})")

    for key, ceiling, reason in conditional_ceilings(name, report):
        value = report.get(key)
        if not isinstance(value, (int, float)) or value > ceiling:
            errors += fail(
                f"{path}: conditional ceiling on '{key}': {value} > {ceiling} ({reason})"
            )
        else:
            print(f"ok:   {name}.{key} = {value:.2f} (ceiling {ceiling}, {reason})")

    baseline_path = baselines_dir / f"BENCH_{name}.json"
    gated = GATED_KEYS.get(name, [])
    if gated and baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
        for key in gated:
            if key not in baseline:
                continue
            floor = baseline[key] * (1.0 - max_regression)
            value = report.get(key)
            if not isinstance(value, (int, float)) or value < floor:
                errors += fail(
                    f"{path}: perf regression on '{key}': {value} < {floor:.3f} "
                    f"(baseline {baseline[key]} - {max_regression:.0%})"
                )
            else:
                print(f"ok:   {name}.{key} = {value:.2f} (floor {floor:.2f})")
    elif gated:
        errors += fail(f"{path}: no baseline at {baseline_path} for gated bench '{name}'")

    if errors == 0:
        print(f"ok:   {path} ({len(report) - 1} metrics, pass=1)")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+", type=pathlib.Path)
    parser.add_argument("--baselines", type=pathlib.Path,
                        default=pathlib.Path("bench/baselines"))
    parser.add_argument("--max-regression", type=float, default=0.20)
    args = parser.parse_args()

    errors = 0
    for path in args.files:
        errors += check_report(path, args.baselines, args.max_regression)
    if errors:
        print(f"\n{errors} problem(s) found")
        return 1
    print(f"\nall {len(args.files)} bench report(s) valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
