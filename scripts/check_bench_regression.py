#!/usr/bin/env python3
"""Fail CI when the newest trajectory record regresses vs its history.

Reads bench/history/BENCH_trajectory.jsonl (written per run by
scripts/bench_history.py), takes the NEWEST record, and compares each
tracked metric against the rolling median of up to --window prior records.
The median — not the immediately preceding run — is the baseline, so one
noisy run can neither mask a real regression nor manufacture a fake one.

A metric regresses when it moves beyond --tolerance in its bad direction:

  higher-is-better  (rps, containment_hit_rate, sample_quality_ratio,
                     pruned_chunk_fraction):
      value < median * (1 - tolerance)
  lower-is-better   (stage latencies incl. sampled_select_p95_ms and
                     pruned_scan_p95_ms, shed_rate, tracing_overhead):
      value > median * (1 + tolerance) + slack
      (slack absorbs ~0 baselines where any jitter is an infinite ratio)

Exit 1 on any regression, 0 otherwise. With --quick (the CI quick-bench
path, where absolute numbers are noisy) regressions only WARN. Fewer than
2 records is a pass — there is no history to regress against yet.

Usage:
  scripts/check_bench_regression.py [--history PATH] [--window N]
                                    [--tolerance F] [--quick]

Standard library only.
"""

import argparse
import json
import statistics
import sys

HIGHER_IS_BETTER = ["rps", "containment_hit_rate", "sample_quality_ratio",
                    "pruned_chunk_fraction",
                    # Workload-forge sweep (bench_scale, its own history
                    # file): best served throughput across the rate points.
                    "scale_rps"]
LOWER_IS_BETTER = [
    "queue_scan_p95_ms",
    "scan_p50_ms",
    "scan_p95_ms",
    "select_p50_ms",
    "select_p95_ms",
    "shed_rate",
    "tracing_overhead",
    "sampled_select_p95_ms",
    "pruned_scan_p95_ms",
    # Workload-forge sweep: admitted p95 at the past-saturation rate
    # (bounded-queue health) and per-row generation cost (O(rows) drift).
    "scale_p95_ms",
    "generator_ns_per_row",
]
# Below this absolute baseline a lower-is-better ratio is meaningless
# (e.g. a 0.02ms queue p95 doubling to 0.04ms); the slack is added to the
# allowed ceiling instead of failing on noise.
ABSOLUTE_SLACK = {
    "shed_rate": 0.05,
    "tracing_overhead": 0.02,
    # Bucketed percentiles at the knee move in ~2x histogram steps; absorb
    # one bucket of jitter.
    "scale_p95_ms": 100.0,
    # ns/row on shared runners jitters with memory bandwidth.
    "generator_ns_per_row": 100.0,
}
DEFAULT_SLACK_MS = 0.05


def load_history(path: str) -> list[dict]:
    records = []
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as err:
                    print(f"check_bench_regression: {path}:{line_no}: "
                          f"bad JSON ({err})", file=sys.stderr)
    except FileNotFoundError:
        pass
    return records


def check(records: list[dict], window: int, tolerance: float) -> list[str]:
    current = records[-1]
    prior = records[:-1][-window:]
    failures = []
    for metric in HIGHER_IS_BETTER + LOWER_IS_BETTER:
        value = current.get(metric)
        baseline = [r[metric] for r in prior
                    if isinstance(r.get(metric), (int, float))]
        if not isinstance(value, (int, float)) or not baseline:
            continue
        median = statistics.median(baseline)
        if metric in HIGHER_IS_BETTER:
            floor = median * (1.0 - tolerance)
            if value < floor:
                failures.append(
                    f"{metric}: {value:.6g} fell below {floor:.6g} "
                    f"(median of {len(baseline)} runs: {median:.6g}, "
                    f"tolerance {tolerance:.0%})")
        else:
            slack = ABSOLUTE_SLACK.get(metric, DEFAULT_SLACK_MS)
            ceiling = median * (1.0 + tolerance) + slack
            if value > ceiling:
                failures.append(
                    f"{metric}: {value:.6g} rose above {ceiling:.6g} "
                    f"(median of {len(baseline)} runs: {median:.6g}, "
                    f"tolerance {tolerance:.0%} + slack {slack:g})")
    return failures


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--history",
                        default="bench/history/BENCH_trajectory.jsonl")
    parser.add_argument("--window", type=int, default=5,
                        help="prior records in the rolling median")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed relative move in the bad direction")
    parser.add_argument("--quick", action="store_true",
                        help="warn instead of failing (noisy quick benches)")
    args = parser.parse_args(argv[1:])

    records = load_history(args.history)
    if len(records) < 2:
        print(f"check_bench_regression: OK — {len(records)} record(s) in "
              f"{args.history}, nothing to compare yet")
        return 0

    failures = check(records, args.window, args.tolerance)
    tail = records[-1]
    label = f"{tail.get('sha', '?')} @ {tail.get('timestamp', '?')}"
    if not failures:
        print(f"check_bench_regression: OK — {label} within tolerance of "
              f"the prior {min(len(records) - 1, args.window)}-run median")
        return 0
    for failure in failures:
        print(f"check_bench_regression: {label}: {failure}", file=sys.stderr)
    if args.quick:
        print("check_bench_regression: WARN only (--quick): quick-bench "
              "numbers are noisy, not failing the job", file=sys.stderr)
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
