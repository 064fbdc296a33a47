#!/usr/bin/env python3
"""Schema check for the serving bench's JSON output (CI `stress` job).

The serving bench (bench/bench_serving_throughput.cc) writes
BENCH_serving.json with a `records` list; downstream consumers (the perf
trajectory charts and the observability artifacts) depend on two records
existing with stable keys:

  * `trace_summary`  — per-stage p50/p95 from the request traces plus the
    sink's retention counters (span coverage, containment-hit traces,
    pinned exemplars),
  * `tracing_overhead` — traced vs untraced throughput on the cold staged
    path (median and IQR over interleaved off/on pairs),
  * `selection_sampling` — sampled vs exact select-stage p95 on a >= 10k
    row scope, the measured speedup, and the combined coverage+diversity
    quality ratio with its check/fallback counts,
  * `scan_pruning` — zone-map pruned vs full scan p95 under narrowing
    drill-down chains, the mean pruned-chunk fraction, and the
    dictionary-code conjunct count (bit_identical pins the equivalence
    assertion the bench ran).

This script fails CI when any record is missing or dropped a key, so a
refactor of the bench cannot silently stop exporting the trace summary
(docs/OBSERVABILITY.md documents the schema).

It also validates the sibling artifacts when asked:

  * --metrics METRICS_serving.json — the registry dump must carry the
    counters/gauges/histograms sections with the core pipeline instruments
    (the same names /metrics exposes in Prometheus form),
  * --trajectory bench/history/BENCH_trajectory.jsonl — every line is a
    JSON object with sha/timestamp, and timestamps are monotonically
    non-decreasing (an out-of-order append corrupts the regression
    baseline of scripts/check_bench_regression.py),
  * --scale BENCH_scale.json — the workload-forge scaling curves
    (bench/bench_scale.cc): a `generator_scaling` record proving O(rows)
    generation, at least three `scale_sweep` points per curve (rps,
    latency percentiles, shed fraction, per-stage attribution), and a
    `scale_knee` record per (rows, threads) group with the open-loop knee
    demonstrated. When --scale is given without an explicit serving-bench
    positional, only the scale file (plus any other requested artifacts)
    is checked — the scale-smoke CI job runs bench_scale alone.

Usage: scripts/check_bench_schema.py [BENCH_serving.json]
                                     [--metrics PATH] [--trajectory PATH]
                                     [--scale PATH]
Exit code 0 = schema intact, 1 = a record or key is missing.
Standard library only.
"""

import argparse
import json
import os
import sys

REQUIRED_KEYS = {
    "trace_summary": [
        "staged_traces",
        "containment_hit_traces",
        "span_coverage",
        "queue_scan_p50_ms",
        "queue_scan_p95_ms",
        "scan_p50_ms",
        "scan_p95_ms",
        "select_p50_ms",
        "select_p95_ms",
        "traces_committed",
        "exemplars_pinned",
        "exemplar_threshold_ms",
    ],
    "tracing_overhead": [
        "rps_traced",
        "rps_untraced",
        "overhead",
        "overhead_iqr",
    ],
    "selection_sampling": [
        "scope_rows",
        "sample_rows",
        "sampled_select_p95_ms",
        "exact_select_p95_ms",
        "speedup",
        "quality_ratio",
        "worst_quality_ratio",
        "quality_checks",
        "quality_fallbacks",
    ],
    "scan_pruning": [
        "table_rows",
        "chunks",
        "queries",
        "pruned_chunk_fraction",
        "scan_p95_pruned_ms",
        "scan_p95_full_ms",
        "speedup",
        "code_eval_predicates",
        "bit_identical",
    ],
}


# The registry instruments the serving engine registers at construction;
# METRICS_serving.json (and the Prometheus /metrics endpoint rendering the
# same registry) must never silently lose them.
REQUIRED_METRICS = {
    "counters": [
        "engine.requests.submitted",
        "engine.requests.completed",
        "pipeline.shed.global_queue",
        "pipeline.shed.tenant",
        "scan.chunks_pruned",
        "scan.code_eval_predicates",
    ],
    "gauges": [
        "engine.queue_depth",
        "pipeline.worker_utilization",
    ],
    "histograms": [
        "pipeline.latency",
    ],
}


# BENCH_scale.json record schemas (bench/bench_scale.cc).
SCALE_SWEEP_KEYS = [
    "rows",
    "threads",
    "tenants",
    "arrival",
    "rate_rps",
    "fired",
    "duration_s",
    "rps",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "shed_fraction",
    "queue_scan_p95_ms",
    "scan_p95_ms",
    "select_p95_ms",
    "max_lag_ms",
]

SCALE_GENERATOR_KEYS = [
    "rows_small",
    "rows_large",
    "ns_per_row_small",
    "ns_per_row_large",
    "per_row_ratio",
    "flat",
]

SCALE_KNEE_KEYS = [
    "rows",
    "threads",
    "low_rate_rps",
    "top_rate_rps",
    "low_shed_fraction",
    "top_shed_fraction",
    "admitted_p95_ms",
    "p95_bound_ms",
    "knee_demonstrated",
]


def check_scale(path: str) -> int:
    """Validates the BENCH_scale.json scaling curves. Returns #failures."""
    if not os.path.exists(path):
        print(f"check_bench_schema: {path} not found", file=sys.stderr)
        return 1
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    records = data.get("records")
    if not isinstance(records, list):
        print(f"check_bench_schema: {path} has no `records` list",
              file=sys.stderr)
        return 1

    failures = 0
    sweeps = [r for r in records if r.get("bench") == "scale_sweep"]
    generators = [r for r in records if r.get("bench") == "generator_scaling"]
    knees = [r for r in records if r.get("bench") == "scale_knee"]

    if len(sweeps) < 3:
        print(f"check_bench_schema: {path} has {len(sweeps)} scale_sweep "
              "record(s); the sweep must cover >= 3 rate points",
              file=sys.stderr)
        failures += 1
    if not generators:
        print(f"check_bench_schema: {path} lost the generator_scaling record",
              file=sys.stderr)
        failures += 1
    if not knees:
        print(f"check_bench_schema: {path} lost the scale_knee record(s)",
              file=sys.stderr)
        failures += 1

    for name, keys, group in (("scale_sweep", SCALE_SWEEP_KEYS, sweeps),
                              ("generator_scaling", SCALE_GENERATOR_KEYS,
                               generators),
                              ("scale_knee", SCALE_KNEE_KEYS, knees)):
        for record in group:
            missing = [key for key in keys if key not in record]
            if missing:
                print(f"check_bench_schema: a `{name}` record lost keys: "
                      f"{', '.join(missing)}", file=sys.stderr)
                failures += 1
                break

    for record in sweeps:
        shed = record.get("shed_fraction")
        if not (isinstance(shed, (int, float)) and 0.0 <= shed <= 1.0):
            print(f"check_bench_schema: shed_fraction {shed!r} is not a "
                  "ratio in [0, 1]", file=sys.stderr)
            failures += 1
    for record in knees:
        if not record.get("knee_demonstrated"):
            print("check_bench_schema: a scale_knee record reports the knee "
                  "NOT demonstrated — shed did not rise past saturation or "
                  "admitted p95 broke its queue bound", file=sys.stderr)
            failures += 1

    if failures == 0:
        print(f"check_bench_schema: OK — {path} carries "
              f"{len(sweeps)} sweep point(s), generator scaling, and "
              f"{len(knees)} demonstrated knee(s)")
    return failures


def check_metrics(path: str) -> int:
    """Validates the METRICS_serving.json registry dump. Returns #failures."""
    if not os.path.exists(path):
        print(f"check_bench_schema: {path} not found", file=sys.stderr)
        return 1
    with open(path, encoding="utf-8") as handle:
        metrics = json.load(handle)
    failures = 0
    for section, names in REQUIRED_METRICS.items():
        table = metrics.get(section)
        if not isinstance(table, dict):
            print(f"check_bench_schema: {path} has no `{section}` section",
                  file=sys.stderr)
            failures += 1
            continue
        missing = [name for name in names if name not in table]
        if missing:
            print(f"check_bench_schema: {path} {section} lost: "
                  f"{', '.join(missing)}", file=sys.stderr)
            failures += 1
    histograms = metrics.get("histograms", {})
    latency = histograms.get("pipeline.latency")
    if isinstance(latency, dict) and latency.get("count", 0) <= 0:
        print("check_bench_schema: pipeline.latency recorded no samples — "
              "the bench served nothing", file=sys.stderr)
        failures += 1
    if failures == 0:
        print(f"check_bench_schema: OK — {path} carries the pipeline "
              "instrument catalog")
    return failures


def check_trajectory(path: str) -> int:
    """Validates the bench-history JSONL. Returns #failures."""
    if not os.path.exists(path):
        print(f"check_bench_schema: {path} not found", file=sys.stderr)
        return 1
    failures = 0
    previous_ts = ""
    rows = 0
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            rows += 1
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                print(f"check_bench_schema: {path}:{line_no}: bad JSON "
                      f"({err})", file=sys.stderr)
                failures += 1
                continue
            missing = [key for key in ("sha", "timestamp")
                       if key not in record]
            if missing:
                print(f"check_bench_schema: {path}:{line_no}: missing "
                      f"{', '.join(missing)}", file=sys.stderr)
                failures += 1
                continue
            ts = record["timestamp"]
            # ISO-8601 UTC stamps compare correctly as strings.
            if previous_ts and ts < previous_ts:
                print(f"check_bench_schema: {path}:{line_no}: timestamp "
                      f"{ts} precedes {previous_ts} — history must be "
                      "append-only", file=sys.stderr)
                failures += 1
            previous_ts = ts
    if rows == 0:
        print(f"check_bench_schema: {path} is empty", file=sys.stderr)
        failures += 1
    if failures == 0:
        print(f"check_bench_schema: OK — {path} holds {rows} record(s), "
              "timestamps monotonic")
    return failures


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench", nargs="?", default=None)
    parser.add_argument("--metrics", default=None,
                        help="also validate a METRICS_serving.json dump")
    parser.add_argument("--trajectory", default=None,
                        help="also validate a BENCH_trajectory.jsonl history")
    parser.add_argument("--scale", default=None,
                        help="also validate a BENCH_scale.json scaling sweep")
    args = parser.parse_args(argv[1:])

    extra_failures = 0
    if args.metrics is not None:
        extra_failures += check_metrics(args.metrics)
    if args.trajectory is not None:
        extra_failures += check_trajectory(args.trajectory)
    if args.scale is not None:
        extra_failures += check_scale(args.scale)
        if args.bench is None:
            # Scale-only invocation (the scale-smoke job has no serving
            # artifact to validate).
            return 1 if extra_failures else 0

    path = args.bench if args.bench is not None else "BENCH_serving.json"
    if not os.path.exists(path):
        print(f"check_bench_schema: {path} not found", file=sys.stderr)
        return 1
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)

    records = data.get("records")
    if not isinstance(records, list):
        print(f"check_bench_schema: {path} has no `records` list",
              file=sys.stderr)
        return 1

    by_name = {}
    for record in records:
        if isinstance(record, dict) and "bench" in record:
            by_name.setdefault(record["bench"], record)

    failures = 0
    for name, keys in REQUIRED_KEYS.items():
        record = by_name.get(name)
        if record is None:
            print(f"check_bench_schema: record `{name}` missing from {path}",
                  file=sys.stderr)
            failures += 1
            continue
        missing = [key for key in keys if key not in record]
        if missing:
            print(f"check_bench_schema: record `{name}` lost keys: "
                  f"{', '.join(missing)}", file=sys.stderr)
            failures += 1

    # Cheap sanity on top of presence: coverage is a ratio and the summary
    # must describe at least one staged trace, or the artifact is hollow.
    summary = by_name.get("trace_summary")
    if summary is not None and "span_coverage" in summary:
        coverage = summary["span_coverage"]
        if not (isinstance(coverage, (int, float)) and 0.0 <= coverage <= 1.0):
            print(f"check_bench_schema: span_coverage {coverage!r} is not a "
                  "ratio in [0, 1]", file=sys.stderr)
            failures += 1
    if summary is not None and summary.get("staged_traces", 0) <= 0:
        print("check_bench_schema: trace_summary.staged_traces is not "
              "positive — the bench retained no staged traces",
              file=sys.stderr)
        failures += 1

    if failures or extra_failures:
        return 1
    print(f"check_bench_schema: OK — {path} carries "
          f"{', '.join(REQUIRED_KEYS)} with all required keys")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
