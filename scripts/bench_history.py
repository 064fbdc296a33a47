#!/usr/bin/env python3
"""Append one trajectory record per bench run to BENCH_trajectory.jsonl.

The serving bench (bench/bench_serving_throughput.cc) emits a point-in-time
artifact (BENCH_serving.json + METRICS_serving.json); this script folds the
run's headline numbers into an append-only history file so perf moves
ACROSS commits, not just within one run, are visible and checkable
(scripts/check_bench_regression.py compares the newest record against the
rolling median of its predecessors).

One JSONL record per run, keyed by git SHA + UTC timestamp:

  sha, timestamp, quick          — provenance
  rps                            — best serving_throughput phase (req/s)
  scan_p50_ms .. select_p95_ms   — per-stage latency from trace_summary
  shed_rate                      — overload phase shed fraction
  containment_hit_rate           — drill-down phase with reuse ON
  tracing_overhead               — traced vs untraced throughput delta
  sampled_select_p95_ms          — sampled select-stage p95 (>= 10k scope)
  sample_quality_ratio           — mean sampled/exact combined-score ratio
  pruned_chunk_fraction          — mean zone-map pruned fraction (scan bench)
  pruned_scan_p95_ms             — pruned-scan p95 over the drill-down chains
  engine_requests_submitted      — scale witness from METRICS_serving.json

With --scale BENCH_scale.json (the workload-forge sweep, bench/bench_scale.cc;
typically written to its own history file via --out), the record instead
folds the scaling-curve headliners:

  scale_rps                      — best served throughput across sweep points
  scale_p95_ms                   — admitted p95 at the top (past-saturation)
    offered rate — bounded-queue health, not raw speed
  scale_shed_fraction            — shed rate at that top rate (the knee)
  generator_ns_per_row           — large-table generation cost (O(rows) gate)

Usage:
  scripts/bench_history.py [--bench BENCH_serving.json]
                           [--metrics METRICS_serving.json]
                           [--scale BENCH_scale.json]
                           [--out bench/history/BENCH_trajectory.jsonl]
                           [--sha SHA]

Standard library only. Exit 0 on append, 1 when the bench artifact is
missing or carries none of the expected records.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

# Stage latencies tracked across runs (all emitted by the trace_summary
# record; check_bench_schema.py guarantees they exist).
STAGE_KEYS = [
    "queue_scan_p50_ms",
    "queue_scan_p95_ms",
    "scan_p50_ms",
    "scan_p95_ms",
    "select_p50_ms",
    "select_p95_ms",
]


def git_sha(explicit: str | None) -> str:
    if explicit:
        return explicit
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def records_by_bench(path: str) -> tuple[dict, bool]:
    """Returns ({bench_name: [records...]}, quick_flag)."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    grouped: dict = {}
    for record in data.get("records", []):
        if isinstance(record, dict) and "bench" in record:
            grouped.setdefault(record["bench"], []).append(record)
    return grouped, bool(data.get("quick", False))


def build_record(bench_path: str, metrics_path: str, sha: str) -> dict | None:
    grouped, quick = records_by_bench(bench_path)
    record: dict = {
        "sha": sha,
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "quick": quick,
    }
    found = 0

    throughput = grouped.get("serving_throughput", [])
    rps = [r.get("rps") for r in throughput
           if isinstance(r.get("rps"), (int, float))]
    if rps:
        record["rps"] = max(rps)
        found += 1

    summary = grouped.get("trace_summary", [])
    if summary:
        for key in STAGE_KEYS:
            value = summary[0].get(key)
            if isinstance(value, (int, float)):
                record[key] = value
        found += 1

    overload = grouped.get("serving_overload", [])
    if overload and isinstance(overload[0].get("shed_rate"), (int, float)):
        record["shed_rate"] = overload[0]["shed_rate"]
        found += 1

    # Two drill-down records (reuse off / on); the trajectory tracks reuse ON.
    for drill in grouped.get("serving_drilldown", []):
        if drill.get("containment") == 1 and \
                isinstance(drill.get("containment_hit_rate"), (int, float)):
            record["containment_hit_rate"] = drill["containment_hit_rate"]
            found += 1
            break

    overhead = grouped.get("tracing_overhead", [])
    if overhead and isinstance(overhead[0].get("overhead"), (int, float)):
        record["tracing_overhead"] = overhead[0]["overhead"]
        found += 1

    sampling = grouped.get("selection_sampling", [])
    if sampling:
        for src, dst in (("sampled_select_p95_ms", "sampled_select_p95_ms"),
                         ("quality_ratio", "sample_quality_ratio")):
            value = sampling[0].get(src)
            if isinstance(value, (int, float)):
                record[dst] = value
        if "sampled_select_p95_ms" in record or \
                "sample_quality_ratio" in record:
            found += 1

    pruning = grouped.get("scan_pruning", [])
    if pruning:
        for src, dst in (("pruned_chunk_fraction", "pruned_chunk_fraction"),
                         ("scan_p95_pruned_ms", "pruned_scan_p95_ms")):
            value = pruning[0].get(src)
            if isinstance(value, (int, float)):
                record[dst] = value
        if "pruned_chunk_fraction" in record or \
                "pruned_scan_p95_ms" in record:
            found += 1

    if os.path.exists(metrics_path):
        with open(metrics_path, encoding="utf-8") as handle:
            metrics = json.load(handle)
        submitted = metrics.get("counters", {}).get(
            "engine.requests.submitted")
        if isinstance(submitted, int):
            record["engine_requests_submitted"] = submitted

    return record if found > 0 else None


def build_scale_record(scale_path: str, sha: str) -> dict | None:
    """Folds a BENCH_scale.json sweep into one trajectory record."""
    grouped, quick = records_by_bench(scale_path)
    record: dict = {
        "sha": sha,
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "quick": quick,
    }
    found = 0

    sweeps = [r for r in grouped.get("scale_sweep", [])
              if isinstance(r.get("rps"), (int, float))]
    if sweeps:
        record["scale_rps"] = max(r["rps"] for r in sweeps)
        # The top offered rate is where bounded-queue behavior shows: track
        # the admitted p95 and shed fraction at that point.
        top = max(sweeps, key=lambda r: r.get("rate_rps", 0.0))
        if isinstance(top.get("p95_ms"), (int, float)):
            record["scale_p95_ms"] = top["p95_ms"]
        if isinstance(top.get("shed_fraction"), (int, float)):
            record["scale_shed_fraction"] = top["shed_fraction"]
        found += 1

    generators = grouped.get("generator_scaling", [])
    if generators and isinstance(generators[0].get("ns_per_row_large"),
                                 (int, float)):
        record["generator_ns_per_row"] = generators[0]["ns_per_row_large"]
        found += 1

    return record if found > 0 else None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", default="BENCH_serving.json")
    parser.add_argument("--metrics", default="METRICS_serving.json")
    parser.add_argument("--scale", default=None,
                        help="fold a BENCH_scale.json sweep instead of the "
                             "serving artifacts")
    parser.add_argument("--out",
                        default="bench/history/BENCH_trajectory.jsonl")
    parser.add_argument("--sha", default=None,
                        help="override `git rev-parse` (e.g. in CI)")
    args = parser.parse_args(argv[1:])

    if args.scale is not None:
        if not os.path.exists(args.scale):
            print(f"bench_history: {args.scale} not found — run bench_scale "
                  "first", file=sys.stderr)
            return 1
        record = build_scale_record(args.scale, git_sha(args.sha))
        if record is None:
            print(f"bench_history: {args.scale} carried no scale_sweep / "
                  "generator_scaling records", file=sys.stderr)
            return 1
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        metric_count = len([k for k in record
                            if k not in ("sha", "timestamp", "quick")])
        print(f"bench_history: appended {record['sha']} @ "
              f"{record['timestamp']} ({metric_count} scale metrics) -> "
              f"{args.out}")
        return 0

    if not os.path.exists(args.bench):
        print(f"bench_history: {args.bench} not found — run the serving "
              "bench first", file=sys.stderr)
        return 1
    record = build_record(args.bench, args.metrics, git_sha(args.sha))
    if record is None:
        print(f"bench_history: {args.bench} carried none of the expected "
              "records (serving_throughput / trace_summary / ...)",
              file=sys.stderr)
        return 1

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    metric_count = len([k for k in record
                        if k not in ("sha", "timestamp", "quick")])
    print(f"bench_history: appended {record['sha']} @ {record['timestamp']} "
          f"({metric_count} metrics) -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
