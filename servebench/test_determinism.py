#!/usr/bin/env python3
"""The benchmark's own determinism test.

    python3 servebench/test_determinism.py [--seconds S] [workload ...]

For each workload, two traced runs with the same seed must report the same
work counts: the sampled share of selections, the mean scope size of the
sampled ones, quality-gate checks, stream refits, cache hits plus coalesced
requests, and the probe set's Eq. 3 quality. A run with another seed must
change at least one of them. Runs use short timed phases (--seconds,
default 4): the counts cover the open loop, whose request count is fixed by
rate x time, and the serial probes.

Most counts are fixed by construction on one workload or the other. On
explore every select is sampled, the gate checks every 32nd display, and
nothing refits or is reused; on focus nothing is sampled and the ingest is
the same in every run. So the other-seed check asks for a change in one
work count that depends on the seed: the mean sampled scope size on
explore, the reused requests on focus.
Exits 0 when every workload passes.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
COUNTS = ("core.sampled_frac", "core.scope_rows_per_sampled",
          "core.quality_checks", "stream.refits", "service.reused_requests",
          "metrics.probe_quality")
SEED_DEPENDENT = {"explore": "core.scope_rows_per_sampled",
                  "focus": "service.reused_requests"}


def traced_counts(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "1"],
        check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    return {k: result["metrics"][k]["value"] for k in COUNTS}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("workloads", nargs="*",
                        default=["explore", "focus"])
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        first = traced_counts(workload, 5, args.seconds)
        again = traced_counts(workload, 5, args.seconds)
        other = traced_counts(workload, 6, args.seconds)
        same = first == again
        key = SEED_DEPENDENT[workload]
        differs = first[key] != other[key]
        print(f"{workload}: seed 5 {first}")
        print(f"{workload}: seed 5 again {'identical' if same else again}")
        print(f"{workload}: seed 6 {other}")
        if not (same and differs):
            print(f"FAIL {workload}: same-seed identical={same}, "
                  f"{key} differs={differs}")
            ok = False
    print("determinism: " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
