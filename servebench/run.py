#!/usr/bin/env python3
"""Builds and runs the serving-engine benchmark.

    python3 servebench/run.py --workload explore|focus \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
library from the checkout's sources plus the benchmark binary (CMake +
Ninja, Release) under .bench_build/servebench; later runs only re-check the
build. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. Scratch files (model directories, span dumps) live
in a per-run directory under the build directory and are removed on exit,
except the span dump, which is kept as .bench_build/servebench/spans-*.jsonl.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "servebench"
WORKLOADS = ("explore", "focus")


def build() -> Path:
    binary = BUILD / "servebench"
    if not (BUILD / "build.ninja").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "4"],
                   check=True, stdout=sys.stderr)
    return binary


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"servebench: build failed: {err}", file=sys.stderr)
        return 1

    workdir = BUILD / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        result = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace), "--workdir", str(workdir)],
            timeout=170)
        for spans in workdir.glob("spans-*.jsonl"):
            shutil.move(str(spans), str(BUILD / spans.name))
    except subprocess.TimeoutExpired:
        print("servebench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
