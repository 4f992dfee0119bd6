#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the engine and the perfbench
benchmark program from source with CMake (into $CARGO_TARGET_DIR, default
.bench_build, relative to the checkout root), then runs one workload and
forwards its output. The last line of standard output is the JSON result;
build logs go to standard error. Traced runs also write the kept spans to
<build dir>/perfbench/traces/<workload>-seed<n>.tsv.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("mf-dsgd", "kge-relocate", "zipf-serve")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True,
                           timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.SubprocessError) as e:
            fail(f"build step {' '.join(cmd)} failed: {e}")
    binary = build_dir / "perfbench"
    if not binary.exists():
        fail(f"build produced no {binary}")
    return binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    for needed in ("src/ps/system.h", "bench/bench_common.cc"):
        if not (root / needed).is_file():
            fail(f"{needed} is missing: run from a full checkout of the repo")

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    build_dir = target / "perfbench"
    binary = build(root, build_dir)

    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", f"{args.seconds:g}", "--trace",
           args.trace]
    if args.trace == "1":
        traces = build_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.tsv")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=root)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    sys.exit(code)


if __name__ == "__main__":
    main()
