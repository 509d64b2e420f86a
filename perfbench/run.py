#!/usr/bin/env python3
"""procsim's wall-clock benchmark.

Builds the library and the benchmark binary from source
(perfbench/CMakeLists.txt), runs one workload, prints every metric by name
with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  Run from the repository root:

    python3 perfbench/run.py --workload read_recompute --seed 1 \
        --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; a traced run also writes its spans there as Chrome trace
JSON.  Exits non-zero, without a result line, when the build or the run
fails, and with a result line whose "correct" is false when an answer
check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("read_recompute", "update_maintain", "engine_sessions")
# The benchmark binary must exit within this long once built.
RUN_TIMEOUT_S = 170


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (target if target.is_absolute() else ROOT / target) / "perfbench"


def build():
    """Builds the benchmark binary; returns its path or exits 1."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: procsim sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(out), "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")
    return out / "perfbench"


def run_binary(binary, args, extra=()):
    """Runs the benchmark binary; returns (exit code, final JSON or None)."""
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), *extra]
    if args.trace:
        command += ["--trace-out", str(
            build_dir() / f"trace_{args.workload}_{args.seed}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, check=False,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} did not finish in "
                 f"{RUN_TIMEOUT_S} s")
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if not lines:
        return done.returncode, None
    try:
        return done.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        return done.returncode, None


def print_report(report, wanted):
    machine = report["machine"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"trace {report['trace']}  nproc {machine['nproc']}  "
          f"{machine['compiler']}  {machine['build_type']}")
    print("samples  " + "  ".join(f"{name}={n}" for name, n
                                  in report["samples"].items()))
    print(f"ops attempted {report['attempted']}  failed {report['failed']}  "
          f"failed_op_ratio {report['metrics']['failed_op_ratio']['value']}")
    for error in report["errors"]:
        print(f"error: {error}")
    for name in wanted:
        metric = report["metrics"][name]
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in
              spec["per_layer" if args.trace else "end_to_end"]]

    binary = build()
    started = time.monotonic()
    code, report = run_binary(binary, args)
    if report is None:
        sys.exit(f"perfbench: {args.workload} produced no result "
                 f"(exit code {code})")
    missing = [name for name in wanted if name not in report["metrics"]]
    if missing:
        sys.exit(f"perfbench: the binary did not report {missing}")
    print_report(report, wanted)
    print(f"run took {time.monotonic() - started:.1f} s")
    correct = bool(report["correct"]) and code == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": report["metrics"][name]["value"],
                           "unit": report["metrics"][name]["unit"]}
                    for name in wanted},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
