#!/usr/bin/env python3
"""Determinism test for the benchmark's single-client workloads.

For read_recompute and update_maintain, two runs of the same fixed op
count with one seed must report identical counts: page reads, screens,
Rete tokens, update page I/O and sim_cost_ms_per_query.  A run with
another seed must see a different op stream.  Run from the repository
root:

    python3 perfbench/test_determinism.py
"""

import argparse
import sys

import run

OPS = 3000
SEED = 11
OTHER_SEED = 12
EXACT_COUNTS = ("accesses", "updates", "access_page_reads", "access_screens",
                "update_page_io", "rete.network.tokens_submitted",
                "sim_total_ms")


def measure(binary, workload, seed):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=1,
                              trace=0)
    code, report = run.run_binary(binary, args,
                                  ("--ops", str(OPS)))
    if code != 0 or report is None or not report["correct"]:
        sys.exit(f"FAIL {workload} seed {seed}: run failed (exit {code})")
    return report


def main():
    binary = run.build()
    failures = []
    for workload in ("read_recompute", "update_maintain"):
        first = measure(binary, workload, SEED)
        second = measure(binary, workload, SEED)
        other = measure(binary, workload, OTHER_SEED)
        for name in EXACT_COUNTS:
            if first["counts"][name] != second["counts"][name]:
                failures.append(f"{workload}: {name} "
                                f"{first['counts'][name]} != "
                                f"{second['counts'][name]}")
        cost = [r["metrics"]["sim_cost_ms_per_query"]["value"]
                for r in (first, second)]
        if cost[0] != cost[1]:
            failures.append(f"{workload}: sim_cost_ms_per_query {cost}")
        if first["op_stream_digest"] != second["op_stream_digest"]:
            failures.append(f"{workload}: op stream differs for one seed")
        if first["op_stream_digest"] == other["op_stream_digest"]:
            failures.append(f"{workload}: seeds {SEED} and {OTHER_SEED} "
                            "gave the same op stream")
        print(f"{workload}: counts {first['counts']}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("PASS" if not failures else f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
