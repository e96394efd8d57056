#!/usr/bin/env python3
"""Pool workers' CPU lands in the stage that dispatched it
(ctest `stage_cpu_threads`).

Runs the built `traceweaver` binary (path in argv[1]) as

    reconstruct --threads=N --report-json

on a `simulate media 600 6` stream at N = 1 and N = 4, three times each,
interleaved. The work is the same at any thread count (the output is
bit-identical), so each of the `rank`, `solve` and `refit` CPU rows,
summed over the three runs, must be at least 0.9 of its one-thread
value: at four threads the pool workers run most of those stages' work
items, and CPU a worker spends on them that no stage counted would show
up here as a shortfall. Summing three interleaved runs keeps host noise
(10-20% run to run) from deciding the outcome.
"""

import json
import os
import subprocess
import sys
import tempfile

STAGES = ("rank", "solve", "refit")
RUNS = 3
MIN_RATIO = 0.9


def run(binary, args, cwd, stdout):
    proc = subprocess.run([binary] + args, cwd=cwd, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d: %s" %
                           (" ".join(args), proc.returncode, proc.stderr))


def write(binary, args, cwd, name):
    with open(os.path.join(cwd, name), "w") as out:
        run(binary, args, cwd, out)


def stage_cpu(binary, cwd, threads):
    report = os.path.join(cwd, "report.json")
    with open(os.path.join(cwd, "out-%d.jsonl" % threads), "w") as out:
        run(binary, ["reconstruct", "--threads=%d" % threads,
                     "--report-json=" + report, "graph.txt", "spans.jsonl"],
            cwd, out)
    with open(report) as f:
        rows = json.load(f)["stages"]
    return {row["stage"]: row["cpu_ns"] for row in rows}


def main():
    binary = os.path.abspath(sys.argv[1])
    with tempfile.TemporaryDirectory() as cwd:
        write(binary, ["simulate", "media", "600", "6"], cwd, "spans.jsonl")
        write(binary, ["replay", "media"], cwd, "replay.jsonl")
        write(binary, ["infer-graph", "replay.jsonl"], cwd, "graph.txt")
        totals = {1: dict.fromkeys(STAGES, 0), 4: dict.fromkeys(STAGES, 0)}
        for _ in range(RUNS):
            for threads in (1, 4):
                cpu = stage_cpu(binary, cwd, threads)
                for stage in STAGES:
                    totals[threads][stage] += cpu[stage]
        with open(os.path.join(cwd, "out-1.jsonl")) as a, \
                open(os.path.join(cwd, "out-4.jsonl")) as b:
            if a.read() != b.read():
                print("FAIL: --threads=4 output differs from --threads=1")
                return 1
    problems = []
    for stage in STAGES:
        one, four = totals[1][stage], totals[4][stage]
        ratio = four / one if one else 0.0
        print("%-6s cpu: %8.1f ms at 1 thread, %8.1f ms at 4: %.3f" %
              (stage, one / 1e6 / RUNS, four / 1e6 / RUNS, ratio))
        if ratio < MIN_RATIO:
            problems.append("%s cpu at 4 threads is %.3f of 1 thread, want "
                            ">= %.1f" % (stage, ratio, MIN_RATIO))
    for p in problems:
        print("FAIL: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
