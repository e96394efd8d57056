#!/usr/bin/env python3
"""Stage timers cover a serve run, and the self trace agrees with them
(ctest `serve_stage_coverage`).

Runs the built `traceweaver` binary (path in argv[1]) on a
completion-sorted `simulate hotel 300 6 7` stream with

    serve --threads=1 --store-dir --checkpoint-dir --self-trace
          --report-json

and checks three things:

* coverage: the summed `tw_stage_wall_ns_total` (the run report's stage
  rows) is between 0.95 and 1.0 of the process wall time measured here.
  Stage time is exclusive, so at one thread the stages cannot add up to
  more than the run; every layer of the serve loop is a stage, so they
  must not add up to much less;
* the report's `stage_total.coverage` divides by the serve loop's wall
  time on a serve run and by the reconstruction wall time on a
  `reconstruct` run;
* agreement: each stage's `_tw.pipeline` children, summed over all self
  traces, equal its report row. Only the time recorded after the last
  self trace is missing: the final seal and checkpoint, and the commit of
  that self trace itself.
"""

import json
import os
import subprocess
import sys
import tempfile
import time

PARSE_REPORT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "tools", "parse_report.py")
# Recorded after the last self trace: its own store commit (well under a
# millisecond) is the only commit time no self trace carries.
COMMIT_TAIL_NS = 50 * 1000 * 1000
# Recorded only after the last self trace.
TAIL_STAGES = {"commit", "checkpoint"}


def run(binary, args, cwd, stdout=subprocess.PIPE):
    proc = subprocess.run([binary] + args, cwd=cwd, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s exited %d: %s" %
                           (" ".join(args), proc.returncode, proc.stderr))
    return proc


def write(binary, args, cwd, name):
    with open(os.path.join(cwd, name), "w") as out:
        run(binary, args, cwd, stdout=out)


def stage_rows(report):
    return {row["stage"]: row["wall_ns"] for row in report["stages"]}


def check_coverage(report, process_wall_ns, problems):
    rows = stage_rows(report)
    total = sum(rows.values())
    share = total / process_wall_ns
    print("stages %.3f s of a %.3f s process: %.3f" %
          (total / 1e9, process_wall_ns / 1e9, share))
    if not 0.95 <= share <= 1.0:
        problems.append("stage walls cover %.3f of the process wall time, "
                        "want [0.95, 1.0]" % share)
    loop = report["run"]["loop_wall_ns"]
    if not 0 < loop <= process_wall_ns:
        problems.append("serve loop wall %d ns outside (0, %d]" %
                        (loop, process_wall_ns))
    elif abs(report["stage_total"]["coverage"] - total / loop) > 1e-5:
        problems.append("serve coverage %.6f is not stage wall / loop wall "
                        "%.6f" % (report["stage_total"]["coverage"],
                                  total / loop))


def check_agreement(report, self_traces, problems):
    rows = stage_rows(report)
    children = {stage: 0 for stage in rows}
    for trace in self_traces:
        for span in trace["spans"][1:]:
            stage = span["callee"][len("_tw."):]
            children[stage] += span["client_recv"] - span["client_send"]
    for stage, registry_ns in rows.items():
        missing = registry_ns - children[stage]
        if stage == "commit":
            ok = 0 <= missing <= COMMIT_TAIL_NS
        elif stage in TAIL_STAGES:
            ok = missing >= 0
        else:
            ok = missing == 0
        if not ok:
            problems.append("stage %s: self traces carry %d ns, the "
                            "registry %d ns" %
                            (stage, children[stage], registry_ns))


def check_reconstruct_coverage(binary, cwd, problems):
    write(binary, ["simulate", "hotel", "100", "1", "3"], cwd, "small.jsonl")
    run(binary, ["reconstruct", "--threads=1", "--report-json=rr.json",
                 "g.txt", "small.jsonl"], cwd)
    with open(os.path.join(cwd, "rr.json")) as f:
        report = json.load(f)
    total = sum(stage_rows(report).values())
    run_wall = report["run"]["wall_ns"]
    if report["run"]["loop_wall_ns"] != 0:
        problems.append("reconstruct run reports a serve loop")
    if abs(report["stage_total"]["coverage"] - total / run_wall) > 1e-5:
        problems.append("reconstruct coverage %.6f is not stage wall / "
                        "run wall %.6f" %
                        (report["stage_total"]["coverage"], total / run_wall))


def main():
    binary = os.path.abspath(sys.argv[1])
    problems = []
    with tempfile.TemporaryDirectory() as cwd:
        write(binary, ["simulate", "hotel", "300", "6", "7"], cwd,
              "spans.jsonl")
        write(binary, ["replay", "hotel"], cwd, "replay.jsonl")
        write(binary, ["infer-graph", "replay.jsonl"], cwd, "g.txt")
        write(binary, ["sort-spans", "spans.jsonl"], cwd, "sorted.jsonl")

        begin = time.monotonic_ns()
        run(binary, ["serve", "--threads=1", "--store-dir=store",
                     "--checkpoint-dir=ckpt", "--self-trace",
                     "--report-json=report.json", "g.txt", "sorted.jsonl"],
            cwd, stdout=subprocess.DEVNULL)
        process_wall_ns = time.monotonic_ns() - begin

        parsed = subprocess.run([sys.executable, PARSE_REPORT,
                                 os.path.join(cwd, "report.json")],
                                capture_output=True, text=True)
        if parsed.returncode != 0:
            problems.append("parse_report rejects the report: %s" %
                            parsed.stderr.strip())
        with open(os.path.join(cwd, "report.json")) as f:
            report = json.load(f)
        listed = run(binary, ["query", "--full", "--service=_tw.pipeline",
                              "store"], cwd).stdout
        self_traces = [json.loads(line) for line in listed.splitlines()]
        if not self_traces:
            problems.append("no _tw.pipeline self traces in the store")

        check_coverage(report, process_wall_ns, problems)
        check_agreement(report, self_traces, problems)
        check_reconstruct_coverage(binary, cwd, problems)

    for problem in problems:
        print("FAIL %s" % problem, file=sys.stderr)
    if problems:
        return 1
    print("serve_stage_coverage: %d self traces agree with the registry" %
          len(self_traces))
    return 0


if __name__ == "__main__":
    sys.exit(main())
