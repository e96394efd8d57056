#!/usr/bin/env python3
"""Malformed CLI flags are usage errors (ctest `cli_flags`).

Runs the built `traceweaver` binary (path in argv[1]) with unknown flags
and out-of-range or malformed values. Each run must exit 2, name the
offending flag on stderr, and leave its (empty, temporary) working
directory untouched -- before the fix an unknown flag was read as the
store directory or a trace id, and `query` created a directory named
after it. A well-formed flag must still parse (exit 1 on the missing
input file, not 2).
"""

import os
import subprocess
import sys
import tempfile

# (arguments, text stderr must contain)
MALFORMED = [
    (["query", "--limt=5", "mystore"], "--limt=5"),
    (["query", "--grade=AB", "mystore"], "--grade=AB"),
    (["query", "--grade=Z", "mystore"], "--grade=Z"),
    (["query", "--limit=five", "mystore"], "--limit=five"),
    (["query", "--from=12x", "mystore"], "--from=12x"),
    (["serve", "--tail-sample=1.5", "graph.txt", "spans.jsonl"],
     "--tail-sample=1.5"),
    (["serve", "--window-ms=-5", "graph.txt", "spans.jsonl"],
     "--window-ms=-5"),
    (["serve", "--final=yes", "graph.txt", "spans.jsonl"], "--final=yes"),
    (["serve", "--margin-ms=99999999999999", "graph.txt", "spans.jsonl"],
     "--margin-ms=99999999999999"),
    (["serve", "--http-port=70000", "graph.txt", "spans.jsonl"],
     "--http-port=70000"),
    (["evaluate", "--sampling-rate=0", "graph.txt", "spans.jsonl"],
     "--sampling-rate=0"),
    (["reconstruct", "--ingest=loose", "graph.txt", "spans.jsonl"],
     "--ingest=loose"),
    (["reconstruct", "--threads", "graph.txt", "spans.jsonl"], "--threads"),
    (["simulate", "--drop=2", "hotel", "10", "1"], "--drop=2"),
]


def run(binary, args, cwd):
    return subprocess.run([binary] + args, cwd=cwd, capture_output=True,
                          text=True, timeout=60)


def main():
    binary = os.path.abspath(sys.argv[1])
    failures = 0
    for args, needle in MALFORMED:
        with tempfile.TemporaryDirectory() as cwd:
            proc = run(binary, args, cwd)
            problems = []
            if proc.returncode != 2:
                problems.append("exit %d, want 2" % proc.returncode)
            if needle not in proc.stderr:
                problems.append("stderr does not name %s: %r" %
                                (needle, proc.stderr.strip()))
            if os.listdir(cwd):
                problems.append("created %s" % sorted(os.listdir(cwd)))
            for problem in problems:
                print("%s: %s" % (" ".join(args), problem))
                failures += 1
    with tempfile.TemporaryDirectory() as cwd:
        proc = run(binary, ["sort-spans", "--threads=2", "missing.jsonl"],
                   cwd)
        if proc.returncode != 1:
            print("sort-spans --threads=2: exit %d, want 1 (missing file)" %
                  proc.returncode)
            failures += 1
    print("%d malformed-flag cases, %d problems" % (len(MALFORMED), failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
