#!/usr/bin/env python3
"""Strict parser for TraceWeaver run reports (--report-json output).

Validates the stable schema ``traceweaver.run_report.v8`` produced by
``src/obs/run_report.cc`` and prints a one-line digest per section.
Unknown or missing schema strings are a hard error: downstream tooling
must not silently accept a report whose layout it does not understand.

Usage:
    parse_report.py <report.json>     # validate + digest
    parse_report.py --self-test       # run embedded accept/reject checks

Exit status: 0 on a valid v8 report (or passing self-test), 1 otherwise.
"""

import json
import sys

SCHEMA = "traceweaver.run_report.v8"

# Top-level sections a v8 report always carries, in schema order.
SECTIONS = [
    "run",
    "ingest",
    "stages",
    "stage_total",
    "services",
    "enumeration",
    "batching",
    "delay_model",
    "ranking",
    "mwis",
    "iteration",
    "dynamism",
    "quality",
    "skew",
    "online",
    "provenance",
    "sampler",
]

# The v6 addition: the decision-provenance rollup (docs/METRICS.md,
# "Decision provenance"). Counts are non-negative integers; ``events``
# rows carry the event-type wire name and its count.
PROVENANCE_COUNTS = ["recorded", "dropped", "pending_events"]

# The v7 addition: the commit-time tail-sampler rollup (docs/METRICS.md,
# "Tail sampling"). All counts are non-negative integers and every
# considered trace must be accounted for:
# considered = shed + kept_interesting + kept_random.
SAMPLER_COUNTS = [
    "considered",
    "shed",
    "shed_spans",
    "kept_interesting",
    "kept_random",
]


class ReportError(Exception):
    """A report that must be rejected, with a reason."""


def parse_report(text):
    """Parses one run report; returns the dict or raises ReportError."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as err:
        raise ReportError("not valid JSON: %s" % err)
    if not isinstance(report, dict):
        raise ReportError("top level is not a JSON object")

    schema = report.get("schema")
    if schema is None:
        raise ReportError("missing required 'schema' field")
    if schema != SCHEMA:
        raise ReportError(
            "unknown schema %r (this parser understands only %r)"
            % (schema, SCHEMA)
        )

    for section in SECTIONS:
        if section not in report:
            raise ReportError("missing required section %r" % section)

    # v8: the serve layers are stage rows too, stage time is exclusive of
    # nested stages, and stage_total is the rows' sum.
    try:
        stage_sum = sum(row["wall_ns"] for row in report["stages"])
    except (KeyError, TypeError):
        raise ReportError("malformed stage rows: %r" % report["stages"])
    if report["stage_total"].get("wall_ns") != stage_sum:
        raise ReportError(
            "stage_total.wall_ns=%r does not match the stage-row sum %d"
            % (report["stage_total"].get("wall_ns"), stage_sum)
        )

    prov = report["provenance"]
    if not isinstance(prov, dict):
        raise ReportError("'provenance' is not an object")
    for key in PROVENANCE_COUNTS:
        value = prov.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ReportError(
                "provenance.%s must be a non-negative integer, got %r"
                % (key, value)
            )
    events = prov.get("events")
    if not isinstance(events, list):
        raise ReportError("provenance.events is not an array")
    for row in events:
        if not isinstance(row, dict) or not isinstance(row.get("type"), str):
            raise ReportError("malformed provenance event row: %r" % row)
        count = row.get("count")
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise ReportError(
                "provenance event %r must carry a positive count, got %r"
                % (row.get("type"), count)
            )
    recorded = sum(row["count"] for row in events)
    if recorded != prov["recorded"]:
        raise ReportError(
            "provenance.recorded=%d does not match the event-row sum %d"
            % (prov["recorded"], recorded)
        )

    sampler = report["sampler"]
    if not isinstance(sampler, dict):
        raise ReportError("'sampler' is not an object")
    for key in SAMPLER_COUNTS:
        value = sampler.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ReportError(
                "sampler.%s must be a non-negative integer, got %r"
                % (key, value)
            )
    accounted = (
        sampler["shed"] + sampler["kept_interesting"] + sampler["kept_random"]
    )
    if accounted != sampler["considered"]:
        raise ReportError(
            "sampler.considered=%d does not match shed+kept sum %d"
            % (sampler["considered"], accounted)
        )
    return report


def digest(report):
    """One line per interesting section, for terminals."""
    lines = []
    run = report["run"]
    lines.append(
        "run: %s spans, %s containers, %s threads"
        % (run.get("spans"), run.get("containers"), run.get("threads"))
    )
    ingest = report["ingest"]
    lines.append(
        "ingest: %s in, %s accepted, %s repaired, %s quarantined"
        % (
            ingest.get("input"),
            ingest.get("accepted"),
            ingest.get("repaired"),
            ingest.get("quarantined"),
        )
    )
    prov = report["provenance"]
    rows = ", ".join(
        "%s=%d" % (row["type"], row["count"]) for row in prov["events"]
    )
    lines.append(
        "provenance: %d recorded, %d dropped, %d pending%s"
        % (
            prov["recorded"],
            prov["dropped"],
            prov["pending_events"],
            " (%s)" % rows if rows else "",
        )
    )
    sampler = report["sampler"]
    if sampler["considered"]:
        lines.append(
            "sampler: %d considered, %d kept interesting, %d kept by coin,"
            " %d shed (%d spans)"
            % (
                sampler["considered"],
                sampler["kept_interesting"],
                sampler["kept_random"],
                sampler["shed"],
                sampler["shed_spans"],
            )
        )
    return "\n".join(lines)


# A minimal well-formed v8 report: every section present, stage, provenance
# and sampler rollups populated the way src/obs/run_report.cc renders them.
GOOD_V8 = json.dumps(
    {
        "schema": SCHEMA,
        "run": {"runs": 1, "spans": 12, "containers": 3, "threads": 1},
        "ingest": {"input": 12, "accepted": 12, "repaired": 0,
                   "quarantined": 0},
        "stages": [
            {"stage": "views", "wall_ns": 5, "cpu_ns": 4},
            {"stage": "read", "wall_ns": 2, "cpu_ns": 2},
        ],
        "stage_total": {"wall_ns": 7, "coverage": 0.7},
        "services": [],
        "enumeration": {"parents": 4},
        "batching": {"batches": 1},
        "delay_model": {"keys_final": 2},
        "ranking": {"tasks": 4},
        "mwis": {"solves": 1},
        "iteration": {"iterations": 1},
        "dynamism": {"containers": 0},
        "quality": {"assignments": 4},
        "skew": {"pairs": 0},
        "online": {"spans_ingested": 0},
        "provenance": {
            "recorded": 3,
            "dropped": 0,
            "pending_events": 0,
            "events": [
                {"type": "settled", "count": 2},
                {"type": "skew_correct", "count": 1},
            ],
        },
        "sampler": {
            "considered": 4,
            "shed": 1,
            "shed_spans": 3,
            "kept_interesting": 2,
            "kept_random": 1,
        },
    }
)


def self_test():
    failures = []

    def expect_ok(name, text):
        try:
            parse_report(text)
        except ReportError as err:
            failures.append("%s: unexpectedly rejected: %s" % (name, err))

    def expect_reject(name, text, needle):
        try:
            parse_report(text)
        except ReportError as err:
            if needle not in str(err):
                failures.append(
                    "%s: rejected for the wrong reason: %s" % (name, err)
                )
        else:
            failures.append("%s: unexpectedly accepted" % name)

    expect_ok("good_v8", GOOD_V8)

    v7 = json.loads(GOOD_V8)
    v7["schema"] = "traceweaver.run_report.v7"
    expect_reject("older_schema", json.dumps(v7), "unknown schema")

    future = json.loads(GOOD_V8)
    future["schema"] = "traceweaver.run_report.v99"
    expect_reject("future_schema", json.dumps(future), "unknown schema")

    unrelated = json.loads(GOOD_V8)
    unrelated["schema"] = "traceweaver.trace.v1"
    expect_reject("wrong_kind", json.dumps(unrelated), "unknown schema")

    anonymous = json.loads(GOOD_V8)
    del anonymous["schema"]
    expect_reject("missing_schema", json.dumps(anonymous), "missing required")

    truncated = json.loads(GOOD_V8)
    del truncated["provenance"]
    expect_reject(
        "missing_provenance", json.dumps(truncated), "missing required"
    )

    miscount = json.loads(GOOD_V8)
    miscount["provenance"]["recorded"] = 7
    expect_reject("bad_rollup", json.dumps(miscount), "does not match")

    unsampled = json.loads(GOOD_V8)
    del unsampled["sampler"]
    expect_reject(
        "missing_sampler", json.dumps(unsampled), "missing required"
    )

    leaky = json.loads(GOOD_V8)
    leaky["sampler"]["shed"] = 0
    expect_reject(
        "unaccounted_sampler", json.dumps(leaky), "shed+kept sum"
    )

    unsummed = json.loads(GOOD_V8)
    unsummed["stage_total"]["wall_ns"] = 5
    expect_reject("bad_stage_total", json.dumps(unsummed), "stage-row sum")

    rowless = json.loads(GOOD_V8)
    rowless["stages"] = [{"stage": "views"}]
    expect_reject("malformed_stage", json.dumps(rowless), "malformed stage")

    expect_reject("not_json", "{nope", "not valid JSON")

    if failures:
        for f in failures:
            print("FAIL %s" % f, file=sys.stderr)
        return 1
    print("parse_report self-test: 12 checks passed")
    return 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    try:
        with open(argv[1], "r", encoding="utf-8") as fh:
            report = parse_report(fh.read())
    except OSError as err:
        print("parse_report: %s" % err, file=sys.stderr)
        return 1
    except ReportError as err:
        print("parse_report: rejected: %s" % err, file=sys.stderr)
        return 1
    print(digest(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
