// Shared plumbing for the per-figure benchmark binaries: build an app,
// learn its call graph from isolated replay, run an open-loop load through
// the capture pipeline, and score every algorithm.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "baselines/mapper.h"
#include "callgraph/call_graph.h"
#include "core/trace_weaver.h"
#include "obs/metrics.h"
#include "sim/spec.h"
#include "trace/span.h"

namespace traceweaver::bench {

struct Dataset {
  std::vector<Span> spans;
  CallGraph graph;
};

/// Full pipeline: isolated replay -> call-graph inference; open-loop load
/// -> capture round trip -> span population.
Dataset Prepare(const sim::AppSpec& app, double rps, double seconds,
                std::uint64_t seed = 31);

/// All four algorithms (TraceWeaver + the three baselines), in the order
/// the paper plots them. When `metrics` is non-null, the TraceWeaver
/// instance records pipeline metrics into it (the baselines are
/// unaffected), so benches can emit a run report next to their numbers.
std::vector<std::unique_ptr<Mapper>> AllMappers(
    const CallGraph& graph, obs::MetricsRegistry* metrics = nullptr);

/// End-to-end trace accuracy of a mapper on a dataset.
double TraceAccuracyOf(Mapper& mapper, const Dataset& data);

/// Convenience header printed at the top of every bench binary.
void PrintHeader(const std::string& title, const std::string& paper_shape);

/// One machine-readable measurement of a benchmark configuration.
struct BenchRecord {
  std::string name;        ///< Configuration label, e.g. "reconstruct_t8".
  std::size_t threads = 1;
  std::size_t spans = 0;
  double ns_per_span = 0.0;
  double spans_per_sec = 0.0;
  /// Free-form annotation, e.g. the speedup over a recorded baseline.
  std::string note;
};

/// Writes `BENCH_<tag>.json` into the working directory: a JSON object with
/// the tag, a `baseline_commit` field, a `host` field (hardware threads and
/// CPU model, read when the file is written) and a `records` array, one
/// entry per BenchRecord. `baseline_commit` names the commit whose build was
/// interleaved with this one to anchor any speedup claims; pass "" when no
/// such comparison ran and the file records "UNANCHORED" instead, marking
/// the numbers as not comparable against the committed record. Returns the
/// file name.
std::string WriteBenchJson(const std::string& tag,
                           const std::vector<BenchRecord>& records,
                           const std::string& baseline_commit = "");

/// Removes `--baseline_commit=<sha>` from argv (the rest keep their
/// order; *argc shrinks to match) and returns the sha, or "" when absent.
/// The benches that write BENCH_*.json take it, so a run interleaved with
/// a baseline build can stamp that anchor into its file.
std::string TakeBaselineCommit(int* argc, char** argv);

/// Like WriteBenchJson, but merges with an existing `BENCH_<tag>.json`
/// instead of clobbering it: rows already in the file whose name is NOT
/// among `records` are preserved verbatim (original order, ahead of the
/// new rows), so two bench binaries sharing one tag (bench_robustness
/// and bench_online_overload both feed BENCH_robustness.json) each
/// refresh only their own rows. A missing or unparsable file degrades to
/// a plain write.
std::string WriteBenchJsonMerged(const std::string& tag,
                                 const std::vector<BenchRecord>& records,
                                 const std::string& baseline_commit = "");

/// Writes `REPORT_<tag>.json` into the working directory: the structured
/// run report (schema traceweaver.run_report.v8) built from `registry`'s
/// current snapshot -- the machine-readable companion to BENCH_<tag>.json
/// explaining where the reconstruction time went. Returns the file name.
std::string WriteRunReportJson(const std::string& tag,
                               const obs::MetricsRegistry& registry);

}  // namespace traceweaver::bench
