// Pipeline self-tracing: the serve loop observes itself with its own
// data model (DESIGN.md §4j). Every processed window becomes one
// synthetic TraceWeaver-format trace -- a root span for the window under
// the reserved root service `_tw.pipeline` plus one `_tw.<stage>` child
// per obs::Stage, in run-report order -- committed into the same
// TraceStore as real traffic, so it is queryable over the HTTP API and
// Jaeger-exportable like application traces.
//
// A child's duration is its stage's `tw_stage_wall_ns_total` growth since
// the previous self trace: the exclusive stage time `/metrics`, the run
// report and `--profile-stages` read. Children tile the window from
// window_start on the *data* timebase. Stage walls are wall-clock and so
// non-deterministic; self-tracing is opt-in (`serve --self-trace`) and
// write-only -- self traces never feed back into reconstruction.
#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/pipeline_metrics.h"
#include "store/store.h"

namespace traceweaver::serve {

/// Reserved root service of every self trace. The leading underscore
/// keeps it out of any real deployment's namespace; stage children use
/// `_tw.<stage>` callees under the same prefix.
inline constexpr const char* kSelfTraceService = "_tw.pipeline";

/// Commits one synthetic trace per closed window. Single-threaded (the
/// serve ingest loop); neither pointer is owned.
class SelfTracer {
 public:
  /// `registry` holds the stage counters the children are read from;
  /// without one every child is zero-width.
  SelfTracer(store::TraceStore* store, const obs::MetricsRegistry* registry)
      : store_(store), registry_(registry) {}

  /// Builds and commits the self trace for the window starting at
  /// `window_start` (data timebase) from the stage time recorded since
  /// the previous one. Returns the trace id, or kInvalidSpanId when the
  /// store rejected the commit (duplicate id).
  SpanId CommitWindow(TimeNs window_start);

  std::size_t committed() const { return committed_; }

 private:
  store::TraceStore* store_;
  const obs::MetricsRegistry* registry_;
  /// tw_stage_wall_ns_total per stage at the previous self trace.
  std::int64_t seen_ns_[obs::kAllStageCount] = {};
  std::size_t committed_ = 0;
};

}  // namespace traceweaver::serve
