#include "serve/self_trace.h"

namespace traceweaver::serve {
namespace {

/// High bit marks self-trace span ids; the low bits carry the window
/// start, so ids are unique per window and stable across restarts
/// (replaying a window after checkpoint resume re-commits the same id,
/// which TraceStore::Commit drops idempotently).
constexpr SpanId kSelfTraceIdBit = SpanId{1} << 63;

}  // namespace

SpanId SelfTracer::CommitWindow(TimeNs window_start) {
  const SpanId root =
      kSelfTraceIdBit | static_cast<SpanId>(static_cast<std::uint64_t>(
                            window_start < 0 ? 0 : window_start));

  TraceRecord record;
  record.trace_id = root;
  record.root_service = kSelfTraceService;
  record.root_endpoint = "/window";
  record.grade = 'A';
  record.confidence = 1.0;
  record.min_confidence = 1.0;

  // Per-stage wall time since the previous self trace.
  DurationNs stage_ns[obs::kAllStageCount] = {};
  if (registry_ != nullptr) {
    const obs::RegistrySnapshot snapshot = registry_->Snapshot();
    for (std::size_t i = 0; i < obs::kAllStageCount; ++i) {
      const std::int64_t total = snapshot.Value(
          "tw_stage_wall_ns_total",
          "stage=\"" +
              std::string(obs::StageName(static_cast<obs::Stage>(i))) +
              "\"");
      stage_ns[i] = total - seen_ns_[i];
      seen_ns_[i] = total;
    }
  }

  // Children tile [window_start, window_start + total) in stage order;
  // the root covers the whole tiling. Zero-cost stages become zero-width
  // spans rather than disappearing, so every self trace has the same
  // 1 + obs::kAllStageCount shape.
  TimeNs t = window_start;
  Span root_span;
  root_span.id = root;
  root_span.caller = kClientCaller;
  root_span.callee = kSelfTraceService;
  root_span.endpoint = "/window";
  root_span.client_send = window_start;
  root_span.server_recv = window_start;
  record.spans.push_back(root_span);

  for (std::size_t i = 0; i < obs::kAllStageCount; ++i) {
    const char* name = obs::StageName(static_cast<obs::Stage>(i));
    const DurationNs wall = stage_ns[i];
    Span s;
    s.id = root + 1 + static_cast<SpanId>(i);
    s.caller = kSelfTraceService;
    s.callee = std::string("_tw.") + name;
    s.endpoint = std::string("/") + name;
    s.client_send = t;
    s.server_recv = t;
    s.server_send = t + wall;
    s.client_recv = t + wall;
    t += wall;
    record.spans.push_back(s);
    record.parents.emplace_back(s.id, root);
  }
  record.spans[0].server_send = t;
  record.spans[0].client_recv = t;
  record.start = window_start;
  record.end = t;

  // Self traces bypass the committer, so stamp the settle outcome here:
  // the provenance endpoint answers for them like for any other trace.
  record.provenance.push_back(
      {obs::ProvEventType::kSettled, root,
       static_cast<std::int64_t>(record.spans.size()), "self_trace"});

  if (!store_->Commit(std::move(record))) return kInvalidSpanId;
  ++committed_;
  return root;
}

}  // namespace traceweaver::serve
