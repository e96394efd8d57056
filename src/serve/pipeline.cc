#include "serve/pipeline.h"

#include <algorithm>
#include <utility>

namespace traceweaver::serve {
namespace {

DurationNs WallNs(Pipeline::Clock::time_point a,
                  Pipeline::Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

}  // namespace

Pipeline::Pipeline(const CallGraph& graph, PipelineOptions options)
    : options_(std::move(options)) {
  const bool store_enabled = !options_.store_dir.empty();
  obs::MetricsRegistry* reg = options_.online.metrics;
  // Only committed records carry the ledger.
  if (store_enabled && options_.provenance) {
    ledger_ = std::make_unique<obs::ProvenanceLedger>(
        obs::ProvenanceLedgerOptions{}, reg);
  }
  // The store indexes A-D grades and calibrated confidence, so committing
  // turns the quality layer on; without a store it stays a paid opt-in.
  if (store_enabled) options_.online.weaver.compute_quality = true;
  options_.online.provenance = ledger_.get();
  weaver_ = std::make_unique<OnlineTraceWeaver>(graph, options_.online);
  if (reg != nullptr) metrics_ = obs::OnlineMetrics(*reg);
  watermark_ = weaver_->high_watermark();
  if (store_enabled) {
    options_.store.metrics = reg;
    store_ = std::make_unique<store::TraceStore>(options_.store_dir,
                                                 options_.store);
    store::CommitterOptions copts;
    copts.window = options_.online.window;
    copts.margin = options_.online.margin;
    copts.provenance = ledger_.get();
    if (options_.tail_sampler) {
      options_.tail_sampler->window = options_.online.window;
      sampler_ =
          std::make_unique<store::TailSampler>(*options_.tail_sampler, reg);
      copts.sampler = sampler_.get();
    }
    committer_ =
        std::make_unique<store::TraceCommitter>(copts, store_.get());
    if (options_.self_trace) {
      self_tracer_ = std::make_unique<SelfTracer>(store_.get());
    }
  }
  state_ = {weaver_.get(), store_.get(), committer_.get(), sampler_.get()};
}

std::optional<store::TraceStore::OpenStats> Pipeline::Open(
    std::string* error) {
  if (store_ == nullptr) return store::TraceStore::OpenStats{};
  return store_->Open(error);
}

bool Pipeline::Resume(std::uint64_t* offset, std::string* error) {
  if (options_.checkpoint_dir.empty() ||
      !ResumeServeCheckpoint(options_.checkpoint_dir, state_, offset, error)) {
    return false;
  }
  metrics_.restores.Inc();
  watermark_ = weaver_->high_watermark();
  return true;
}

const std::vector<WindowResult>& Pipeline::Ingest(
    const Span& span, std::uint64_t offset, Clock::time_point read_start) {
  const auto t_parsed = Stamp();
  weaver_->Ingest(span);
  if (committer_ != nullptr) committer_->OnSpan(span);
  if (self_tracer_ != nullptr) {
    self_tracer_->Record(SelfStage::kIngest, WallNs(read_start, t_parsed));
  }
  RecordSince(SelfStage::kValidate, t_parsed);
  // client_send drives the watermark: a conservative lower bound
  // (client_send <= client_recv) on completion-ordered streams, so
  // windows never close while their candidates are still in flight. The
  // running max keeps Advance()'s regression counter reserved for genuine
  // source regressions.
  watermark_ = std::max(watermark_, span.client_send);
  const auto t_advance = Stamp();
  results_ = weaver_->Advance(watermark_);
  RecordAdvance(t_advance, results_);
  const auto t_commit = Stamp();
  if (committer_ != nullptr) committer_->OnResults(results_);
  RecordSince(SelfStage::kCommit, t_commit);
  // Self traces go in before a checkpoint's seal: the checkpoint marks
  // these windows closed, so a resume never closes them again.
  CommitSelfTraces(results_);
  if (!options_.checkpoint_dir.empty() &&
      ++since_checkpoint_ >= options_.checkpoint_every) {
    since_checkpoint_ = 0;
    Checkpoint(offset);
  }
  return results_;
}

std::vector<WindowResult> Pipeline::Finish(std::uint64_t offset) {
  const auto t_flush = Stamp();
  std::vector<WindowResult> tail = weaver_->Flush();
  RecordAdvance(t_flush, tail);
  const auto t_commit = Stamp();
  if (committer_ != nullptr) {
    committer_->OnResults(tail);
    committer_->Finalize();
  }
  RecordSince(SelfStage::kCommit, t_commit);
  // Before the final seal, so the self traces land durably too.
  CommitSelfTraces(tail);
  std::string error;
  if (store_ != nullptr && !store_->Seal(&error)) {
    warnings_.push_back("store seal failed: " + error);
  }
  Checkpoint(offset);
  return tail;
}

void Pipeline::Interrupt(std::uint64_t offset) { Checkpoint(offset); }

std::vector<std::string> Pipeline::TakeWarnings() {
  return std::exchange(warnings_, {});
}

void Pipeline::Checkpoint(std::uint64_t offset) {
  const auto begin = Stamp();
  std::string error;
  if (!options_.checkpoint_dir.empty()) {
    if (SaveServeCheckpoint(options_.checkpoint_dir, state_, offset,
                            &error)) {
      metrics_.checkpoints.Inc();
    } else {
      warnings_.push_back("checkpoint to " + options_.checkpoint_dir +
                          " failed: " + error);
    }
  }
  RecordSince(SelfStage::kSeal, begin);
}

Pipeline::Clock::time_point Pipeline::Stamp() const {
  return self_tracer_ != nullptr ? Clock::now() : Clock::time_point{};
}

void Pipeline::RecordSince(SelfStage stage, Clock::time_point begin) {
  if (self_tracer_ != nullptr) {
    self_tracer_->Record(stage, WallNs(begin, Clock::now()));
  }
}

void Pipeline::RecordAdvance(Clock::time_point begin,
                             const std::vector<WindowResult>& results) {
  if (self_tracer_ == nullptr) return;
  const DurationNs advance_wall = WallNs(begin, Clock::now());
  // windowing = the call minus its window closes; the enumerate share of
  // a close comes from the stage-timer delta, graft from the results,
  // and the remainder is the solve share (score + assignment + commit
  // bookkeeping inside the weaver).
  DurationNs close = 0;
  DurationNs graft = 0;
  for (const WindowResult& r : results) {
    close += r.close_wall_ns;
    graft += r.graft_wall_ns;
  }
  DurationNs enumerate = 0;
  if (!results.empty() && options_.online.metrics != nullptr) {
    const std::int64_t seen = options_.online.metrics->Snapshot().Value(
        "tw_stage_wall_ns_total", "stage=\"enumerate\"");
    enumerate = std::max<std::int64_t>(0, seen - enum_wall_seen_);
    enum_wall_seen_ = seen;
  }
  enumerate = std::min(enumerate, std::max<DurationNs>(0, close - graft));
  self_tracer_->Record(SelfStage::kWindow,
                       std::max<DurationNs>(0, advance_wall - close));
  self_tracer_->Record(SelfStage::kEnumerate, enumerate);
  self_tracer_->Record(SelfStage::kSolve,
                       std::max<DurationNs>(0, close - graft - enumerate));
  self_tracer_->Record(SelfStage::kGraft, graft);
}

void Pipeline::CommitSelfTraces(const std::vector<WindowResult>& results) {
  if (self_tracer_ == nullptr) return;
  // One self trace per closed window; a multi-window batch drains the
  // accumulated stage buckets into its first window.
  for (const WindowResult& r : results) {
    self_tracer_->CommitWindow(r.window_start);
  }
}

}  // namespace traceweaver::serve
