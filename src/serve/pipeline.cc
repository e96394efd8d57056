#include "serve/pipeline.h"

#include <algorithm>
#include <utility>

namespace traceweaver::serve {

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
  if (reg != nullptr) {
    metrics_ = obs::OnlineMetrics(*reg);
    stages_ = obs::StageMetrics(*reg, obs::Stage::kRead,
                                obs::Stage::kCheckpoint);
  }
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
      self_tracer_ = std::make_unique<SelfTracer>(store_.get(), reg);
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

const std::vector<WindowResult>& Pipeline::Ingest(const Span& span,
                                                  std::uint64_t offset) {
  {
    auto t = Time(obs::Stage::kIngest);
    weaver_->Ingest(span);
    if (committer_ != nullptr) committer_->OnSpan(span);
  }
  // client_send drives the watermark: a conservative lower bound
  // (client_send <= client_recv) on completion-ordered streams, so
  // windows never close while their candidates are still in flight. The
  // running max keeps Advance()'s regression counter reserved for genuine
  // source regressions.
  watermark_ = std::max(watermark_, span.client_send);
  {
    auto t = Time(obs::Stage::kWindow);
    results_ = weaver_->Advance(watermark_);
  }
  if (committer_ != nullptr) {
    auto t = Time(obs::Stage::kCommit);
    committer_->OnResults(results_);
  }
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
  std::vector<WindowResult> tail;
  {
    auto t = Time(obs::Stage::kWindow);
    tail = weaver_->Flush();
  }
  if (committer_ != nullptr) {
    auto t = Time(obs::Stage::kCommit);
    committer_->OnResults(tail);
    committer_->Finalize();
  }
  // Before the final seal, so the self traces land durably too.
  CommitSelfTraces(tail);
  {
    auto t = Time(obs::Stage::kCheckpoint);
    std::string error;
    if (store_ != nullptr && !store_->Seal(&error)) {
      warnings_.push_back("store seal failed: " + error);
    }
  }
  Checkpoint(offset);
  return tail;
}

void Pipeline::Interrupt(std::uint64_t offset) { Checkpoint(offset); }

std::vector<std::string> Pipeline::TakeWarnings() {
  return std::exchange(warnings_, {});
}

void Pipeline::Checkpoint(std::uint64_t offset) {
  if (options_.checkpoint_dir.empty()) return;
  auto t = Time(obs::Stage::kCheckpoint);
  std::string error;
  if (SaveServeCheckpoint(options_.checkpoint_dir, state_, offset, &error)) {
    metrics_.checkpoints.Inc();
  } else {
    warnings_.push_back("checkpoint to " + options_.checkpoint_dir +
                        " failed: " + error);
  }
}

void Pipeline::CommitSelfTraces(const std::vector<WindowResult>& results) {
  if (self_tracer_ == nullptr || results.empty()) return;
  // A commit stage of its own, so each self trace includes the commit
  // stage that ended just before it; its own time lands in the next one.
  auto t = Time(obs::Stage::kCommit);
  // One self trace per closed window; in a multi-window batch the first
  // carries the batch's stage time.
  for (const WindowResult& r : results) {
    self_tracer_->CommitWindow(r.window_start);
  }
}

}  // namespace traceweaver::serve
