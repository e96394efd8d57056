// The serve pipeline: the one place that knows how a streaming `serve`
// run is wired and in what order its layers are called (DESIGN.md §4h).
//
// A Pipeline builds and owns the decision-provenance ledger, the online
// weaver, the trace store, the tail sampler, the committer and the
// self-tracer of one run, and drives them in this order:
//
//   per span      weaver Ingest -> committer OnSpan -> running-max
//                 client_send watermark -> Advance -> committer OnResults
//                 -> one self trace per closed window -> checkpoint every
//                 `checkpoint_every` spans
//   end of stream Flush -> OnResults -> Finalize -> self traces -> Seal
//                 -> checkpoint
//   interrupt     checkpoint only: no flush
//   resume        ResumeServeCheckpoint (serve/serve_checkpoint.h)
//
// Reading the source, serving queries and printing results are the
// caller's: `traceweaver serve` feeds it parsed JSONL lines and serves
// HTTP over store(); tests feed it spans. All calls come from one thread;
// only the store may be read concurrently (store/store.h).
//
// Each layer runs under an obs::StageTimer of its serve stage (ingest,
// window, commit, checkpoint; the weaver times graft, the caller read),
// recorded into `online.metrics` with the reconstruction stages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "callgraph/call_graph.h"
#include "core/online.h"
#include "obs/pipeline_metrics.h"
#include "obs/provenance.h"
#include "obs/stage_timer.h"
#include "serve/self_trace.h"
#include "serve/serve_checkpoint.h"
#include "store/committer.h"
#include "store/store.h"
#include "store/tail_sampler.h"

namespace traceweaver::serve {

/// One serve run, composed from the layers' own options. The pipeline
/// wires the layers together itself: `online.metrics` also feeds the
/// ledger, store and sampler, the committer and sampler mirror the
/// weaver's window and margin, and a store turns the quality layer on.
struct PipelineOptions {
  OnlineOptions online;
  /// Trace-store directory; "" runs without a store, and so without
  /// provenance, tail sampling or self traces.
  std::string store_dir;
  store::StoreOptions store;
  std::optional<store::TailSamplerOptions> tail_sampler;  ///< Or keep all.
  bool provenance = true;   ///< Decision provenance on committed traces.
  bool self_trace = false;  ///< One `_tw.pipeline` trace per window.
  std::string checkpoint_dir;  ///< "" disables checkpoints.
  std::size_t checkpoint_every = 2000;  ///< Ingested spans between them.
};

class Pipeline {
 public:
  Pipeline(const CallGraph& graph, PipelineOptions options);

  /// Opens the store from its sealed segments (empty stats without a
  /// store); nullopt with *error when the directory is unusable.
  std::optional<store::TraceStore::OpenStats> Open(std::string* error);

  /// Restores the checkpoint in `checkpoint_dir` and sets *offset to the
  /// source offset to continue at. All or none: on failure returns false
  /// with *error (unset when no directory is configured), leaving the
  /// pipeline and *offset as they were.
  bool Resume(std::uint64_t* offset, std::string* error);

  /// Runs one span through the per-span sequence. `offset` is the source
  /// position just past it (what a checkpoint records). Returns the
  /// windows it closed, valid until the next call.
  const std::vector<WindowResult>& Ingest(const Span& span,
                                          std::uint64_t offset);

  /// Times the caller's own serve layer (reading a span: obs::Stage::kRead)
  /// into the pipeline's stage counters.
  obs::StageTimer Time(obs::Stage stage) const { return stages_.Time(stage); }

  /// End of stream at source position `offset`: flushes, commits
  /// everything pending, seals and checkpoints. Returns the windows the
  /// flush closed.
  std::vector<WindowResult> Finish(std::uint64_t offset);

  /// Graceful stop at source position `offset`: checkpoints without
  /// flushing, since a flush would commit still-settling traces as
  /// premature fragments; a resumed run continues from here.
  void Interrupt(std::uint64_t offset);

  /// Checkpoint and seal failures since the last call, one line each.
  /// The run carries on; the previous checkpoint stays valid.
  std::vector<std::string> TakeWarnings();

  const PipelineOptions& options() const { return options_; }
  const OnlineTraceWeaver& weaver() const { return *weaver_; }
  store::TraceStore* store() const { return store_.get(); }  ///< Or null.
  const store::TraceCommitter* committer() const { return committer_.get(); }
  const store::TailSampler* sampler() const { return sampler_.get(); }
  const obs::ProvenanceLedger* ledger() const { return ledger_.get(); }
  const SelfTracer* self_tracer() const { return self_tracer_.get(); }

 private:
  /// Seals and checkpoints with `offset` as the source offset.
  void Checkpoint(std::uint64_t offset);
  void CommitSelfTraces(const std::vector<WindowResult>& results);

  PipelineOptions options_;
  std::unique_ptr<obs::ProvenanceLedger> ledger_;
  std::unique_ptr<OnlineTraceWeaver> weaver_;
  obs::OnlineMetrics metrics_;
  obs::StageMetrics stages_;  ///< The serve stages (read .. checkpoint).
  std::unique_ptr<store::TraceStore> store_;
  std::unique_ptr<store::TailSampler> sampler_;
  std::unique_ptr<store::TraceCommitter> committer_;
  std::unique_ptr<SelfTracer> self_tracer_;
  ServeState state_;  ///< What a checkpoint covers.

  std::vector<WindowResult> results_;
  std::vector<std::string> warnings_;
  TimeNs watermark_ = 0;
  std::size_t since_checkpoint_ = 0;
};

}  // namespace traceweaver::serve
