// serve::Pipeline (serve/pipeline.h) on the paths `traceweaver serve`
// runs beyond the periodic-checkpoint crash points of
// serve_checkpoint_test: a graceful interrupt and resume, per-window
// self traces across a crash and replay, the `--final` assignment union,
// and store reads from other threads while the pipeline ingests (the
// HTTP query API's access pattern).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/self_trace.h"
#include "serve_pipeline_helpers.h"

namespace traceweaver::serve {
namespace {

using namespace testing;  // NOLINT: the shared serve-pipeline fixtures.

class PipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = TestDir("tw_pipeline_");
    every_ = TestStream().spans.size() / 4;
  }
  void TearDown() override { fs::remove_all(root_); }

  /// Window starts of the `_tw.pipeline` self traces in `p`'s store.
  static std::multiset<TimeNs> SelfTraceWindows(const Pipeline& p) {
    store::TraceQuery query;
    query.service = kSelfTraceService;
    std::multiset<TimeNs> starts;
    for (const store::TraceSummary& s : p.store()->QuerySummaries(query)) {
      starts.insert(s.start);
    }
    return starts;
  }

  fs::path root_;
  std::size_t every_ = 0;
};

/// The trace records of a store in commit order: every segment's payload
/// lines (header and CRC footer dropped), segment after segment.
std::vector<std::string> CommittedRecords(const Outcome& outcome) {
  std::vector<std::string> records;
  for (const auto& [name, bytes] : outcome.segments) {
    std::vector<std::string> lines;
    std::size_t at = 0;
    while (at < bytes.size()) {
      const std::size_t end = bytes.find('\n', at);
      lines.push_back(bytes.substr(at, end - at));
      at = end == std::string::npos ? bytes.size() : end + 1;
    }
    if (lines.size() < 2) continue;
    records.insert(records.end(), lines.begin() + 1, lines.end() - 1);
  }
  return records;
}

TEST_F(PipelineTest, GracefulInterruptResumesToTheUninterruptedRun) {
  const std::size_t n = TestStream().spans.size();
  Outcome reference;
  {
    auto p = OpenPipeline(ServeOptions(root_ / "reference", every_));
    Feed(*p, 0, n);
    Finish(*p);
    reference = Collect(*p);
  }
  // Stop between periodic checkpoints, and a second time after resuming.
  const fs::path dir = root_ / "interrupted";
  const std::size_t stops[] = {every_ + every_ / 2 + 7, 3 * every_ - 3};
  std::uint64_t offset = 0;
  for (const std::size_t stop : stops) {
    auto p = OpenPipeline(ServeOptions(dir, every_));
    EXPECT_EQ(Resume(*p), offset);
    Feed(*p, offset, stop);
    p->Interrupt(stop);
    EXPECT_TRUE(p->TakeWarnings().empty());
    // No flush: settling traces stay pending in the checkpoint instead of
    // being committed as premature fragments.
    EXPECT_GT(p->committer()->pending_spans(), 0u);
    EXPECT_LT(p->store()->size(), reference.provenance.size());
    EXPECT_EQ(p->store()->active_traces(), 0u) << "interrupt seals";
    offset = stop;
  }
  auto p = OpenPipeline(ServeOptions(dir, every_));
  ASSERT_EQ(Resume(*p), offset);
  Feed(*p, offset, n);
  Finish(*p);
  const Outcome got = Collect(*p);
  EXPECT_EQ(got.considered, reference.considered);
  EXPECT_EQ(got.kept, reference.kept);
  EXPECT_EQ(got.shed, reference.shed);
  EXPECT_EQ(got.provenance, reference.provenance);
  // The same records in the same commit order. The segment files are not
  // byte-identical: each interrupt seals the active segment early, and the
  // resumed run counts its checkpoint interval from the resume offset, so
  // the records are split at different segment boundaries.
  EXPECT_EQ(CommittedRecords(got), CommittedRecords(reference));
}

TEST_F(PipelineTest, OneSelfTracePerClosedWindowAcrossCrashAndReplay) {
  const std::size_t n = TestStream().spans.size();
  // Checkpoint on a span that closes a window, the boundary where a self
  // trace committed after the checkpoint's seal would be lost: the resume
  // would never close that window again.
  std::size_t every = 0;
  {
    PipelineOptions o;
    o.online.window = kWindow;
    o.online.margin = kMargin;
    Pipeline dry(TestStream().graph, o);
    for (std::size_t i = 0; i < n && every == 0; ++i) {
      const bool closes = !dry.Ingest(TestStream().spans[i], i + 1).empty();
      if (closes && i + 1 >= n / 4) every = i + 1;
    }
  }
  ASSERT_GT(every, 0u);
  ASSERT_LT(every, n / 2);
  obs::MetricsRegistry registry;  // serve always records with a store.
  const auto options = [&](const fs::path& dir) {
    PipelineOptions o = ServeOptions(dir, every);
    o.self_trace = true;
    o.online.metrics = &registry;
    o.online.weaver.metrics = &registry;
    return o;
  };

  std::multiset<TimeNs> closed;
  std::set<SpanId> reference_real;
  {
    auto p = OpenPipeline(options(root_ / "reference"));
    for (const WindowResult& r : Feed(*p, 0, n)) closed.insert(r.window_start);
    for (const WindowResult& r : Finish(*p)) closed.insert(r.window_start);
    ASSERT_GE(closed.size(), 4u);
    EXPECT_EQ(SelfTraceWindows(*p), closed);
    EXPECT_EQ(p->self_tracer()->committed(), closed.size());
    for (const store::TraceSummary& s : p->store()->QuerySummaries({})) {
      if (s.root_service != kSelfTraceService) {
        reference_real.insert(s.trace_id);
      }
    }
  }

  // Crash one span short of the second checkpoint: the resumed run
  // replays the windows closed since the first one.
  const fs::path dir = root_ / "crashed";
  const std::size_t crash = 2 * every - 1;
  std::size_t replayed_windows = 0;
  {
    auto p = OpenPipeline(options(dir));
    Feed(*p, 0, every);
    replayed_windows = Feed(*p, every, crash).size();
  }
  auto p = OpenPipeline(options(dir));
  const std::size_t durable = SelfTraceWindows(*p).size();
  ASSERT_EQ(Resume(*p), every);
  Feed(*p, every, n);
  Finish(*p);
  // Every closed window has exactly one self trace, and the replay
  // committed only those that had not survived the crash.
  EXPECT_EQ(SelfTraceWindows(*p), closed);
  EXPECT_EQ(p->self_tracer()->committed(), closed.size() - durable);
  EXPECT_GT(replayed_windows, 0u);
  std::set<SpanId> real;
  for (const store::TraceSummary& s : p->store()->QuerySummaries({})) {
    if (s.root_service != kSelfTraceService) real.insert(s.trace_id);
  }
  EXPECT_EQ(real, reference_real);
}

TEST_F(PipelineTest, FinalUnionEqualsThePerWindowAssignments) {
  PipelineOptions o;
  o.online.window = kWindow;
  o.online.margin = kMargin;
  Pipeline p(TestStream().graph, o);
  ASSERT_TRUE(p.Open(nullptr).has_value());
  ParentAssignment streamed;
  std::size_t rows = 0;
  auto windows = Feed(p, 0, TestStream().spans.size());
  for (const WindowResult& r : p.Finish(TestStream().spans.size())) {
    windows.push_back(r);
  }
  for (const WindowResult& r : windows) {
    for (const auto& [child, parent] : r.assignment) {
      rows += 1;
      // A child is assigned in one window only, so the union is disjoint.
      EXPECT_TRUE(streamed.emplace(child, parent).second) << child;
    }
  }
  EXPECT_GT(rows, TestStream().spans.size() / 2);
  EXPECT_EQ(p.weaver().assignment(), streamed);
  EXPECT_EQ(p.store(), nullptr);
}

// A checkpoint directory that does not exist yet is created, like the
// store directory, instead of failing every checkpoint of the run.
TEST_F(PipelineTest, CheckpointCreatesAMissingNestedDirectory) {
  PipelineOptions o = ServeOptions(root_ / "fresh", every_);
  o.checkpoint_dir = (root_ / "fresh" / "not" / "yet" / "ckpt").string();
  ASSERT_FALSE(fs::exists(root_ / "fresh" / "not"));
  Pipeline p(TestStream().graph, o);
  ASSERT_TRUE(p.Open(nullptr).has_value());
  for (std::size_t i = 0; i < 2 * every_; ++i) {
    p.Ingest(TestStream().spans[i], i + 1);
    ASSERT_EQ(p.TakeWarnings(), std::vector<std::string>{}) << "span " << i;
  }
  EXPECT_TRUE(fs::exists(fs::path(o.checkpoint_dir) / "checkpoint.jsonl"));
  std::uint64_t offset = 0;
  Pipeline resumed(TestStream().graph, o);
  ASSERT_TRUE(resumed.Open(nullptr).has_value());
  EXPECT_TRUE(resumed.Resume(&offset, nullptr));
  EXPECT_EQ(offset, 2 * every_);
}

TEST_F(PipelineTest, StoreReadsWhileIngesting) {
  auto p = OpenPipeline(ServeOptions(root_ / "reads", every_));
  const store::TraceStore* store = p->store();
  std::atomic<bool> done{false};
  std::atomic<std::size_t> reads{0};
  std::thread reader([&] {
    while (!done.load()) {
      for (const store::TraceSummary& s : store->QuerySummaries({})) {
        EXPECT_NE(store->Get(s.trace_id), nullptr);
      }
      reads.fetch_add(1);
    }
  });
  Feed(*p, 0, TestStream().spans.size());
  Finish(*p);
  done.store(true);
  reader.join();
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(store->QuerySummaries({}).size(), store->size());
}

}  // namespace
}  // namespace traceweaver::serve
