// Shared fixtures for the serve-pipeline tests (serve_checkpoint_test,
// pipeline_test): a skewed hotel stream in completion order, the
// pipeline options `traceweaver serve` builds for it, and what a
// finished run leaves on disk.
#pragma once

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "callgraph/inference.h"
#include "serve/pipeline.h"
#include "serve/query_service.h"
#include "sim/apps.h"
#include "sim/fault_injector.h"
#include "sim/workload.h"

namespace traceweaver::serve::testing {

namespace fs = std::filesystem;

inline constexpr DurationNs kWindow = Millis(250);
inline constexpr DurationNs kMargin = Millis(100);

struct Stream {
  CallGraph graph;
  std::vector<Span> spans;  ///< Completion order, as serve reads them.
};

inline Stream MakeStream() {
  Stream s;
  const sim::AppSpec app = sim::MakeHotelReservationApp();
  sim::IsolatedReplayOptions iso;
  iso.requests_per_root = 15;
  s.graph = InferCallGraph(sim::RunIsolatedReplay(app, iso).spans);
  sim::OpenLoopOptions load;
  load.requests_per_sec = 120;
  load.duration = Seconds(2);
  load.seed = 12;
  // Per-vantage clock offsets give the skew estimator and the provenance
  // ledger real state to carry across a crash.
  sim::FaultSpec faults;
  faults.skew_stddev_ns = Micros(100);
  s.spans = sim::InjectFaults(sim::RunOpenLoop(app, load).spans, faults);
  std::sort(s.spans.begin(), s.spans.end(), [](const Span& a, const Span& b) {
    return a.client_recv != b.client_recv ? a.client_recv < b.client_recv
                                          : a.id < b.id;
  });
  return s;
}

inline const Stream& TestStream() {
  static const Stream stream = MakeStream();
  return stream;
}

inline std::optional<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

inline void WriteFile(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// `traceweaver serve --store-dir=<dir>/store --checkpoint-dir=<dir>/ckpt
/// --checkpoint-every=<every> --window-ms=250 --margin-ms=100
/// --tail-sample=0.3 --skew-correct`.
inline PipelineOptions ServeOptions(const fs::path& dir, std::size_t every) {
  PipelineOptions o;
  o.online.window = kWindow;
  o.online.margin = kMargin;
  o.online.skew_correct = true;
  o.store_dir = (dir / "store").string();
  o.tail_sampler.emplace().keep_rate = 0.3;
  o.checkpoint_dir = (dir / "ckpt").string();
  o.checkpoint_every = every;
  return o;
}

/// Builds and opens a pipeline (creating its checkpoint directory, as an
/// operator does before the first run).
inline std::unique_ptr<Pipeline> OpenPipeline(PipelineOptions options) {
  fs::create_directories(options.checkpoint_dir);
  auto p = std::make_unique<Pipeline>(TestStream().graph, std::move(options));
  std::string error;
  EXPECT_TRUE(p->Open(&error).has_value()) << error;
  return p;
}

/// Feeds stream spans [from, to), passing span index + 1 as the source
/// offset. Returns every window the spans closed.
inline std::vector<WindowResult> Feed(Pipeline& p, std::size_t from,
                                      std::size_t to) {
  std::vector<WindowResult> closed;
  for (std::size_t i = from; i < to; ++i) {
    const auto& results = p.Ingest(TestStream().spans[i], i + 1);
    closed.insert(closed.end(), results.begin(), results.end());
  }
  EXPECT_TRUE(p.TakeWarnings().empty());
  return closed;
}

/// End of stream; returns the windows the flush closed.
inline std::vector<WindowResult> Finish(Pipeline& p) {
  auto tail = p.Finish(TestStream().spans.size());
  EXPECT_TRUE(p.TakeWarnings().empty());
  return tail;
}

/// Resumes as `serve --resume` does; a rejected checkpoint starts fresh
/// at offset 0.
inline std::uint64_t Resume(Pipeline& p) {
  std::uint64_t offset = 0;
  std::string error;
  if (!p.Resume(&offset, &error)) offset = 0;
  return offset;
}

/// What a finished run leaves behind.
struct Outcome {
  std::map<std::string, std::string> segments;  ///< File name -> bytes.
  std::map<SpanId, std::string> provenance;     ///< Trace -> ledger JSON.
  std::size_t considered = 0;
  std::size_t kept = 0;
  std::size_t shed = 0;
};

inline Outcome Collect(const Pipeline& p) {
  Outcome out;
  const store::TraceStore& store = *p.store();
  for (const auto& entry : fs::directory_iterator(store.dir())) {
    out.segments[entry.path().filename().string()] =
        ReadFile(entry.path()).value_or("");
  }
  for (const store::TraceSummary& s : store.QuerySummaries({})) {
    const auto record = store.Get(s.trace_id);
    out.provenance[s.trace_id] =
        record != nullptr ? ProvenanceJson(*record) : "missing";
  }
  out.considered = p.sampler()->considered();
  out.kept = p.sampler()->kept();
  out.shed = p.sampler()->shed();
  return out;
}

inline void ExpectSameOutcome(const Outcome& got, const Outcome& want,
                              const std::string& tag) {
  EXPECT_EQ(got.considered, want.considered) << tag;
  EXPECT_EQ(got.kept, want.kept) << tag;
  EXPECT_EQ(got.shed, want.shed) << tag;
  EXPECT_EQ(got.considered, got.kept + got.shed) << tag;
  ASSERT_EQ(got.provenance.size(), want.provenance.size()) << tag;
  for (const auto& [id, json] : want.provenance) {
    const auto it = got.provenance.find(id);
    ASSERT_NE(it, got.provenance.end()) << tag << ": trace " << id;
    EXPECT_EQ(it->second, json) << tag << ": trace " << id;
  }
  ASSERT_EQ(got.segments.size(), want.segments.size()) << tag;
  for (const auto& [name, bytes] : want.segments) {
    const auto it = got.segments.find(name);
    ASSERT_NE(it, got.segments.end()) << tag << ": " << name;
    EXPECT_TRUE(it->second == bytes) << tag << ": " << name << " differs";
  }
}

/// A fresh temporary directory named after the running test; the caller
/// removes it.
inline fs::path TestDir(const std::string& prefix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  fs::path dir = fs::temp_directory_path() /
                 (prefix + info->name() + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  return dir;
}

}  // namespace traceweaver::serve::testing
