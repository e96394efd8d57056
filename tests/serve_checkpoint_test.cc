// Crash points of the serve checkpoint (serve/serve_checkpoint.h).
//
// A serve pipeline -- online weaver with skew correction, decision
// provenance, trace store and tail sampler, built as `traceweaver serve
// --store-dir --tail-sample --skew-correct` builds it -- runs a stream
// through several checkpoints. At each durable-write boundary of a
// checkpoint (store sealed; tmp file cut short; tmp file complete but not
// renamed; renamed) the process "crashes" (every in-memory object is
// dropped) and a new pipeline resumes from the directories alone. The
// resumed run must leave the same store segment bytes, the same
// per-trace provenance and the same sampler accounting as the run that
// never crashed.
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
#include <vector>

#include "callgraph/inference.h"
#include "core/online.h"
#include "obs/provenance.h"
#include "serve/query_service.h"
#include "serve/serve_checkpoint.h"
#include "sim/apps.h"
#include "sim/fault_injector.h"
#include "sim/workload.h"
#include "store/committer.h"
#include "store/store.h"
#include "store/tail_sampler.h"

namespace traceweaver::serve {
namespace {

namespace fs = std::filesystem;

constexpr DurationNs kWindow = Millis(250);
constexpr DurationNs kMargin = Millis(100);

struct Stream {
  CallGraph graph;
  std::vector<Span> spans;  ///< Completion order, as serve reads them.
};

Stream MakeStream() {
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

const Stream& TestStream() {
  static const Stream stream = MakeStream();
  return stream;
}

std::optional<std::string> ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteFile(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// What a finished run leaves behind.
struct Outcome {
  std::map<std::string, std::string> segments;  ///< File name -> bytes.
  std::map<SpanId, std::string> provenance;     ///< Trace -> ledger JSON.
  std::size_t considered = 0;
  std::size_t kept = 0;
  std::size_t shed = 0;
};

/// CmdServe's objects with --store-dir, --tail-sample=0.3 and
/// --skew-correct, and its ingest loop. Destroying one without Finish()
/// is a crash: nothing unsealed or unsaved survives.
class Pipeline {
 public:
  Pipeline(const Stream& stream, const fs::path& dir)
      : stream_(stream),
        ckpt_dir_((dir / "ckpt").string()),
        ledger_(obs::ProvenanceLedgerOptions{}, nullptr),
        store_((dir / "store").string()) {
    fs::create_directories(ckpt_dir_);
    EXPECT_TRUE(store_.Open().has_value());
    OnlineOptions oopts;
    oopts.window = kWindow;
    oopts.margin = kMargin;
    oopts.weaver.compute_quality = true;
    oopts.skew_correct = true;
    oopts.provenance = &ledger_;
    weaver_ = std::make_unique<OnlineTraceWeaver>(stream.graph, oopts);
    store::TailSamplerOptions topts;
    topts.keep_rate = 0.3;
    topts.window = kWindow;
    sampler_ = std::make_unique<store::TailSampler>(topts);
    store::CommitterOptions copts;
    copts.window = kWindow;
    copts.margin = kMargin;
    copts.provenance = &ledger_;
    copts.sampler = sampler_.get();
    committer_ = std::make_unique<store::TraceCommitter>(copts, &store_);
  }

  ServeState State() {
    return {weaver_.get(), &store_, committer_.get(), sampler_.get()};
  }
  const std::string& ckpt_dir() const { return ckpt_dir_; }
  store::TraceStore& store() { return store_; }

  /// Resumes as `serve --resume` does; a rejected checkpoint starts
  /// fresh at offset 0.
  std::uint64_t Resume() {
    std::uint64_t offset = 0;
    std::string error;
    if (!ResumeServeCheckpoint(ckpt_dir_, State(), &offset, &error)) {
      offset = 0;
    }
    return offset;
  }

  /// Ingests spans [from, to), checkpointing after every `every`-th span
  /// of the stream as `--checkpoint-every` does (except after span `to`,
  /// so a caller can stop just short of a checkpoint).
  void Run(std::size_t from, std::size_t to, std::size_t every) {
    TimeNs watermark = weaver_->high_watermark();
    for (std::size_t i = from; i < to; ++i) {
      const Span& span = stream_.spans[i];
      weaver_->Ingest(span);
      committer_->OnSpan(span);
      watermark = std::max(watermark, span.client_send);
      committer_->OnResults(weaver_->Advance(watermark));
      if ((i + 1) % every == 0 && i + 1 < to) Checkpoint(i + 1);
    }
  }

  void Checkpoint(std::uint64_t offset) {
    std::string error;
    EXPECT_TRUE(SaveServeCheckpoint(ckpt_dir_, State(), offset, &error))
        << error;
  }

  /// End of stream: flush, finalize, seal, last checkpoint.
  void Finish() {
    committer_->OnResults(weaver_->Flush());
    committer_->Finalize();
    EXPECT_TRUE(store_.Seal());
    Checkpoint(stream_.spans.size());
  }

  Outcome Collect() const {
    Outcome out;
    for (const auto& entry : fs::directory_iterator(store_.dir())) {
      out.segments[entry.path().filename().string()] =
          ReadFile(entry.path()).value_or("");
    }
    for (const store::TraceSummary& s : store_.QuerySummaries({})) {
      const auto record = store_.Get(s.trace_id);
      out.provenance[s.trace_id] =
          record != nullptr ? ProvenanceJson(*record) : "missing";
    }
    out.considered = sampler_->considered();
    out.kept = sampler_->kept();
    out.shed = sampler_->shed();
    return out;
  }

  const OnlineTraceWeaver& weaver() const { return *weaver_; }
  const store::TraceCommitter& committer() const { return *committer_; }
  const store::TailSampler& sampler() const { return *sampler_; }

 private:
  const Stream& stream_;
  std::string ckpt_dir_;
  obs::ProvenanceLedger ledger_;
  store::TraceStore store_;
  std::unique_ptr<OnlineTraceWeaver> weaver_;
  std::unique_ptr<store::TailSampler> sampler_;
  std::unique_ptr<store::TraceCommitter> committer_;
};

enum class Boundary { kAfterSeal, kTmpPrefix, kTmpComplete, kAfterRename };

class ServeCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("tw_serve_ckpt_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()) +
             "_" + std::to_string(::getpid()));
    fs::remove_all(root_);
    every_ = TestStream().spans.size() / 4;  // Checkpoints at 1/4, 2/4, 3/4.
    const fs::path dir = root_ / "reference";
    Pipeline p(TestStream(), dir);
    p.Run(0, TestStream().spans.size(), every_);
    p.Finish();
    reference_ = p.Collect();
    ASSERT_GE(reference_.segments.size(), 3u);
    ASSERT_GT(reference_.shed, 0u) << "the sampler must shed something";
    ASSERT_GT(reference_.kept, 0u);
    const bool skew_events = std::any_of(
        reference_.provenance.begin(), reference_.provenance.end(),
        [](const auto& kv) {
          return kv.second.find("skew_correct") != std::string::npos;
        });
    ASSERT_TRUE(skew_events) << "provenance must carry skew_correct events";
  }
  void TearDown() override { fs::remove_all(root_); }

  /// Crashes at `boundary` of checkpoint `generation` (1-based), resumes
  /// and finishes the stream; returns the resumed run's outcome and the
  /// offset it resumed at.
  std::pair<Outcome, std::uint64_t> CrashAndResume(int generation,
                                                   Boundary boundary,
                                                   double tmp_fraction,
                                                   const std::string& tag) {
    const fs::path dir = root_ / tag;
    const std::size_t at = every_ * static_cast<std::size_t>(generation);
    {
      Pipeline p(TestStream(), dir);
      p.Run(0, at, every_);
      const fs::path file = fs::path(p.ckpt_dir()) / "checkpoint.jsonl";
      switch (boundary) {
        case Boundary::kAfterSeal:
          EXPECT_TRUE(p.store().Seal());
          break;
        case Boundary::kTmpPrefix:
        case Boundary::kTmpComplete: {
          // Write the generation for real, then put the directory back
          // the way a crash before the rename leaves it: the previous
          // generation in place and the new one (whole or cut) in tmp.
          const std::optional<std::string> previous = ReadFile(file);
          p.Checkpoint(at);
          const std::string next = ReadFile(file).value_or("");
          const std::size_t keep =
              boundary == Boundary::kTmpComplete
                  ? next.size()
                  : static_cast<std::size_t>(next.size() * tmp_fraction);
          WriteFile(file.string() + ".tmp", next.substr(0, keep));
          if (previous) {
            WriteFile(file, *previous);
          } else {
            fs::remove(file);
          }
          break;
        }
        case Boundary::kAfterRename:
          p.Checkpoint(at);
          break;
      }
    }
    Pipeline resumed(TestStream(), dir);
    const std::uint64_t offset = resumed.Resume();
    resumed.Run(offset, TestStream().spans.size(), every_);
    resumed.Finish();
    return {resumed.Collect(), offset};
  }

  void ExpectSameAsReference(const Outcome& got, const std::string& tag) {
    EXPECT_EQ(got.considered, reference_.considered) << tag;
    EXPECT_EQ(got.kept, reference_.kept) << tag;
    EXPECT_EQ(got.shed, reference_.shed) << tag;
    EXPECT_EQ(got.considered, got.kept + got.shed) << tag;
    ASSERT_EQ(got.provenance.size(), reference_.provenance.size()) << tag;
    for (const auto& [id, json] : reference_.provenance) {
      const auto it = got.provenance.find(id);
      ASSERT_NE(it, got.provenance.end()) << tag << ": trace " << id;
      EXPECT_EQ(it->second, json) << tag << ": trace " << id;
    }
    ASSERT_EQ(got.segments.size(), reference_.segments.size()) << tag;
    for (const auto& [name, bytes] : reference_.segments) {
      const auto it = got.segments.find(name);
      ASSERT_NE(it, got.segments.end()) << tag << ": " << name;
      EXPECT_TRUE(it->second == bytes) << tag << ": " << name << " differs";
    }
  }

  fs::path root_;
  std::size_t every_ = 0;
  Outcome reference_;
};

TEST_F(ServeCheckpointTest, EveryCrashPointResumesToTheUninterruptedRun) {
  for (int generation : {1, 2}) {
    const std::uint64_t previous = every_ * (generation - 1);
    const std::uint64_t current = every_ * generation;
    struct Case {
      Boundary boundary;
      double fraction;
      std::uint64_t resumes_at;
      const char* name;
    };
    const Case cases[] = {
        {Boundary::kAfterSeal, 0, previous, "after_seal"},
        {Boundary::kTmpPrefix, 0.0, previous, "tmp_empty"},
        {Boundary::kTmpPrefix, 0.3, previous, "tmp_30pct"},
        {Boundary::kTmpPrefix, 0.97, previous, "tmp_97pct"},
        {Boundary::kTmpComplete, 1, previous, "tmp_complete"},
        {Boundary::kAfterRename, 1, current, "after_rename"},
    };
    for (const Case& c : cases) {
      const std::string tag =
          "gen" + std::to_string(generation) + "_" + c.name;
      const auto [outcome, offset] =
          CrashAndResume(generation, c.boundary, c.fraction, tag);
      EXPECT_EQ(offset, c.resumes_at) << tag;
      ExpectSameAsReference(outcome, tag);
    }
  }
}

TEST_F(ServeCheckpointTest, OneFilePerGenerationNoSideFiles) {
  Pipeline p(TestStream(), root_ / "files");
  p.Run(0, every_ + 1, every_);
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(p.ckpt_dir())) {
    names.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"checkpoint.jsonl"});
  const std::string bytes =
      ReadFile(fs::path(p.ckpt_dir()) / "checkpoint.jsonl").value_or("");
  // Weaver, committer and sampler sections, in that order.
  const std::size_t weaver = bytes.find(
      std::string("{\"footer\":\"") + OnlineTraceWeaver::kCheckpointSchema);
  const std::size_t committer =
      bytes.find(std::string("{\"footer\":\"") +
                 store::TraceCommitter::kStateSchema);
  const std::size_t sampler = bytes.find(
      std::string("{\"footer\":\"") + store::TailSampler::kStateSchema);
  ASSERT_NE(weaver, std::string::npos);
  ASSERT_NE(committer, std::string::npos);
  ASSERT_NE(sampler, std::string::npos);
  EXPECT_LT(weaver, committer);
  EXPECT_LT(committer, sampler);
  EXPECT_EQ(bytes.find("\"ckpt\":\"posterior\""), std::string::npos);
}

TEST_F(ServeCheckpointTest, DamagedGenerationIsTakenWholeOrNotAtAll) {
  // A generation whose last section is damaged (a flipped byte in the
  // sampler state) or that carries a section the resuming run does not
  // use: the earlier sections parse, but resume must take none of them.
  const fs::path src = root_ / "source";
  std::string bytes;
  {
    Pipeline p(TestStream(), src);
    p.Run(0, 2 * every_, every_);
    bytes = ReadFile(fs::path(p.ckpt_dir()) / "checkpoint.jsonl").value_or("");
  }
  const std::size_t sampler_at =
      bytes.find(std::string("{\"schema\":\"") +
                 store::TailSampler::kStateSchema);
  ASSERT_NE(sampler_at, std::string::npos);
  std::string flipped = bytes;
  flipped[sampler_at + 30] ^= 0x01;

  for (const auto& [name, damaged] :
       {std::pair<std::string, std::string>{"flipped", flipped},
        {"extra_section", bytes + bytes.substr(sampler_at)}}) {
    const fs::path dir = root_ / name;
    fs::create_directories(dir / "store");
    fs::copy(src / "store", dir / "store");
    Pipeline p(TestStream(), dir);
    WriteFile(fs::path(p.ckpt_dir()) / "checkpoint.jsonl", damaged);
    std::uint64_t offset = 7;
    std::string error;
    EXPECT_FALSE(ResumeServeCheckpoint(p.ckpt_dir(), p.State(), &offset,
                                       &error))
        << name;
    EXPECT_FALSE(error.empty()) << name;
    EXPECT_EQ(offset, 7u) << name;
    EXPECT_EQ(p.weaver().stats().ingested, 0u) << name;
    EXPECT_TRUE(p.weaver().assignment().empty()) << name;
    EXPECT_EQ(p.committer().pending_spans(), 0u) << name;
    EXPECT_EQ(p.sampler().considered(), 0u) << name;

    // serve then starts fresh; replaying the whole stream over the
    // already-sealed segments re-commits idempotently.
    p.Run(0, TestStream().spans.size(), every_);
    p.Finish();
    ExpectSameAsReference(p.Collect(), name);
  }
}

}  // namespace
}  // namespace traceweaver::serve
