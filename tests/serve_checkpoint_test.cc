// Crash points of the serve checkpoint (serve/serve_checkpoint.h).
//
// The serve pipeline (serve/pipeline.h) -- online weaver with skew
// correction, decision provenance, trace store and tail sampler, with the
// options `traceweaver serve --store-dir --tail-sample --skew-correct`
// gives it -- runs a stream through several periodic checkpoints. At
// each durable-write boundary of a checkpoint (store sealed; tmp file cut
// short; tmp file complete but not renamed; renamed) the process
// "crashes" (every in-memory object is dropped) and a new pipeline
// resumes from the directories alone. The resumed run must leave the
// same store segment bytes, the same per-trace provenance and the same
// sampler accounting as the run that never crashed.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "serve_pipeline_helpers.h"

namespace traceweaver::serve {
namespace {

using namespace testing;  // NOLINT: the shared serve-pipeline fixtures.

enum class Boundary { kAfterSeal, kTmpPrefix, kTmpComplete, kAfterRename };

class ServeCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = TestDir("tw_serve_ckpt_");
    every_ = TestStream().spans.size() / 4;  // Checkpoints at 1/4, 2/4, 3/4.
    auto p = OpenPipeline(ServeOptions(root_ / "reference", every_));
    Feed(*p, 0, TestStream().spans.size());
    Finish(*p);
    reference_ = Collect(*p);
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
      auto p = OpenPipeline(ServeOptions(dir, every_));
      Feed(*p, 0, at - 1);
      const fs::path file =
          fs::path(p->options().checkpoint_dir) / "checkpoint.jsonl";
      const std::optional<std::string> previous = ReadFile(file);
      // Span `at` triggers the generation for real: seal, tmp write,
      // rename. Then put the directory back the way a crash at
      // `boundary` leaves it: the store stays sealed, and before the
      // rename the previous generation is in place with the new one
      // (whole or cut) in tmp.
      Feed(*p, at - 1, at);
      const std::string next = ReadFile(file).value_or("");
      EXPECT_NE(next, previous.value_or("")) << tag;
      if (boundary != Boundary::kAfterRename) {
        if (boundary != Boundary::kAfterSeal) {
          const std::size_t keep =
              boundary == Boundary::kTmpComplete
                  ? next.size()
                  : static_cast<std::size_t>(next.size() * tmp_fraction);
          WriteFile(file.string() + ".tmp", next.substr(0, keep));
        }
        if (previous) {
          WriteFile(file, *previous);
        } else {
          fs::remove(file);
        }
      }
    }
    auto resumed = OpenPipeline(ServeOptions(dir, every_));
    const std::uint64_t offset = Resume(*resumed);
    Feed(*resumed, offset, TestStream().spans.size());
    Finish(*resumed);
    return {Collect(*resumed), offset};
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
      ExpectSameOutcome(outcome, reference_, tag);
    }
  }
}

TEST_F(ServeCheckpointTest, OneFilePerGenerationNoSideFiles) {
  auto p = OpenPipeline(ServeOptions(root_ / "files", every_));
  Feed(*p, 0, every_ + 1);
  const fs::path ckpt_dir = p->options().checkpoint_dir;
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(ckpt_dir)) {
    names.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(names, std::vector<std::string>{"checkpoint.jsonl"});
  const std::string bytes =
      ReadFile(ckpt_dir / "checkpoint.jsonl").value_or("");
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
    // Stops one span short of the second checkpoint: generation 1.
    auto p = OpenPipeline(ServeOptions(src, every_));
    Feed(*p, 0, 2 * every_ - 1);
    bytes = ReadFile(fs::path(p->options().checkpoint_dir) /
                     "checkpoint.jsonl")
                .value_or("");
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
    auto p = OpenPipeline(ServeOptions(dir, every_));
    WriteFile(fs::path(p->options().checkpoint_dir) / "checkpoint.jsonl",
              damaged);
    std::uint64_t offset = 7;
    std::string error;
    EXPECT_FALSE(p->Resume(&offset, &error)) << name;
    EXPECT_FALSE(error.empty()) << name;
    EXPECT_EQ(offset, 7u) << name;
    EXPECT_EQ(p->weaver().stats().ingested, 0u) << name;
    EXPECT_TRUE(p->weaver().assignment().empty()) << name;
    EXPECT_EQ(p->committer()->pending_spans(), 0u) << name;
    EXPECT_EQ(p->sampler()->considered(), 0u) << name;

    // serve then starts fresh; replaying the whole stream over the
    // already-sealed segments re-commits idempotently.
    Feed(*p, 0, TestStream().spans.size());
    Finish(*p);
    ExpectSameOutcome(Collect(*p), reference_, name);
  }
}

}  // namespace
}  // namespace traceweaver::serve
