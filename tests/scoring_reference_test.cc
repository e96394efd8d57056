// Reference check for candidate scoring (DESIGN.md §4g). Ranking scores
// every candidate with the batch scorer (ScoreCandidatesBatch, behind
// ParentResult::ranked); the explain drill-down scores with the scalar
// reference scorer (ScoreCandidate). On real workloads, every in-top-K
// explain row must equal its ranked entry bitwise -- score, children,
// skips -- at one thread and at four, and reconstruction must be
// byte-identical across thread counts.
//
// No score bits are committed as goldens: the batch kernels pick a SIMD or
// scalar variant once per process (stats/fast_exp.h) and the variants may
// round differently, so both sides are computed in the same process.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "callgraph/inference.h"
#include "collector/capture.h"
#include "core/explain.h"
#include "core/trace_weaver.h"
#include "sim/apps.h"
#include "sim/workload.h"
#include "trace/trace_store.h"
#include "util/thread_pool.h"

namespace traceweaver {
namespace {

struct Pipeline {
  std::vector<Span> spans;
  CallGraph graph;
};

Pipeline RunPipeline(const sim::AppSpec& app, double rps, double seconds,
                     std::uint64_t seed = 31) {
  Pipeline p;
  sim::IsolatedReplayOptions iso;
  iso.requests_per_root = 20;
  p.graph = InferCallGraph(
      collector::CaptureRoundTrip(sim::RunIsolatedReplay(app, iso).spans));
  sim::OpenLoopOptions load;
  load.requests_per_sec = rps;
  load.duration = Seconds(seconds);
  load.seed = seed;
  p.spans = collector::CaptureRoundTrip(sim::RunOpenLoop(app, load).spans);
  return p;
}

/// Serializes everything scoring may influence into one comparable byte
/// string: the assignment, every ranked candidate's exact score bits, and
/// the quality layer's per-assignment and per-trace output.
std::string Fingerprint(const TraceWeaverOutput& out) {
  std::string s;
  char buf[256];
  for (const auto& [child, parent] : out.assignment) {
    std::snprintf(buf, sizeof(buf), "a %llu -> %llu\n",
                  static_cast<unsigned long long>(child),
                  static_cast<unsigned long long>(parent));
    s += buf;
  }
  for (const ContainerResult& c : out.containers) {
    for (const ParentResult& p : c.parents) {
      std::snprintf(buf, sizeof(buf), "p %llu chosen=%d considered=%zu\n",
                    static_cast<unsigned long long>(p.parent), p.chosen,
                    p.candidates_considered);
      s += buf;
      for (const CandidateMapping& m : p.ranked) {
        // %a prints the exact bits; any FP divergence shows up here.
        std::snprintf(buf, sizeof(buf), "r %a skips=%zu", m.score, m.skips);
        s += buf;
        for (const SpanId child : m.children) {
          std::snprintf(buf, sizeof(buf), " %llu",
                        static_cast<unsigned long long>(child));
          s += buf;
        }
        s += '\n';
      }
    }
  }
  for (const obs::AssignmentQuality& q : out.quality.assignments) {
    std::snprintf(buf, sizeof(buf),
                  "q %llu %s m=%d t=%d conf=%a post=%a marg=%a ent=%a\n",
                  static_cast<unsigned long long>(q.parent),
                  q.service.c_str(), q.mapped ? 1 : 0, q.top_choice ? 1 : 0,
                  q.confidence, q.posterior, q.margin, q.entropy);
    s += buf;
  }
  for (const obs::TraceQuality& t : out.quality.traces) {
    std::snprintf(buf, sizeof(buf), "t %llu n=%zu grade=%c conf=%a min=%a\n",
                  static_cast<unsigned long long>(t.root), t.spans, t.grade,
                  t.confidence, t.min_confidence);
    s += buf;
  }
  return s;
}

std::string Reconstruct(const Pipeline& p, std::size_t threads) {
  TraceWeaverOptions opts;
  opts.num_threads = threads;
  opts.compute_quality = true;
  TraceWeaver weaver(p.graph, opts);
  return Fingerprint(weaver.Reconstruct(p.spans));
}

const ParentResult* FindParent(const ContainerResult& result, SpanId id) {
  for (const ParentResult& r : result.parents) {
    if (r.parent == id) return &r;
  }
  return nullptr;
}

/// Re-optimizes `view` with the explain drill-down armed for `parent` and
/// checks every in-top-K explain row against the ranked entry of the same
/// run. Returns the number of rows compared.
std::size_t ExpectExplainMatchesRanked(const ContainerView& view,
                                       const CallGraph& graph,
                                       OptimizerOptions opts, SpanId parent) {
  ExplainCapture capture;
  opts.explain_parent = parent;
  opts.explain_out = &capture;
  const ContainerResult result = OptimizeContainer(view, graph, opts);
  const ParentResult* r = FindParent(result, parent);
  EXPECT_TRUE(capture.found);
  if (r == nullptr || !capture.found) {
    ADD_FAILURE() << "parent " << parent << " not found";
    return 0;
  }
  EXPECT_EQ(capture.chosen_rank, r->chosen) << "parent " << parent;
  EXPECT_GE(capture.candidates.size(), r->ranked.size());
  std::size_t rows = 0;
  for (std::size_t j = 0;
       j < r->ranked.size() && j < capture.candidates.size(); ++j) {
    const ExplainCandidate& row = capture.candidates[j];
    const CandidateMapping& ranked = r->ranked[j];
    EXPECT_TRUE(row.in_top_k);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(row.score),
              std::bit_cast<std::uint64_t>(ranked.score))
        << "parent " << parent << " rank " << j << ": scalar " << row.score
        << " vs batch " << ranked.score;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(row.breakdown.total),
              std::bit_cast<std::uint64_t>(ranked.score))
        << "parent " << parent << " rank " << j;
    EXPECT_EQ(row.children, ranked.children)
        << "parent " << parent << " rank " << j;
    EXPECT_EQ(row.skips, ranked.skips) << "parent " << parent << " rank " << j;
    ++rows;
  }
  return rows;
}

/// For each container's first and last mapped parent -- plus its mapped
/// parent with the most enumerated candidates, so contested rankings are
/// covered too -- checks the scalar explain rows against the batch-ranked
/// entries at `threads`.
void CheckBatchMatchesScalar(const Pipeline& p, std::size_t threads) {
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  OptimizerOptions opts;
  opts.pool = pool.get();

  const SpanStore store(p.spans);
  std::size_t parents = 0, rows = 0, contested_rows = 0;
  for (const ContainerView& view : store.AllViews()) {
    const ContainerResult base = OptimizeContainer(view, p.graph, opts);
    const ParentResult* first = nullptr;
    const ParentResult* last = nullptr;
    const ParentResult* busiest = nullptr;
    for (const ParentResult& r : base.parents) {
      if (!r.Mapped()) continue;
      if (first == nullptr) first = &r;
      last = &r;
      if (busiest == nullptr ||
          r.candidates_considered > busiest->candidates_considered) {
        busiest = &r;
      }
    }
    if (first == nullptr) continue;
    for (const ParentResult* r : {first, last, busiest}) {
      const std::size_t n =
          ExpectExplainMatchesRanked(view, p.graph, opts, r->parent);
      ++parents;
      rows += n;
      if (n > 1) contested_rows += n;
    }
  }
  // The comparison must actually cover parents with competing candidates.
  EXPECT_GT(parents, 0u);
  EXPECT_GT(rows, parents);
  EXPECT_GT(contested_rows, 0u);
}

TEST(ScoringReference, HotelBatchMatchesScalarSerial) {
  const Pipeline p = RunPipeline(sim::MakeHotelReservationApp(), 300, 2);
  CheckBatchMatchesScalar(p, /*threads=*/1);
}

TEST(ScoringReference, HotelBatchMatchesScalarFourThreads) {
  const Pipeline p = RunPipeline(sim::MakeHotelReservationApp(), 300, 2);
  CheckBatchMatchesScalar(p, /*threads=*/4);

  // The parallel determinism contract: byte-identical across thread counts.
  const std::string serial = Reconstruct(p, /*threads=*/1);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, Reconstruct(p, /*threads=*/4));
}

TEST(ScoringReference, MediaAndChainBatchMatchesScalar) {
  // Different topologies exercise different enumeration/window shapes.
  using AppFactory = sim::AppSpec (*)();
  for (const AppFactory make : {&sim::MakeMediaMicroservicesApp,
                                &sim::MakeLinearChainApp}) {
    const Pipeline p = RunPipeline((*make)(), 200, 2);
    CheckBatchMatchesScalar(p, /*threads=*/1);
    CheckBatchMatchesScalar(p, /*threads=*/4);
    EXPECT_EQ(Reconstruct(p, 1), Reconstruct(p, 4));
  }
}

}  // namespace
}  // namespace traceweaver
