#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/candidates.h"
#include "test_helpers.h"

namespace traceweaver {
namespace {

using ::traceweaver::testing::MakeSpan;

/// Fixture: parent at A [1000, 9000] with children pools to B and C.
class CandidatesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    parent_ = MakeSpan(1, kClientCaller, "A", "/a", 1000, 9000);
  }

  InvocationPlan SequentialPlan() {
    InvocationPlan plan;
    plan.stages.push_back(Stage{{{"B", "/b", false}}});
    plan.stages.push_back(Stage{{{"C", "/c", false}}});
    return plan;
  }

  InvocationPlan ParallelPlan() {
    InvocationPlan plan;
    plan.stages.push_back(Stage{{{"B", "/b", false}, {"C", "/c", false}}});
    return plan;
  }

  /// Creates a child span observed at A with caller-side window
  /// [send, recv].
  Span Child(SpanId id, const std::string& callee, TimeNs send, TimeNs recv) {
    Span s;
    s.id = id;
    s.caller = "A";
    s.callee = callee;
    s.endpoint = "/" + std::string(1, static_cast<char>(
                                          std::tolower(callee[0])));
    s.client_send = send;
    s.server_recv = send + 10;
    s.server_send = recv - 10;
    s.client_recv = recv;
    return s;
  }

  Span parent_;
};

TEST_F(CandidatesTest, SingleFeasibleMapping) {
  std::vector<Span> owned{Child(10, "B", 2000, 3000),
                          Child(11, "C", 4000, 5000)};
  std::vector<const Span*> pool_b{&owned[0]}, pool_c{&owned[1]};
  auto plan = SequentialPlan();
  auto mappings =
      EnumerateCandidates(parent_, plan, {&pool_b, &pool_c}, {});
  ASSERT_EQ(mappings.size(), 1u);
  EXPECT_EQ(mappings[0].children, (std::vector<SpanId>{10, 11}));
  EXPECT_EQ(mappings[0].skips, 0u);
}

TEST_F(CandidatesTest, ChildOutsideParentWindowIsInfeasible) {
  std::vector<Span> owned{
      Child(10, "B", 500, 3000),    // Sent before parent arrived.
      Child(11, "B", 2000, 9500),   // Returned after parent responded.
      Child(12, "C", 4000, 5000),
  };
  std::vector<const Span*> pool_b{&owned[0], &owned[1]};
  std::vector<const Span*> pool_c{&owned[2]};
  auto plan = SequentialPlan();
  auto mappings =
      EnumerateCandidates(parent_, plan, {&pool_b, &pool_c}, {});
  EXPECT_TRUE(mappings.empty());
}

TEST_F(CandidatesTest, OrderConstraintRejectsOverlappingStages) {
  // C's request departs before B's response returns: infeasible for a
  // sequential plan, feasible if order constraints are disabled.
  std::vector<Span> owned{Child(10, "B", 2000, 5000),
                          Child(11, "C", 4000, 6000)};
  std::vector<const Span*> pool_b{&owned[0]}, pool_c{&owned[1]};
  auto plan = SequentialPlan();

  auto strict = EnumerateCandidates(parent_, plan, {&pool_b, &pool_c}, {});
  EXPECT_TRUE(strict.empty());

  EnumerationOptions loose;
  loose.use_order_constraints = false;
  auto relaxed =
      EnumerateCandidates(parent_, plan, {&pool_b, &pool_c}, loose);
  ASSERT_EQ(relaxed.size(), 1u);
}

TEST_F(CandidatesTest, ParallelPlanAllowsOverlap) {
  std::vector<Span> owned{Child(10, "B", 2000, 5000),
                          Child(11, "C", 2500, 4500)};
  std::vector<const Span*> pool_b{&owned[0]}, pool_c{&owned[1]};
  auto plan = ParallelPlan();
  auto mappings =
      EnumerateCandidates(parent_, plan, {&pool_b, &pool_c}, {});
  ASSERT_EQ(mappings.size(), 1u);
}

TEST_F(CandidatesTest, MultipleCandidatesEnumerated) {
  std::vector<Span> owned{
      Child(10, "B", 2000, 3000), Child(11, "B", 2100, 3100),
      Child(12, "C", 4000, 5000), Child(13, "C", 4100, 5100)};
  std::vector<const Span*> pool_b{&owned[0], &owned[1]};
  std::vector<const Span*> pool_c{&owned[2], &owned[3]};
  auto plan = SequentialPlan();
  auto mappings =
      EnumerateCandidates(parent_, plan, {&pool_b, &pool_c}, {});
  EXPECT_EQ(mappings.size(), 4u);  // 2 x 2 combinations.
}

TEST_F(CandidatesTest, SharedPoolNeverReusesASpan) {
  // Plan calls B twice in one stage; only one B span exists.
  InvocationPlan plan;
  plan.stages.push_back(Stage{{{"B", "/b", false}, {"B", "/b", false}}});
  std::vector<Span> owned{Child(10, "B", 2000, 3000)};
  std::vector<const Span*> pool_b{&owned[0]};
  auto mappings = EnumerateCandidates(parent_, plan, {&pool_b, &pool_b}, {});
  EXPECT_TRUE(mappings.empty());

  std::vector<Span> owned2{Child(10, "B", 2000, 3000),
                           Child(11, "B", 2100, 3100)};
  std::vector<const Span*> pool2{&owned2[0], &owned2[1]};
  auto mappings2 = EnumerateCandidates(parent_, plan, {&pool2, &pool2}, {});
  ASSERT_EQ(mappings2.size(), 2u);
  for (const auto& m : mappings2) {
    EXPECT_NE(m.children[0], m.children[1]);
  }
}

TEST_F(CandidatesTest, OptionalCallCanBeSkipped) {
  InvocationPlan plan;
  plan.stages.push_back(Stage{{{"B", "/b", true}}});  // Optional.
  std::vector<const Span*> empty_pool;
  auto mappings = EnumerateCandidates(parent_, plan, {&empty_pool}, {});
  ASSERT_EQ(mappings.size(), 1u);
  EXPECT_EQ(mappings[0].children[0], kSkippedChild);
  EXPECT_EQ(mappings[0].skips, 1u);
}

TEST_F(CandidatesTest, AllowAllSkipsGeneratesSkipVariants) {
  std::vector<Span> owned{Child(10, "B", 2000, 3000),
                          Child(11, "C", 4000, 5000)};
  std::vector<const Span*> pool_b{&owned[0]}, pool_c{&owned[1]};
  auto plan = SequentialPlan();
  EnumerationOptions opts;
  opts.allow_all_skips = true;
  auto mappings =
      EnumerateCandidates(parent_, plan, {&pool_b, &pool_c}, opts);
  // (B, C), (B, skip), (skip, C), (skip, skip).
  EXPECT_EQ(mappings.size(), 4u);
  // The complete mapping is explored first.
  EXPECT_EQ(mappings[0].skips, 0u);
}

TEST_F(CandidatesTest, TotalCapBoundsEnumeration) {
  std::vector<Span> owned;
  for (SpanId i = 0; i < 30; ++i) {
    owned.push_back(Child(100 + i, "B", 2000 + static_cast<TimeNs>(i),
                          3000 + static_cast<TimeNs>(i)));
  }
  std::vector<const Span*> pool_b;
  for (const Span& s : owned) pool_b.push_back(&s);
  InvocationPlan plan;
  plan.stages.push_back(Stage{{{"B", "/b", false}}});
  EnumerationOptions opts;
  opts.branch_cap = 100;
  opts.total_cap = 7;
  auto mappings = EnumerateCandidates(parent_, plan, {&pool_b}, opts);
  EXPECT_EQ(mappings.size(), 7u);
}

TEST_F(CandidatesTest, BranchCapPrefersNearestInTime) {
  std::vector<Span> owned;
  for (SpanId i = 0; i < 10; ++i) {
    owned.push_back(Child(100 + i, "B", 2000 + 100 * static_cast<TimeNs>(i),
                          8000));
  }
  std::vector<const Span*> pool_b;
  for (const Span& s : owned) pool_b.push_back(&s);
  InvocationPlan plan;
  plan.stages.push_back(Stage{{{"B", "/b", false}}});
  EnumerationOptions opts;
  opts.branch_cap = 3;
  auto mappings = EnumerateCandidates(parent_, plan, {&pool_b}, opts);
  ASSERT_EQ(mappings.size(), 3u);
  // The three earliest feasible sends win.
  std::vector<SpanId> got;
  for (const auto& m : mappings) got.push_back(m.children[0]);
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<SpanId>{100, 101, 102}));
}

TEST_F(CandidatesTest, ScoringPrefersTypicalGaps) {
  DelayModel model;
  // B is called ~1000ns after the parent arrives.
  model.SetSeed(DelayKey{"A", "/a", 0, 0}, Gaussian{1000.0, 100.0});
  model.SetSeed(DelayKey::ResponseGap("A", "/a"), Gaussian{4000.0, 2000.0});

  InvocationPlan plan;
  plan.stages.push_back(Stage{{{"B", "/b", false}}});

  std::vector<Span> owned{Child(10, "B", 2000, 3000),   // Gap 1000: typical.
                          Child(11, "B", 5000, 6000)};  // Gap 4000: unusual.
  const std::vector<const Span*> resolved{&owned[0], &owned[1]};
  const CandidateGapTable table = BuildGapTable(
      parent_, plan.Positions(), resolved.data(), 2, true);

  const DelayModel::DistView view = model.View(DelayKey{"A", "/a", 0, 0});
  const DelayModel::DistView response =
      model.View(DelayKey::ResponseGap("A", "/a"));
  const std::vector<ScoringContext::PositionScore> terms{
      {-6.0, 0.0, view.mixture, view.max_log_pdf}};
  ScoringContext ctx;
  ctx.position_scores = &terms;
  ctx.response_dist = response.mixture;
  ctx.response_max_log_pdf = response.max_log_pdf;
  const double good = ScoreCandidate(table, 0, ctx);
  const double bad = ScoreCandidate(table, 1, ctx);
  EXPECT_GT(good, bad);

  // The batch scorer reproduces the scalar reference bit for bit.
  std::vector<double> scores(2), scratch(2);
  ScoreCandidatesBatch(table, ctx, scores, scratch);
  EXPECT_EQ(scores[0], good);
  EXPECT_EQ(scores[1], bad);
}

TEST_F(CandidatesTest, SkipRateShapesSkipPenalty) {
  InvocationPlan plan;
  plan.stages.push_back(Stage{{{"B", "/b", false}}});
  const std::vector<const Span*> resolved{nullptr};
  const CandidateGapTable table =
      BuildGapTable(parent_, plan.Positions(), resolved.data(), 1, true);

  // Per-backend skip rates enter as log(rate) / log(1 - rate) terms.
  std::vector<ScoringContext::PositionScore> terms{
      {std::log(0.5), std::log(0.5), nullptr, 0.0}};
  ScoringContext ctx;
  ctx.position_scores = &terms;
  const double cheap_skip = ScoreCandidate(table, 0, ctx);
  terms[0].skip_lp = std::log(0.01);
  terms[0].keep_lp = std::log(0.99);
  const double dear_skip = ScoreCandidate(table, 0, ctx);
  EXPECT_GT(cheap_skip, dear_skip);
  // An all-skip candidate has no response term: just log(rate) + margin.
  EXPECT_EQ(cheap_skip, std::log(0.5) + ctx.skip_margin);
  EXPECT_EQ(dear_skip, std::log(0.01) + ctx.skip_margin);
}

TEST_F(CandidatesTest, GapTableMatchesScoringTriggers) {
  std::vector<Span> owned{Child(10, "B", 2000, 3000),
                          Child(11, "C", 4000, 5000)};
  auto plan = SequentialPlan();
  const std::vector<const Span*> resolved{&owned[0], &owned[1]};
  const CandidateGapTable t =
      BuildGapTable(parent_, plan.Positions(), resolved.data(), 1, true);
  ASSERT_EQ(t.num_positions, 2u);  // B gap, C gap, plus the response gap.
  EXPECT_EQ(t.filled[t.Slot(0, 0)], 1);
  EXPECT_EQ(t.filled[t.Slot(1, 0)], 1);
  // B: 2000 - 1000 (parent recv); C: 4000 - 3000 (B's completion).
  EXPECT_DOUBLE_EQ(t.gaps[t.Slot(0, 0)], 1000.0);
  EXPECT_DOUBLE_EQ(t.gaps[t.Slot(1, 0)], 1000.0);
  EXPECT_EQ(t.any_child[0], 1);
  EXPECT_DOUBLE_EQ(t.response_gap[0], 4000.0);  // 9000 - 5000.

  // Order constraints off (ablation): every call is timed from the parent
  // arrival.
  const CandidateGapTable flat =
      BuildGapTable(parent_, plan.Positions(), resolved.data(), 1, false);
  EXPECT_DOUBLE_EQ(flat.gaps[flat.Slot(0, 0)], 1000.0);  // 2000 - 1000.
  EXPECT_DOUBLE_EQ(flat.gaps[flat.Slot(1, 0)], 3000.0);  // 4000 - 1000.
  EXPECT_DOUBLE_EQ(flat.response_gap[0], 4000.0);
}

TEST_F(CandidatesTest, GapTableSkipsSkippedPositions) {
  auto plan = SequentialPlan();
  std::vector<Span> owned{Child(10, "B", 2000, 3000)};
  const std::vector<const Span*> resolved{&owned[0], nullptr};
  const CandidateGapTable t =
      BuildGapTable(parent_, plan.Positions(), resolved.data(), 1, true);
  // B gap + response gap only.
  EXPECT_EQ(t.filled[t.Slot(0, 0)], 1);
  EXPECT_EQ(t.filled[t.Slot(1, 0)], 0);
  EXPECT_DOUBLE_EQ(t.gaps[t.Slot(1, 0)], 0.0);
  EXPECT_EQ(t.any_child[0], 1);
  EXPECT_DOUBLE_EQ(t.response_gap[0], 6000.0);  // 9000 - 3000.
}

}  // namespace
}  // namespace traceweaver
