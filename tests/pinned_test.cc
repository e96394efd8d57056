// Partial instrumentation (§2.2.6): pinned child->parent links from
// instrumented services are honored verbatim and improve reconstruction of
// the remaining, uninstrumented links.
#include <gtest/gtest.h>

#include "callgraph/inference.h"
#include "core/accuracy.h"
#include "core/explain.h"
#include "core/trace_weaver.h"
#include "sim/apps.h"
#include "sim/workload.h"
#include "util/rng.h"

namespace traceweaver {
namespace {

struct Fixture {
  std::vector<Span> spans;
  CallGraph graph;
};

Fixture MakeFixture(double rps, std::uint64_t seed = 41, double seconds = 2) {
  Fixture f;
  sim::AppSpec app = sim::MakeHotelReservationApp();
  sim::IsolatedReplayOptions iso;
  iso.requests_per_root = 20;
  f.graph = InferCallGraph(sim::RunIsolatedReplay(app, iso).spans);
  sim::OpenLoopOptions load;
  load.requests_per_sec = rps;
  load.duration = Seconds(seconds);
  load.seed = seed;
  f.spans = sim::RunOpenLoop(app, load).spans;
  return f;
}

/// Pins the true links for children issued by `service`.
ParentAssignment PinService(const std::vector<Span>& spans,
                            const std::string& service) {
  ParentAssignment pinned;
  for (const Span& s : spans) {
    if (s.caller == service && s.true_parent != kInvalidSpanId) {
      pinned[s.id] = s.true_parent;
    }
  }
  return pinned;
}

TEST(Pinned, PinnedLinksAppearVerbatimInOutput) {
  Fixture f = MakeFixture(400);
  const ParentAssignment pinned = PinService(f.spans, "frontend");

  TraceWeaverOptions opts;
  opts.optimizer.pinned = &pinned;
  TraceWeaver weaver(f.graph, opts);
  const auto out = weaver.Reconstruct(f.spans);
  for (const auto& [child, parent] : pinned) {
    ASSERT_TRUE(out.assignment.count(child));
    EXPECT_EQ(out.assignment.at(child), parent);
  }
}

TEST(Pinned, PinningNeverHurtsAccuracy) {
  Fixture f = MakeFixture(1500);
  TraceWeaver plain(f.graph);
  const double base =
      Evaluate(f.spans, plain.Reconstruct(f.spans).assignment)
          .TraceAccuracy();

  const ParentAssignment pinned = PinService(f.spans, "frontend");
  TraceWeaverOptions opts;
  opts.optimizer.pinned = &pinned;
  TraceWeaver weaver(f.graph, opts);
  const double with_pins =
      Evaluate(f.spans, weaver.Reconstruct(f.spans).assignment)
          .TraceAccuracy();
  EXPECT_GE(with_pins + 1e-9, base);
  EXPECT_GT(with_pins, 0.0);
}

TEST(Pinned, FullPinningIsPerfect) {
  Fixture f = MakeFixture(1200);
  ParentAssignment pinned;
  for (const Span& s : f.spans) {
    if (s.true_parent != kInvalidSpanId) pinned[s.id] = s.true_parent;
  }
  TraceWeaverOptions opts;
  opts.optimizer.pinned = &pinned;
  TraceWeaver weaver(f.graph, opts);
  const auto report =
      Evaluate(f.spans, weaver.Reconstruct(f.spans).assignment);
  EXPECT_DOUBLE_EQ(report.SpanAccuracy(), 1.0);
  EXPECT_DOUBLE_EQ(report.TraceAccuracy(), 1.0);
}

TEST(Pinned, WrongPinsAreHonoredNotSecondGuessed) {
  // Instrumentation is authoritative even when (hypothetically) wrong.
  Fixture f = MakeFixture(200);
  // Pin one child to a bogus parent.
  SpanId child = kInvalidSpanId;
  for (const Span& s : f.spans) {
    if (s.caller == "frontend" && s.true_parent != kInvalidSpanId) {
      child = s.id;
      break;
    }
  }
  ASSERT_NE(child, kInvalidSpanId);
  ParentAssignment pinned{{child, 999999999ull}};

  TraceWeaverOptions opts;
  opts.optimizer.pinned = &pinned;
  TraceWeaver weaver(f.graph, opts);
  const auto out = weaver.Reconstruct(f.spans);
  EXPECT_EQ(out.assignment.at(child), 999999999ull);
}

// The explain drill-down scores against exactly the terms the ranking
// used. A position whose pool holds only pinned children has no observed
// skip rate, so its fallback skip/keep terms carry the sampling adjustment
// -- in the ranking and in the explain rows alike.
TEST(Pinned, ExplainMatchesRankedScoresUnderSampling) {
  Fixture f = MakeFixture(200, 41, /*seconds=*/1);
  const ParentAssignment pinned = PinService(f.spans, "frontend");
  TraceWeaverOptions opts;
  opts.optimizer.pinned = &pinned;
  opts.optimizer.params.sampling_rate = 0.5;
  const auto out = TraceWeaver(f.graph, opts).Reconstruct(f.spans);

  std::size_t checked = 0;
  for (const ContainerResult& c : out.containers) {
    if (c.instance.service != "frontend") continue;
    for (const ParentResult& r : c.parents) {
      if (!r.Mapped() || checked == 8) continue;
      ExplainCapture capture;
      TraceWeaverOptions explain = opts;
      explain.optimizer.explain_parent = r.parent;
      explain.optimizer.explain_out = &capture;
      TraceWeaver(f.graph, explain).Reconstruct(f.spans);
      ASSERT_TRUE(capture.found);
      ASSERT_GE(capture.candidates.size(), r.ranked.size());
      for (std::size_t j = 0; j < r.ranked.size(); ++j) {
        EXPECT_EQ(capture.candidates[j].score, r.ranked[j].score)
            << "parent " << r.parent << " rank " << j;
        EXPECT_EQ(capture.candidates[j].children, r.ranked[j].children);
      }
      ++checked;
    }
  }
  EXPECT_EQ(checked, 8u);
}

class PinSweep : public ::testing::TestWithParam<double> {};

// Pinning a random fraction of children: accuracy should rise (weakly)
// with the pinned fraction -- the §6.3.2 partial-instrumentation story.
TEST_P(PinSweep, AccuracyImprovesWithInstrumentationCoverage) {
  Fixture f = MakeFixture(1200, 47);
  Rng rng(7);
  ParentAssignment pinned;
  for (const Span& s : f.spans) {
    if (s.true_parent != kInvalidSpanId && rng.Bernoulli(GetParam())) {
      pinned[s.id] = s.true_parent;
    }
  }
  TraceWeaver plain(f.graph);
  const double base =
      Evaluate(f.spans, plain.Reconstruct(f.spans).assignment)
          .SpanAccuracy();

  TraceWeaverOptions opts;
  opts.optimizer.pinned = &pinned;
  TraceWeaver weaver(f.graph, opts);
  const double with_pins =
      Evaluate(f.spans, weaver.Reconstruct(f.spans).assignment)
          .SpanAccuracy();
  EXPECT_GE(with_pins + 0.01, base) << "fraction=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Fractions, PinSweep,
                         ::testing::Values(0.1, 0.3, 0.6));

}  // namespace
}  // namespace traceweaver
