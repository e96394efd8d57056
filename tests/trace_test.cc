#include <gtest/gtest.h>

#include <sstream>

#include "test_helpers.h"
#include "trace/jsonl_io.h"
#include "trace/span.h"
#include "trace/span_soa.h"
#include "trace/trace.h"

namespace traceweaver {
namespace {

using ::traceweaver::testing::MakeSpan;

TEST(Span, TimestampConsistency) {
  Span s = MakeSpan(1, "A", "B", "/x", 100, 200);
  EXPECT_TRUE(TimestampsConsistent(s));
  s.server_recv = s.client_send - 1;
  EXPECT_FALSE(TimestampsConsistent(s));
}

TEST(Span, Durations) {
  Span s = MakeSpan(1, "A", "B", "/x", Millis(1), Millis(3), Micros(100));
  EXPECT_EQ(s.ServerDuration(), Millis(2));
  EXPECT_EQ(s.ClientDuration(), Millis(2) + 2 * Micros(100));
}

TEST(Span, RootDetection) {
  EXPECT_TRUE(MakeSpan(1, kClientCaller, "fe", "/", 0, 1).IsRoot());
  EXPECT_FALSE(MakeSpan(1, "fe", "be", "/", 0, 1).IsRoot());
}

TEST(Span, StartOrderBreaksTiesByEndThenId) {
  Span a = MakeSpan(1, "x", "y", "/", 100, 300);
  Span b = MakeSpan(2, "x", "y", "/", 100, 200);
  EXPECT_TRUE(SpanStartOrder{}(b, a));  // Same start, earlier end first.
  Span c = MakeSpan(3, "x", "y", "/", 100, 300);
  EXPECT_TRUE(SpanStartOrder{}(a, c));  // Same window, lower id first.
}

TEST(TraceForest, BuildsTreeFromAssignment) {
  std::vector<Span> spans{
      MakeSpan(1, kClientCaller, "A", "/a", 0, 1000),
      MakeSpan(2, "A", "B", "/b", 100, 400),
      MakeSpan(3, "A", "C", "/c", 500, 900),
      MakeSpan(4, "B", "D", "/d", 200, 300),
  };
  ParentAssignment parents{{1, kInvalidSpanId}, {2, 1}, {3, 1}, {4, 2}};
  TraceForest forest(spans, parents);
  ASSERT_EQ(forest.roots().size(), 1u);
  const std::size_t root = forest.roots()[0];
  EXPECT_EQ(forest.nodes()[root].span, 1u);
  EXPECT_EQ(forest.SubtreeSize(root), 4u);
  ASSERT_EQ(forest.nodes()[root].children.size(), 2u);
  // Children ordered by send time: B before C.
  EXPECT_EQ(forest.nodes()[forest.nodes()[root].children[0]].span, 2u);
  EXPECT_EQ(forest.nodes()[forest.nodes()[root].children[1]].span, 3u);
}

TEST(TraceForest, OrphansBecomeRoots) {
  std::vector<Span> spans{
      MakeSpan(1, "A", "B", "/b", 0, 100),
      MakeSpan(2, "B", "C", "/c", 10, 90),
  };
  ParentAssignment parents{{1, 999}, {2, 1}};  // 999 not in population.
  TraceForest forest(spans, parents);
  ASSERT_EQ(forest.roots().size(), 1u);
  EXPECT_EQ(forest.SubtreeSize(forest.roots()[0]), 2u);
}

TEST(TraceForest, SubtreeSpanIdsCollectsAll) {
  std::vector<Span> spans{
      MakeSpan(1, kClientCaller, "A", "/a", 0, 1000),
      MakeSpan(2, "A", "B", "/b", 100, 400),
      MakeSpan(3, "B", "C", "/c", 150, 350),
  };
  ParentAssignment parents{{1, kInvalidSpanId}, {2, 1}, {3, 2}};
  TraceForest forest(spans, parents);
  auto ids = forest.SubtreeSpanIds(forest.roots()[0]);
  EXPECT_EQ(ids.size(), 3u);
}

TEST(TraceForest, EndToEndLatencyUsesServerSideForRoots) {
  std::vector<Span> spans{MakeSpan(1, kClientCaller, "A", "/a", 0, Millis(5))};
  TraceForest forest(spans, TrueParents(spans));
  EXPECT_EQ(forest.EndToEndLatency(forest.roots()[0]), Millis(5));
}

TEST(TrueParents, ExtractsGroundTruth) {
  std::vector<Span> spans{
      MakeSpan(1, kClientCaller, "A", "/a", 0, 100, Micros(10),
               kInvalidSpanId, 7),
      MakeSpan(2, "A", "B", "/b", 10, 50, Micros(10), 1, 7),
  };
  auto parents = TrueParents(spans);
  EXPECT_EQ(parents.at(2), 1u);
  EXPECT_EQ(parents.at(1), kInvalidSpanId);
}

TEST(JsonlIo, RoundTripPreservesAllFields) {
  Span s = MakeSpan(42, "front-end", "back:end", "/api?q=1", Millis(1),
                    Millis(2), Micros(50), 7, 9);
  s.caller_replica = 2;
  s.callee_replica = 3;
  s.caller_thread = 4;
  s.handler_thread = 5;
  auto parsed = SpanFromJson(SpanToJson(s, /*include_ground_truth=*/true));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->id, s.id);
  EXPECT_EQ(parsed->caller, s.caller);
  EXPECT_EQ(parsed->callee, s.callee);
  EXPECT_EQ(parsed->endpoint, s.endpoint);
  EXPECT_EQ(parsed->client_send, s.client_send);
  EXPECT_EQ(parsed->server_recv, s.server_recv);
  EXPECT_EQ(parsed->server_send, s.server_send);
  EXPECT_EQ(parsed->client_recv, s.client_recv);
  EXPECT_EQ(parsed->caller_replica, s.caller_replica);
  EXPECT_EQ(parsed->callee_replica, s.callee_replica);
  EXPECT_EQ(parsed->true_parent, s.true_parent);
  EXPECT_EQ(parsed->true_trace, s.true_trace);
}

TEST(JsonlIo, GroundTruthOmittedByDefault) {
  Span s = MakeSpan(1, "A", "B", "/x", 0, 100, Micros(10), 55, 66);
  const std::string line = SpanToJson(s);
  EXPECT_EQ(line.find("true_parent"), std::string::npos);
  auto parsed = SpanFromJson(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->true_parent, kInvalidSpanId);
}

TEST(JsonlIo, EscapesSpecialCharacters) {
  Span s = MakeSpan(1, "a\"b", "c\\d", "/e\nf", 0, 100);
  auto parsed = SpanFromJson(SpanToJson(s));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->caller, "a\"b");
  EXPECT_EQ(parsed->callee, "c\\d");
  EXPECT_EQ(parsed->endpoint, "/e\nf");
}

TEST(JsonlIo, MalformedLinesAreRejected) {
  EXPECT_FALSE(SpanFromJson("").has_value());
  EXPECT_FALSE(SpanFromJson("{}").has_value());
  EXPECT_FALSE(SpanFromJson("{\"id\":1}").has_value());
  EXPECT_FALSE(SpanFromJson("not json at all").has_value());
}

TEST(JsonlIo, StreamRoundTripSkipsBadLines) {
  std::vector<Span> spans{
      MakeSpan(1, kClientCaller, "A", "/a", 0, 100),
      MakeSpan(2, "A", "B", "/b", 10, 50),
  };
  std::ostringstream out;
  WriteSpansJsonl(out, spans);
  std::string payload = out.str() + "garbage line\n\n";
  std::istringstream in(payload);
  std::size_t dropped = 0;
  auto read = ReadSpansJsonl(in, &dropped);
  EXPECT_EQ(read.size(), 2u);
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(read[0].id, 1u);
  EXPECT_EQ(read[1].callee, "B");
}

TEST(SpanColumns, BuildMirrorsClientTimestamps) {
  std::vector<Span> owned{MakeSpan(7, "A", "B", "/b", 1000, 5000),
                          MakeSpan(3, "A", "C", "/c", 2000, 3000),
                          MakeSpan(9, "A", "B", "/x", 2500, 8000)};
  const std::vector<const Span*> src{&owned[0], &owned[1], &owned[2]};

  SpanColumns col;
  col.Build(src);
  ASSERT_EQ(col.size(), src.size());
  ASSERT_EQ(col.client_recv.size(), src.size());
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_EQ(col.client_send[i], src[i]->client_send);
    EXPECT_EQ(col.client_recv[i], src[i]->client_recv);
  }
  // A rebuild replaces both columns.
  const std::vector<const Span*> second{&owned[1]};
  col.Build(second);
  ASSERT_EQ(col.size(), 1u);
  EXPECT_EQ(col.client_send[0], owned[1].client_send);
  EXPECT_EQ(col.client_recv[0], owned[1].client_recv);
}

TEST(SpanColumns, EmptyInput) {
  std::vector<Span> owned{MakeSpan(1, "A", "B", "/b", 10, 20)};
  const std::vector<const Span*> one{&owned[0]};
  SpanColumns col;
  col.Build(one);
  col.Build({});
  EXPECT_TRUE(col.empty());
  EXPECT_EQ(col.size(), 0u);
  EXPECT_TRUE(col.client_send.empty());
  EXPECT_TRUE(col.client_recv.empty());
}

}  // namespace
}  // namespace traceweaver
