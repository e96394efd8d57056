// Checkpoint/restore tests: the CRC-guarded JSONL container
// (trace/checkpoint.h) and the online weaver's full-state round trip,
// including the crash-consistency property -- restoring at a random kill
// point never loses or duplicates a committed assignment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "callgraph/inference.h"
#include "core/online.h"
#include "sim/apps.h"
#include "sim/fault_injector.h"
#include "sim/workload.h"
#include "trace/checkpoint.h"
#include "util/json.h"

namespace traceweaver {
namespace {

// ---------------------------------------------------------------------
// CRC-32 and the checksummed container.

TEST(Crc32Test, KnownVector) {
  // The IEEE 802.3 check value for the ASCII digits "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox\njumps over\n";
  const std::uint32_t whole = Crc32(data.data(), data.size());
  std::uint32_t inc = 0;
  for (char c : data) inc = Crc32(&c, 1, inc);
  EXPECT_EQ(inc, whole);
}

TEST(ChecksummedContainer, RoundTripPreservesLinesInOrder) {
  std::stringstream file;
  ChecksummedWriter w(file, "test.v1");
  w.WriteLine("{\"schema\":\"test.v1\"}");
  w.WriteLine("{\"a\":1}");
  w.WriteLine("{\"b\":\"two\"}");
  w.Finish();
  EXPECT_EQ(w.lines_written(), 3u);

  std::string error;
  const auto section = ReadChecksummedLines(file, "test.v1", &error);
  ASSERT_TRUE(section.has_value()) << error;
  ASSERT_EQ(section->lines.size(), 3u);
  EXPECT_EQ(section->lines[0], "{\"schema\":\"test.v1\"}");
  EXPECT_EQ(section->lines[1], "{\"a\":1}");
  EXPECT_EQ(section->lines[2], "{\"b\":\"two\"}");
}

// The serve checkpoint is three sections in one stream: each read stops
// at its own footer, so the next read starts at the next section.
TEST(ChecksummedContainer, BackToBackSectionsReadOneAtATime) {
  std::stringstream file;
  const std::vector<std::vector<std::string>> sections = {
      {"{\"schema\":\"a.v1\"}", "{\"x\":1}", "{\"x\":2}"},
      {"{\"schema\":\"b.v1\"}"},
      {"{\"schema\":\"c.v1\"}", "{\"y\":\"three\"}"}};
  const char* const schemas[] = {"a.v1", "b.v1", "c.v1"};
  for (std::size_t i = 0; i < sections.size(); ++i) {
    ChecksummedWriter w(file, schemas[i]);
    for (const std::string& line : sections[i]) w.WriteLine(line);
    w.Finish();
  }
  for (std::size_t i = 0; i < sections.size(); ++i) {
    std::string error;
    auto section = ReadChecksummedLines(file, schemas[i], &error);
    ASSERT_TRUE(section.has_value()) << i << ": " << error;
    // The views survive a move of the section (they point into its
    // buffer, which moves along).
    const ChecksummedSection moved = std::move(*section);
    EXPECT_EQ(std::vector<std::string>(moved.lines.begin(),
                                       moved.lines.end()),
              sections[i]);
  }
  EXPECT_EQ(file.peek(), std::char_traits<char>::eof());
}

std::string MakeContainer() {
  std::stringstream file;
  ChecksummedWriter w(file, "test.v1");
  w.WriteLine("{\"schema\":\"test.v1\"}");
  w.WriteLine("{\"payload\":42}");
  w.Finish();
  return file.str();
}

TEST(ChecksummedContainer, MissingFooterRejected) {
  std::string text = MakeContainer();
  text.resize(text.rfind("{\"footer\":"));  // Drop the footer line.
  std::stringstream file(text);
  std::string error;
  EXPECT_FALSE(ReadChecksummedLines(file, "test.v1", &error).has_value());
  EXPECT_NE(error.find("footer missing"), std::string::npos);
}

TEST(ChecksummedContainer, DroppedLineRejected) {
  std::string text = MakeContainer();
  const std::size_t cut = text.find("{\"payload\":42}\n");
  text.erase(cut, std::string("{\"payload\":42}\n").size());
  std::stringstream file(text);
  std::string error;
  EXPECT_FALSE(ReadChecksummedLines(file, "test.v1", &error).has_value());
  EXPECT_NE(error.find("line count mismatch"), std::string::npos);
}

TEST(ChecksummedContainer, FlippedByteRejected) {
  std::string text = MakeContainer();
  text[text.find("42")] = '9';  // Same length, different payload bytes.
  std::stringstream file(text);
  std::string error;
  EXPECT_FALSE(ReadChecksummedLines(file, "test.v1", &error).has_value());
  EXPECT_NE(error.find("CRC mismatch"), std::string::npos);
}

TEST(ChecksummedContainer, SchemaMismatchRejected) {
  std::stringstream file(MakeContainer());
  std::string error;
  EXPECT_FALSE(ReadChecksummedLines(file, "test.v2", &error).has_value());
  EXPECT_NE(error.find("schema mismatch"), std::string::npos);
}

// ---------------------------------------------------------------------
// Field extraction helpers.

TEST(CkptFields, ScalarExtraction) {
  const std::string line =
      "{\"u\":18446744073709551615,\"i\":-42,\"f\":1.5,\"s\":\"hi\"}";
  EXPECT_EQ(json::FieldU64(line, "u"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(json::FieldI64(line, "i"), -42);
  EXPECT_EQ(json::FieldF64(line, "f"), 1.5);
  EXPECT_EQ(json::FieldStr(line, "s"), "hi");
  EXPECT_FALSE(json::FieldU64(line, "absent").has_value());
}

TEST(CkptFields, KeyInsideStringValueNeverMatches) {
  // A hostile service name that embeds what looks like another field.
  const std::string line =
      "{\"service\":\"x\\\",\\\"parent\\\":9\",\"parent\":7}";
  EXPECT_EQ(json::FieldU64(line, "parent"), 7u);
  EXPECT_EQ(json::FieldStr(line, "service"), "x\",\"parent\":9");
}

TEST(CkptFields, AppendStrFieldRoundTripsEscapes) {
  const std::string value = "a\"b\\c\nd\te\x01f";
  std::string line = "{";
  json::AppendStrField(line, "k", value);
  line += "}";
  EXPECT_EQ(json::FieldStr(line, "k"), value);
}

// ---------------------------------------------------------------------
// Online weaver checkpoint round trip.

struct Stream {
  std::vector<Span> spans;
  CallGraph graph;
};

Stream MakeStream(double rps, double seconds) {
  Stream s;
  sim::AppSpec app = sim::MakeHotelReservationApp();
  sim::IsolatedReplayOptions iso;
  iso.requests_per_root = 15;
  s.graph = InferCallGraph(sim::RunIsolatedReplay(app, iso).spans);
  sim::OpenLoopOptions load;
  load.requests_per_sec = rps;
  load.duration = Seconds(seconds);
  load.seed = 21;
  s.spans = sim::RunOpenLoop(app, load).spans;
  std::sort(s.spans.begin(), s.spans.end(),
            [](const Span& a, const Span& b) {
              return a.client_recv < b.client_recv;
            });
  return s;
}

OnlineOptions MidStreamOptions() {
  OnlineOptions opts;
  opts.window = Millis(500);
  return opts;
}

TEST(OnlineCheckpoint, RoundTripIsByteIdenticalAndCarriesExtra) {
  Stream s = MakeStream(150, 2);
  OnlineTraceWeaver a(s.graph, MidStreamOptions());
  TimeNs watermark = 0;
  for (std::size_t i = 0; i < s.spans.size() / 2; ++i) {
    a.Ingest(s.spans[i]);
    watermark = std::max(watermark, s.spans[i].client_send);
    a.Advance(watermark);
  }
  ASSERT_GT(a.assignment().size(), 0u);  // Mid-stream: some commits...
  ASSERT_GT(a.buffered(), 0u);           // ...and a live buffer.

  std::stringstream ck;
  a.SaveCheckpoint(ck, {{"source_offset", 123456u}});

  OnlineTraceWeaver b(s.graph, MidStreamOptions());
  std::string error;
  std::map<std::string, std::uint64_t> extra;
  ASSERT_TRUE(b.LoadCheckpoint(ck, &error, &extra)) << error;
  EXPECT_EQ(extra.at("source_offset"), 123456u);

  EXPECT_EQ(b.assignment(), a.assignment());
  EXPECT_EQ(b.buffered(), a.buffered());
  EXPECT_EQ(b.buffered_bytes(), a.buffered_bytes());
  EXPECT_EQ(b.high_watermark(), a.high_watermark());
  EXPECT_EQ(b.late_pool_size(), a.late_pool_size());
  EXPECT_EQ(b.stats().ingested, a.stats().ingested);
  EXPECT_EQ(b.stats().parents_committed, a.stats().parents_committed);

  // Checkpoints are byte-deterministic, so "restored state == saved
  // state" is checkable exactly: re-saving must reproduce the bytes.
  std::stringstream ra, rb;
  a.SaveCheckpoint(ra, {{"source_offset", 123456u}});
  b.SaveCheckpoint(rb, {{"source_offset", 123456u}});
  EXPECT_EQ(ra.str(), rb.str());
}

TEST(OnlineCheckpoint, RandomKillPointsNeverLoseOrDuplicateCommits) {
  Stream s = MakeStream(150, 2);
  const auto replay = [&](std::size_t from, std::size_t to,
                          OnlineTraceWeaver& w, TimeNs watermark) {
    for (std::size_t i = from; i < to; ++i) {
      w.Ingest(s.spans[i]);
      watermark = std::max(watermark, s.spans[i].client_send);
      w.Advance(watermark);
    }
    return watermark;
  };

  // Reference: one uninterrupted run.
  OnlineTraceWeaver ref(s.graph, MidStreamOptions());
  replay(0, s.spans.size(), ref, 0);
  ref.Flush();
  ASSERT_GT(ref.assignment().size(), 0u);

  std::mt19937 rng(7);
  std::uniform_int_distribution<std::size_t> dist(1, s.spans.size() - 1);
  for (int trial = 0; trial < 4; ++trial) {
    const std::size_t kill = dist(rng);
    OnlineTraceWeaver before(s.graph, MidStreamOptions());
    const TimeNs watermark = replay(0, kill, before, 0);
    const ParentAssignment at_kill = before.assignment();
    std::stringstream ck;
    before.SaveCheckpoint(ck);

    OnlineTraceWeaver resumed(s.graph, MidStreamOptions());
    std::string error;
    ASSERT_TRUE(resumed.LoadCheckpoint(ck, &error))
        << "kill=" << kill << ": " << error;
    replay(kill, s.spans.size(), resumed, watermark);
    resumed.Flush();

    // Every assignment committed before the kill survives unchanged (no
    // loss, and -- because ParentAssignment is a map keyed by child --
    // no double commit can overwrite it with a different parent).
    for (const auto& [child, parent] : at_kill) {
      auto it = resumed.assignment().find(child);
      ASSERT_NE(it, resumed.assignment().end())
          << "kill=" << kill << " lost child " << child;
      EXPECT_EQ(it->second, parent) << "kill=" << kill;
    }
    // And the resumed run converges to the uninterrupted result exactly.
    EXPECT_EQ(resumed.assignment(), ref.assignment()) << "kill=" << kill;
  }
}

TEST(OnlineCheckpoint, TruncatedFileRejectedWithStateUntouched) {
  Stream s = MakeStream(100, 1);
  OnlineTraceWeaver a(s.graph, MidStreamOptions());
  TimeNs watermark = 0;
  for (const Span& span : s.spans) {
    a.Ingest(span);
    watermark = std::max(watermark, span.client_send);
    a.Advance(watermark);
  }
  std::stringstream full;
  a.SaveCheckpoint(full);
  const std::string bytes = full.str();

  // The victim has its own in-flight state; a failed restore must leave
  // every byte of it alone.
  OnlineTraceWeaver victim(s.graph, MidStreamOptions());
  for (std::size_t i = 0; i < s.spans.size() / 3; ++i) {
    victim.Ingest(s.spans[i]);
  }
  std::stringstream pre;
  victim.SaveCheckpoint(pre);

  for (double frac : {0.1, 0.5, 0.9}) {
    std::stringstream truncated(
        bytes.substr(0, static_cast<std::size_t>(bytes.size() * frac)));
    std::string error;
    EXPECT_FALSE(victim.LoadCheckpoint(truncated, &error));
    EXPECT_FALSE(error.empty());
  }
  std::string error;
  std::stringstream wrong_schema(MakeContainer());
  EXPECT_FALSE(victim.LoadCheckpoint(wrong_schema, &error));

  std::stringstream post;
  victim.SaveCheckpoint(post);
  EXPECT_EQ(post.str(), pre.str());
}

/// The payload lines of a checkpoint `weaver` writes now.
std::vector<std::string> CheckpointLinesOf(const OnlineTraceWeaver& weaver) {
  std::stringstream out;
  weaver.SaveCheckpoint(out, {{"source_offset", 42u}});
  std::string error;
  const auto section =
      ReadChecksummedLines(out, OnlineTraceWeaver::kCheckpointSchema, &error);
  EXPECT_TRUE(section.has_value()) << error;
  if (!section) return {};
  return {section->lines.begin(), section->lines.end()};
}

/// `lines` written as a checksummed section of `schema`, with the
/// header's schema tag rewritten to match.
std::string WriteAsSchema(std::vector<std::string> lines,
                          const std::string& schema) {
  std::string& header = lines.at(0);
  const std::string current = OnlineTraceWeaver::kCheckpointSchema;
  header.replace(header.find(current), current.size(), schema);
  std::stringstream out;
  ChecksummedWriter writer(out, schema);
  for (const std::string& line : lines) writer.WriteLine(line);
  writer.Finish();
  return out.str();
}

/// A weaver with in-flight state of its own rejects `bytes` with an
/// error naming `reason`, and keeps every byte of that state.
void ExpectRejectedWithStateUntouched(const Stream& s,
                                      const std::string& bytes,
                                      const std::string& reason) {
  OnlineTraceWeaver victim(s.graph, MidStreamOptions());
  for (std::size_t i = 0; i < s.spans.size() / 3; ++i) {
    victim.Ingest(s.spans[i]);
  }
  std::stringstream pre;
  victim.SaveCheckpoint(pre);

  std::stringstream in(bytes);
  std::string error;
  std::map<std::string, std::uint64_t> extra;
  EXPECT_FALSE(victim.LoadCheckpoint(in, &error, &extra));
  EXPECT_NE(error.find(reason), std::string::npos) << error;
  EXPECT_TRUE(extra.empty());

  std::stringstream post;
  victim.SaveCheckpoint(post);
  EXPECT_EQ(post.str(), pre.str());
}

/// A weaver mid-stream, with committed assignments.
OnlineTraceWeaver MidStreamWeaver(const Stream& s) {
  OnlineTraceWeaver a(s.graph, MidStreamOptions());
  TimeNs watermark = 0;
  for (const Span& span : s.spans) {
    a.Ingest(span);
    watermark = std::max(watermark, span.client_send);
    a.Advance(watermark);
  }
  return a;
}

// A well-formed checkpoint of an earlier schema is rejected by schema and
// leaves the weaver alone, so `serve --resume` starts fresh from it. v1
// carried write-only "posterior" records.
TEST(OnlineCheckpoint, V1CheckpointRejectedBySchemaWithStateUntouched) {
  Stream s = MakeStream(100, 1);
  std::vector<std::string> lines = CheckpointLinesOf(MidStreamWeaver(s));
  ASSERT_FALSE(lines.empty());
  lines.push_back(
      "{\"ckpt\":\"posterior\",\"service\":\"frontend\",\"endpoint\":\"/x\","
      "\"stage\":0,\"call\":0,\"count\":3,\"mean\":1.5,\"m2\":0.25}");
  const std::string v1 = "traceweaver.checkpoint.v1";
  ExpectRejectedWithStateUntouched(s, WriteAsSchema(lines, v1),
                                   "schema mismatch: found " + v1);
}

// v2 wrote one `commit` line per assignment; its checkpoints are
// rejected the same way.
TEST(OnlineCheckpoint, V2CheckpointRejectedBySchemaWithStateUntouched) {
  Stream s = MakeStream(100, 1);
  const OnlineTraceWeaver a = MidStreamWeaver(s);
  ASSERT_GT(a.assignment().size(), 0u);
  std::vector<std::string> v2_lines;
  for (const std::string& line : CheckpointLinesOf(a)) {
    if (line.rfind("{\"ckpt\":\"commits\"", 0) != 0) {
      v2_lines.push_back(line);
      continue;
    }
    json::U64PairWalker pairs(*json::Fields(line).Find("pairs"));
    while (pairs.Next()) {
      v2_lines.push_back("{\"ckpt\":\"commit\",\"child\":" +
                         std::to_string(pairs.first()) + ",\"parent\":" +
                         std::to_string(pairs.second()) + "}");
    }
  }
  ASSERT_GT(v2_lines.size(), a.assignment().size());
  const std::string v2 = "traceweaver.checkpoint.v2";
  ExpectRejectedWithStateUntouched(s, WriteAsSchema(v2_lines, v2),
                                   "schema mismatch: found " + v2);
}

/// `{"ckpt":"commits","n":K,"pairs":[...]}` lines for `pairs`, split into
/// runs of kCommitRun, spelled independently of the writer.
std::vector<std::string> CommitRunLines(
    const std::vector<std::pair<SpanId, SpanId>>& pairs) {
  std::vector<std::string> lines;
  const std::size_t run = OnlineTraceWeaver::kCommitRun;
  for (std::size_t begin = 0; begin < pairs.size(); begin += run) {
    const std::size_t end = std::min(pairs.size(), begin + run);
    std::ostringstream line;
    line << "{\"ckpt\":\"commits\",\"n\":" << end - begin << ",\"pairs\":[";
    for (std::size_t i = begin; i < end; ++i) {
      line << (i > begin ? "," : "") << '[' << pairs[i].first << ','
           << pairs[i].second << ']';
    }
    line << "]}";
    lines.push_back(line.str());
  }
  return lines;
}

/// An otherwise empty weaver checkpoint whose commit section is `runs`
/// (commit records follow the header and the stats record).
std::string CheckpointWithRuns(const CallGraph& graph,
                               const std::vector<std::string>& runs) {
  std::vector<std::string> lines =
      CheckpointLinesOf(OnlineTraceWeaver(graph, MidStreamOptions()));
  lines.insert(lines.begin() + 2, runs.begin(), runs.end());
  return WriteAsSchema(lines, OnlineTraceWeaver::kCheckpointSchema);
}

// The assignment union round-trips at every run boundary: the runs
// written are exactly the ones spelled here (full runs of kCommitRun,
// then the remainder, sorted by child), and loading them restores every
// pair.
TEST(OnlineCheckpoint, CommitRunsRoundTripAtEveryRunBoundary) {
  Stream s = MakeStream(20, 1);
  std::mt19937_64 rng(11);
  for (const std::size_t size : {0, 1, 1023, 1024, 1025, 3079}) {
    std::map<SpanId, SpanId> unique;
    unique[std::numeric_limits<SpanId>::max() - 1] = 0;
    while (unique.size() < size) unique[rng()] = rng();
    while (unique.size() > size) unique.erase(unique.begin());
    const std::vector<std::pair<SpanId, SpanId>> pairs(unique.begin(),
                                                       unique.end());
    const std::vector<std::string> runs = CommitRunLines(pairs);
    ASSERT_EQ(runs.size(), (size + OnlineTraceWeaver::kCommitRun - 1) /
                               OnlineTraceWeaver::kCommitRun);
    const std::string bytes = CheckpointWithRuns(s.graph, runs);

    OnlineTraceWeaver restored(s.graph, MidStreamOptions());
    std::stringstream in(bytes);
    std::string error;
    std::map<std::string, std::uint64_t> extra;
    ASSERT_TRUE(restored.LoadCheckpoint(in, &error, &extra))
        << size << ": " << error;
    const ParentAssignment want(pairs.begin(), pairs.end());
    EXPECT_EQ(restored.assignment(), want) << size;
    std::stringstream again;
    restored.SaveCheckpoint(again, extra);
    EXPECT_EQ(again.str(), bytes) << size;
  }
}

// A run's "n" must count its pairs exactly.
TEST(OnlineCheckpoint, CommitRunWhoseCountDisagreesIsRejected) {
  Stream s = MakeStream(100, 1);
  const std::vector<std::pair<SpanId, SpanId>> pairs = {
      {3, 1}, {4, 3}, {9, 3}, {12, 4}, {18446744073709551615ull, 9}};
  std::string run = CommitRunLines(pairs).at(0);
  for (const char* n : {"\"n\":4,", "\"n\":6,", "\"n\":0,", ""}) {
    std::string bad = run;
    bad.replace(bad.find("\"n\":5,"), 6, n);
    ExpectRejectedWithStateUntouched(
        s, CheckpointWithRuns(s.graph, {bad}), "commit run");
  }
  // The same run with the right count loads.
  OnlineTraceWeaver ok(s.graph, MidStreamOptions());
  std::stringstream in(CheckpointWithRuns(s.graph, {run}));
  EXPECT_TRUE(ok.LoadCheckpoint(in));
  EXPECT_EQ(ok.assignment().size(), pairs.size());
}

// A packed line cut at any byte -- CRC-valid, because the section is
// re-checksummed around the cut line -- is rejected, never half-loaded.
TEST(OnlineCheckpoint, CommitRunTruncatedAtEveryByteIsRejected) {
  Stream s = MakeStream(100, 1);
  const std::string run =
      CommitRunLines({{3, 1}, {4, 3}, {1234567, 89}}).at(0);
  for (std::size_t cut = 0; cut < run.size(); ++cut) {
    ExpectRejectedWithStateUntouched(
        s, CheckpointWithRuns(s.graph, {run.substr(0, cut)}),
        "checkpoint record");
    if (HasFailure()) {
      ADD_FAILURE() << "accepted a cut at byte " << cut << ": "
                    << run.substr(0, cut);
      return;
    }
  }
}

// The ISSUE acceptance for skew correction in serve: a kill -9 between
// two window closes must resume bit-identically with the estimator's
// state (gap buffers, Welford moments) carried through the checkpoint.
TEST(OnlineCheckpoint, SkewEstimatorStateSurvivesResumeBitIdentically) {
  Stream s = MakeStream(150, 2);
  // Give the estimator real work: constant per-vantage clock offsets.
  sim::FaultSpec spec;
  spec.skew_stddev_ns = Micros(100);
  s.spans = sim::InjectFaults(std::move(s.spans), spec);
  std::sort(s.spans.begin(), s.spans.end(),
            [](const Span& a, const Span& b) {
              return a.client_recv != b.client_recv
                         ? a.client_recv < b.client_recv
                         : a.id < b.id;
            });

  OnlineOptions opts = MidStreamOptions();
  opts.skew_correct = true;

  const auto replay = [&](std::size_t from, std::size_t to,
                          OnlineTraceWeaver& w, TimeNs watermark) {
    for (std::size_t i = from; i < to; ++i) {
      w.Ingest(s.spans[i]);
      watermark = std::max(watermark, s.spans[i].client_send);
      w.Advance(watermark);
    }
    return watermark;
  };

  // Reference: one uninterrupted run.
  OnlineTraceWeaver ref(s.graph, opts);
  replay(0, s.spans.size(), ref, 0);
  ref.Flush();
  ASSERT_GT(ref.assignment().size(), 0u);
  ASSERT_GT(ref.skew_estimator().observations(), 0u);

  // Kill mid-stream (not on a window boundary), checkpoint, resume.
  const std::size_t kill = s.spans.size() / 2 + 7;
  OnlineTraceWeaver before(s.graph, opts);
  const TimeNs watermark = replay(0, kill, before, 0);
  std::stringstream ck;
  before.SaveCheckpoint(ck);
  ASSERT_NE(ck.str().find("\"ckpt\":\"skew\""), std::string::npos)
      << "estimator state missing from the checkpoint";

  OnlineTraceWeaver resumed(s.graph, opts);
  std::string error;
  ASSERT_TRUE(resumed.LoadCheckpoint(ck, &error)) << error;
  EXPECT_EQ(resumed.skew_estimator().observations(),
            before.skew_estimator().observations());
  replay(kill, s.spans.size(), resumed, watermark);
  resumed.Flush();

  // The resumed run converges to the uninterrupted result exactly, and
  // the final checkpoints are byte-equal -- estimator state included.
  EXPECT_EQ(resumed.assignment(), ref.assignment());
  std::stringstream a, b;
  ref.SaveCheckpoint(a);
  resumed.SaveCheckpoint(b);
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
}  // namespace traceweaver
