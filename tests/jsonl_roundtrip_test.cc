// Round-trip property test for the JSONL span format (trace/jsonl_io.h):
// SpanFromJson(SpanToJson(s)) == s for randomized spans whose string
// fields exercise quotes, backslashes, control characters, and
// JSON-looking payloads (e.g. a name containing `","id":9,"x":"`), plus
// regression cases for historical parser bugs (substring key matches,
// whitespace after the colon). The same hostile names also go through
// every other JSON writer (Jaeger export, explain, provenance, trace
// records, the run report, query summaries), checked against an
// independent strict JSON parser: each output must be valid JSON that
// decodes back to the original bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/explain.h"
#include "obs/provenance.h"
#include "obs/run_report.h"
#include "serve/query_service.h"
#include "store/store.h"
#include "trace/jaeger_export.h"
#include "trace/jsonl_io.h"
#include "trace/span.h"
#include "trace/trace_record.h"
#include "util/json.h"
#include "util/rng.h"

namespace traceweaver {
namespace {

void ExpectSpanEq(const Span& a, const Span& b, const std::string& context) {
  EXPECT_EQ(a.id, b.id) << context;
  EXPECT_EQ(a.caller, b.caller) << context;
  EXPECT_EQ(a.callee, b.callee) << context;
  EXPECT_EQ(a.endpoint, b.endpoint) << context;
  EXPECT_EQ(a.client_send, b.client_send) << context;
  EXPECT_EQ(a.server_recv, b.server_recv) << context;
  EXPECT_EQ(a.server_send, b.server_send) << context;
  EXPECT_EQ(a.client_recv, b.client_recv) << context;
  EXPECT_EQ(a.caller_replica, b.caller_replica) << context;
  EXPECT_EQ(a.callee_replica, b.callee_replica) << context;
  // Thread ids are deliberately not part of the interchange format (the
  // production capture layer cannot provide them), so they do not round-trip.
}

void ExpectRoundTrips(const Span& s) {
  const std::string line = SpanToJson(s);
  const std::optional<Span> back = SpanFromJson(line);
  ASSERT_TRUE(back.has_value()) << line;
  ExpectSpanEq(s, *back, line);
}

// Characters chosen to be maximally hostile to a by-hand JSON scanner.
std::string RandomHostileString(Rng& rng) {
  static const std::string kAlphabet =
      "abcXYZ019 _-/\"\\\n\t\r\b\f\x01\x07\x1f\x7f{}[]:,";
  const std::size_t len = static_cast<std::size_t>(rng.UniformInt(0, 24));
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(
        kAlphabet[static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(kAlphabet.size()) - 1))]);
  }
  return out;
}

TEST(JsonlRoundTrip, RandomizedHostileStringsSurvive) {
  Rng rng(20240806);
  for (int trial = 0; trial < 2000; ++trial) {
    Span s;
    s.id = static_cast<SpanId>(rng.UniformInt(0, (std::int64_t{1} << 62)));
    s.caller = RandomHostileString(rng);
    if (s.caller.empty()) s.caller = "c";
    s.callee = RandomHostileString(rng);
    if (s.callee.empty()) s.callee = "s";
    s.endpoint = RandomHostileString(rng);
    if (s.endpoint.empty()) s.endpoint = "/";
    s.client_send = rng.UniformInt(0, std::int64_t{1} << 30);
    s.server_recv = s.client_send + rng.UniformInt(0, 1000);
    s.server_send = s.server_recv + rng.UniformInt(0, 1000);
    s.client_recv = s.server_send + rng.UniformInt(0, 1000);
    s.caller_replica = static_cast<int>(rng.UniformInt(0, 7));
    s.callee_replica = static_cast<int>(rng.UniformInt(0, 7));
    ExpectRoundTrips(s);
  }
}

TEST(JsonlRoundTrip, EmbeddedEscapedKeysDoNotShadowRealFields) {
  // A string value containing what *looks* like a later key (escaped
  // quotes around "id") must not win over the genuine top-level key.
  Span s;
  s.id = 42;
  s.caller = "x\",\"id\":9,\"y\":\"";
  s.callee = "{\"server_recv\": 77}";
  s.endpoint = "tab\there\\and\"quote";
  s.client_send = 1;
  s.server_recv = 2;
  s.server_send = 3;
  s.client_recv = 4;
  ExpectRoundTrips(s);

  const std::optional<Span> back = SpanFromJson(SpanToJson(s));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->id, 42u);
  EXPECT_EQ(back->server_recv, 2);
}

TEST(JsonlRoundTrip, ControlCharactersEscapeAndDecode) {
  Span s;
  s.id = 1;
  s.caller = std::string("a\r\nb\bc\fd\te") + '\x01' + "f";
  s.callee = "svc";
  s.endpoint = "/ep";
  const std::string line = SpanToJson(s);
  // The serialized line must stay a single line (JSONL framing).
  EXPECT_EQ(line.find('\n'), std::string::npos) << line;
  EXPECT_EQ(line.find('\r'), std::string::npos) << line;
  EXPECT_NE(line.find("\\u0001"), std::string::npos) << line;
  ExpectRoundTrips(s);
}

TEST(JsonlRoundTrip, PrettyPrintedWhitespaceAfterColonParses) {
  // Regression: GetInt used to reject a space between ':' and the number.
  const std::string line =
      "{\"id\": 7, \"caller\": \"client\", \"callee\": \"frontend\", "
      "\"endpoint\": \"/home\", \"client_send\": 5, \"server_recv\": 6, "
      "\"server_send\": 8, \"client_recv\": 9, \"caller_replica\": 0, "
      "\"callee_replica\": 1}";
  const std::optional<Span> s = SpanFromJson(line);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->id, 7u);
  EXPECT_EQ(s->client_send, 5);
  EXPECT_EQ(s->server_recv, 6);
  EXPECT_EQ(s->callee_replica, 1);
}

TEST(JsonlRoundTrip, SubstringKeyDoesNotMatch) {
  // Regression: FindValue("id") used to match the tail of "trace_id" or a
  // key like "xid". Keys must anchor at a top-level position.
  const std::string line =
      "{\"xid\":999,\"id\":7,\"caller\":\"client\",\"callee\":\"f\","
      "\"endpoint\":\"/e\",\"client_send\":1,\"server_recv\":2,"
      "\"server_send\":3,\"client_recv\":4}";
  const std::optional<Span> s = SpanFromJson(line);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->id, 7u);
}

TEST(JsonlRoundTrip, MalformedLinesAreCountedNotCrashed) {
  std::istringstream in(
      "{\"id\":1,\"caller\":\"client\",\"callee\":\"f\",\"endpoint\":\"/e\","
      "\"client_send\":1,\"server_recv\":2,\"server_send\":3,"
      "\"client_recv\":4}\n"
      "this is not json\n"
      "{\"id\":\n"
      "{}\n");
  std::size_t dropped = 0;
  const std::vector<Span> spans = ReadSpansJsonl(in, &dropped);
  EXPECT_EQ(spans.size(), 1u);
  EXPECT_EQ(dropped, 3u);
}

TEST(JsonlRoundTrip, GroundTruthRoundTripsWhenRequested) {
  Span s;
  s.id = 5;
  s.caller = "frontend";
  s.callee = "search";
  s.endpoint = "/q";
  s.true_parent = 3;
  s.true_trace = 99;
  const std::optional<Span> back =
      SpanFromJson(SpanToJson(s, /*include_ground_truth=*/true));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->true_parent, 3u);
  EXPECT_EQ(back->true_trace, 99u);
}

// ---------------------------------------------------------------------
// The shared codec (util/json.h) against every writer.

/// Strict RFC 8259 parser, written independently of util/json.h so it can
/// judge it: validates one whole document (no trailing bytes, no raw
/// control characters in strings, only JSON's escapes) and collects every
/// decoded string, keys included.
class StrictJson {
 public:
  static std::optional<std::vector<std::string>> Strings(
      const std::string& doc) {
    StrictJson p(doc);
    p.Ws();
    if (!p.Value()) return std::nullopt;
    p.Ws();
    if (p.pos_ != doc.size()) return std::nullopt;
    return p.strings_;
  }

 private:
  explicit StrictJson(const std::string& doc) : s_(doc) {}

  bool At(char c) const { return pos_ < s_.size() && s_[pos_] == c; }
  void Ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Value() {
    if (At('{')) return Container('}', /*object=*/true);
    if (At('[')) return Container(']', /*object=*/false);
    if (At('"')) return String();
    for (const char* lit : {"true", "false", "null"}) {
      const std::string_view l(lit);
      if (s_.compare(pos_, l.size(), l) == 0) {
        pos_ += l.size();
        return true;
      }
    }
    return Number();
  }
  bool Container(char close, bool object) {
    ++pos_;
    Ws();
    if (At(close)) {
      ++pos_;
      return true;
    }
    while (true) {
      Ws();
      if (object) {
        if (!At('"') || !String()) return false;
        Ws();
        if (!At(':')) return false;
        ++pos_;
        Ws();
      }
      if (!Value()) return false;
      Ws();
      if (At(close)) {
        ++pos_;
        return true;
      }
      if (!At(',')) return false;
      ++pos_;
    }
  }
  bool Number() {
    const std::size_t start = pos_;
    if (At('-')) ++pos_;
    const auto digits = [&] {
      const std::size_t d = pos_;
      while (pos_ < s_.size() && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
      return pos_ > d;
    };
    if (!digits()) return false;
    if (At('.')) {
      ++pos_;
      if (!digits()) return false;
    }
    if (At('e') || At('E')) {
      ++pos_;
      if (At('+') || At('-')) ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }
  bool Hex4(unsigned* cp) {
    if (pos_ + 4 > s_.size()) return false;
    *cp = 0;
    for (int k = 0; k < 4; ++k) {
      const char c = s_[pos_++];
      *cp <<= 4;
      if (c >= '0' && c <= '9') *cp |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') *cp |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') *cp |= static_cast<unsigned>(c - 'A' + 10);
      else return false;
    }
    return true;
  }
  bool String() {
    ++pos_;
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') {
        strings_.push_back(std::move(out));
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      const std::string_view simple = "\"\\/bfnrt";
      const std::string_view decoded = "\"\\/\b\f\n\r\t";
      if (const auto k = simple.find(e); k != std::string_view::npos) {
        out += decoded[k];
      } else if (e == 'u') {
        unsigned cp = 0;
        if (!Hex4(&cp)) return false;
        if (cp >= 0x80) return false;  // The writers only escape ASCII.
        out += static_cast<char>(cp);
      } else {
        return false;
      }
    }
    return false;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::vector<std::string> strings_;
};

/// `doc` is strict JSON and every name in `names` decodes from it.
void ExpectValidCarrying(const std::string& doc,
                         const std::vector<std::string>& names,
                         const char* writer) {
  const auto strings = StrictJson::Strings(doc);
  ASSERT_TRUE(strings.has_value()) << writer << " wrote invalid JSON: " << doc;
  for (const std::string& name : names) {
    EXPECT_NE(std::find(strings->begin(), strings->end(), name),
              strings->end())
        << writer << " lost " << ::testing::PrintToString(name) << ": " << doc;
  }
}

/// The fixed hostile names (BEL, quote, backslash, newline) followed by
/// `random` draws from RandomHostileString.
std::vector<std::string> HostileNames(Rng& rng, int random) {
  std::vector<std::string> names = {"svc\x07" "a", "q\"uote", "back\\slash",
                                    "new\nline", "all\x07\"\\\n"};
  for (int i = 0; i < random; ++i) {
    std::string name = RandomHostileString(rng);
    names.push_back(name.empty() ? "e" : name);
  }
  return names;
}

TEST(JsonCodec, HostileNamesSurviveEveryWriter) {
  Rng rng(20261017);
  for (const std::string& name : HostileNames(rng, 200)) {
    const std::string ep = "/" + name;
    const std::vector<std::string> both = {name, ep};

    // Jaeger export: operationName, the caller tag, serviceName.
    Span root;
    root.id = 1;
    root.caller = kClientCaller;
    root.callee = name;
    root.endpoint = ep;
    root.client_send = 0;
    root.server_recv = 1000;
    root.server_send = 9000;
    root.client_recv = 10000;
    Span child = root;
    child.id = 2;
    child.caller = name;
    child.callee = name + "2";
    child.server_recv = 2000;
    child.server_send = 3000;
    ExpectValidCarrying(TracesToJaegerJson({root, child}, {{2, 1}}),
                        {name, ep, name + "2"}, "TracesToJaegerJson");

    // Explain: handler, plan positions and conflict neighbours.
    ExplainCapture capture;
    capture.found = true;
    capture.parent = 1;
    capture.service = name;
    capture.endpoint = ep;
    ExplainCandidate candidate;
    candidate.children = {2, kSkippedChild};
    ScoreBreakdown::Position position;
    position.service = name;
    position.endpoint = ep;
    candidate.breakdown.positions = {position};
    capture.candidates = {candidate};
    capture.conflicts = {ExplainConflict{3, name, ep, 1}};
    ExpectValidCarrying(ExplainJson(capture), both, "ExplainJson");

    // Provenance: a skew_correct event's "service@replica" detail.
    obs::ProvEvent event;
    event.type = obs::ProvEventType::kSkewCorrect;
    event.span = 2;
    event.value = -1500;
    event.detail = name + "@1";
    const std::string prov = obs::ProvEventToJson(event);
    ExpectValidCarrying(prov, {event.detail}, "ProvEventToJson");
    EXPECT_EQ(obs::ProvEventFromJson(prov), event) << prov;

    // Trace record (store segment line), with the event embedded.
    TraceRecord record;
    record.trace_id = 1;
    record.root_service = name;
    record.root_endpoint = ep;
    record.grade = 'B';
    record.spans = {root, child};
    record.parents = {{2, 1}};
    record.provenance = {event};
    const std::string line = TraceRecordToJson(record);
    ExpectValidCarrying(line, {name, ep, name + "2", event.detail},
                        "TraceRecordToJson");
    const auto back = TraceRecordFromJson(line);
    ASSERT_TRUE(back.has_value()) << line;
    EXPECT_EQ(back->root_service, name);
    EXPECT_EQ(back->root_endpoint, ep);
    EXPECT_EQ(back->spans[1].caller, name);
    EXPECT_EQ(back->provenance, record.provenance);

    // Run report: per-service rows.
    obs::RunReport report;
    report.services.push_back({name, 1, 1, 1, 1});
    ExpectValidCarrying(obs::RunReportJson(report), {name}, "RunReportJson");

    // `traceweaver query` summary line.
    store::TraceSummary summary;
    summary.trace_id = 1;
    summary.root_service = name;
    summary.root_endpoint = ep;
    ExpectValidCarrying(serve::TraceSummaryJson(summary), both,
                        "TraceSummaryJson");
  }
}

TEST(JsonCodec, ReaderTakesJsonEscapesOnly) {
  const auto str = [](const std::string& body) {
    return json::FieldStr("{\"k\":\"" + body + "\"}", "k");
  };
  EXPECT_EQ(str("a\\/b\\u0041\\u00e9"), "a/bA\xc3\xa9");
  // A surrogate pair decodes to one 4-byte UTF-8 sequence (U+1F600).
  EXPECT_EQ(str("\\ud83d\\ude00"), "\xf0\x9f\x98\x80");
  for (const char* bad : {"\\q", "\\x41", "\\u12", "\\u12g4", "\\ud83d",
                          "\\ude00", "\\ud83dx", "\\"}) {
    EXPECT_FALSE(str(bad).has_value()) << bad;
  }
  EXPECT_FALSE(json::FieldStr("{\"k\":\"open", "k").has_value());

  // A span line with a non-JSON escape is rejected, not decoded as `q`.
  const std::string span_line =
      "{\"id\":1,\"caller\":\"a\\qb\",\"callee\":\"f\",\"endpoint\":\"/e\","
      "\"client_send\":1,\"server_recv\":2,\"server_send\":3,"
      "\"client_recv\":4}";
  EXPECT_FALSE(SpanFromJson(span_line).has_value());
}

TEST(JsonCodec, FindValueMatchesOnlyTheOutermostObject) {
  const std::string line =
      "{\"spans\":[{\"id\":5,\"grade\":\"Z\"}],\"meta\":{\"id\":6},"
      "\"id\":7,\"grade\":\"A\"}";
  EXPECT_EQ(json::FieldU64(line, "id"), 7u);
  EXPECT_EQ(json::FieldStr(line, "grade"), "A");
  EXPECT_FALSE(json::FieldU64("{\"a\":{\"b\":1}}", "b").has_value());
}

}  // namespace
}  // namespace traceweaver
