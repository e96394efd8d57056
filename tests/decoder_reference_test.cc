// Differential test of the start-up decoders against the ones they
// replaced. The reference namespace below is the previous reader,
// verbatim in behaviour: FindValue rescanned the line once per field,
// SplitObjectArray copied every nested object before decoding it, Crc32
// folded one byte at a time and the call-graph parser trimmed through
// string copies. The one-pass decoders must accept exactly the lines the
// reference accepts and decode exactly the same values -- on generated
// spans, trace records, pair arrays (record parents, checkpoint commit
// runs) and checkpoint/committer lines with hostile names,
// alternative escapes, duplicate/reordered/unknown keys, extra whitespace,
// and truncation at every byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "callgraph/inference.h"
#include "callgraph/serialization.h"
#include "core/online.h"
#include "obs/provenance.h"
#include "sim/apps.h"
#include "sim/fault_injector.h"
#include "sim/workload.h"
#include "trace/checkpoint.h"
#include "trace/jsonl_io.h"
#include "trace/trace_record.h"
#include "util/json.h"

namespace traceweaver {
namespace {

// ---------------------------------------------------------------------
// The reference decoders.

namespace ref {

constexpr auto kDepthStep = [] {
  std::array<signed char, 256> step{};
  step['{'] = step['['] = 1;
  step['}'] = step[']'] = -1;
  return step;
}();

bool IsJsonWhitespace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

void AppendUtf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

std::optional<std::uint32_t> Hex4(const std::string& text, std::size_t pos) {
  if (pos + 4 > text.size()) return std::nullopt;
  std::uint32_t cp = 0;
  for (std::size_t k = pos; k < pos + 4; ++k) {
    const char c = text[k];
    cp <<= 4;
    if (c >= '0' && c <= '9') {
      cp |= static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      cp |= static_cast<std::uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      cp |= static_cast<std::uint32_t>(c - 'A' + 10);
    } else {
      return std::nullopt;
    }
  }
  return cp;
}

std::size_t FindValue(const std::string& text, const char* key) {
  const std::size_t key_len = std::strlen(key);
  int depth = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c != '"') {
      depth += kDepthStep[static_cast<unsigned char>(c)];
      continue;
    }
    if (depth <= 1 && text.compare(i + 1, key_len, key) == 0 &&
        i + 1 + key_len < text.size() && text[i + 1 + key_len] == '"') {
      std::size_t j = i + 2 + key_len;
      while (j < text.size() && IsJsonWhitespace(text[j])) ++j;
      if (j < text.size() && text[j] == ':') {
        ++j;
        while (j < text.size() && IsJsonWhitespace(text[j])) ++j;
        return j;
      }
    }
    ++i;
    while (i < text.size() && text[i] != '"') {
      if (text[i] == '\\') ++i;
      if (i < text.size()) ++i;
    }
    if (i >= text.size()) return std::string::npos;
  }
  return std::string::npos;
}

template <typename Int>
std::optional<Int> FieldInt(const std::string& text, const char* key) {
  const std::size_t pos = FindValue(text, key);
  if (pos == std::string::npos) return std::nullopt;
  Int v{};
  const auto [end, ec] =
      std::from_chars(text.data() + pos, text.data() + text.size(), v);
  if (ec != std::errc()) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> FieldU64(const std::string& text,
                                      const char* key) {
  return FieldInt<std::uint64_t>(text, key);
}

std::optional<std::int64_t> FieldI64(const std::string& text,
                                     const char* key) {
  return FieldInt<std::int64_t>(text, key);
}

std::optional<double> FieldF64(const std::string& text, const char* key) {
  const std::size_t pos = FindValue(text, key);
  if (pos == std::string::npos) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(text.c_str() + pos, &end);
  if (end == text.c_str() + pos) return std::nullopt;
  return v;
}

std::optional<std::string> FieldStr(const std::string& text,
                                    const char* key) {
  std::size_t pos = FindValue(text, key);
  if (pos == std::string::npos || pos >= text.size() || text[pos] != '"') {
    return std::nullopt;
  }
  std::string out;
  for (++pos; pos < text.size(); ++pos) {
    const char c = text[pos];
    if (c == '"') return out;
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++pos >= text.size()) break;
    switch (text[pos]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        auto cp = Hex4(text, pos + 1);
        if (!cp) return std::nullopt;
        pos += 4;
        if (*cp >= 0xDC00 && *cp <= 0xDFFF) return std::nullopt;
        if (*cp >= 0xD800 && *cp <= 0xDBFF) {
          if (text.compare(pos + 1, 2, "\\u") != 0) return std::nullopt;
          const auto low = Hex4(text, pos + 3);
          if (!low || *low < 0xDC00 || *low > 0xDFFF) return std::nullopt;
          cp = 0x10000 + ((*cp - 0xD800) << 10) + (*low - 0xDC00);
          pos += 6;
        }
        AppendUtf8(out, *cp);
        break;
      }
      default:
        return std::nullopt;
    }
  }
  return std::nullopt;
}

bool TopLevelBool(const std::string& line, const char* key) {
  const std::size_t pos = FindValue(line, key);
  return pos != std::string::npos && line.compare(pos, 4, "true") == 0;
}

std::optional<Span> SpanFromJson(const std::string& line) {
  Span s;
  const auto id = FieldU64(line, "id");
  const auto caller = FieldStr(line, "caller");
  const auto callee = FieldStr(line, "callee");
  const auto endpoint = FieldStr(line, "endpoint");
  const auto cs = FieldI64(line, "client_send");
  const auto sr = FieldI64(line, "server_recv");
  const auto ss = FieldI64(line, "server_send");
  const auto cr = FieldI64(line, "client_recv");
  if (!id || !caller || !callee || !endpoint || !cs || !sr || !ss || !cr) {
    return std::nullopt;
  }
  s.id = *id;
  s.caller = *caller;
  s.callee = *callee;
  s.endpoint = *endpoint;
  s.client_send = *cs;
  s.server_recv = *sr;
  s.server_send = *ss;
  s.client_recv = *cr;
  s.caller_replica =
      static_cast<int>(FieldI64(line, "caller_replica").value_or(0));
  s.callee_replica =
      static_cast<int>(FieldI64(line, "callee_replica").value_or(0));
  s.true_parent = FieldU64(line, "true_parent").value_or(kInvalidSpanId);
  s.true_trace = FieldU64(line, "true_trace").value_or(kInvalidTraceId);
  return s;
}

std::optional<obs::ProvEvent> ProvEventFromJson(const std::string& text) {
  const auto name = FieldStr(text, "t");
  if (!name) return std::nullopt;
  const auto type = obs::ProvEventTypeFromName(*name);
  if (!type) return std::nullopt;
  const auto span = FieldU64(text, "span");
  const auto value = FieldI64(text, "v");
  if (!span || !value) return std::nullopt;
  obs::ProvEvent event;
  event.type = *type;
  event.span = *span;
  event.value = *value;
  event.detail = FieldStr(text, "d").value_or("");
  return event;
}

bool SplitObjectArray(const std::string& line, std::size_t pos,
                      std::vector<std::string>& elements) {
  if (pos == std::string::npos || pos >= line.size() || line[pos] != '[') {
    return false;
  }
  ++pos;
  while (pos < line.size()) {
    if (line[pos] == ']') return true;
    if (line[pos] == ',') {
      ++pos;
      continue;
    }
    if (line[pos] != '{') return false;
    const std::size_t start = pos;
    int depth = 0;
    bool in_string = false;
    for (; pos < line.size(); ++pos) {
      const char c = line[pos];
      if (in_string) {
        if (c == '\\') {
          ++pos;
        } else if (c == '"') {
          in_string = false;
        }
      } else if (c == '"') {
        in_string = true;
      } else if (c == '{') {
        ++depth;
      } else if (c == '}') {
        if (--depth == 0) {
          elements.push_back(line.substr(start, pos - start + 1));
          ++pos;
          break;
        }
      }
    }
    if (depth != 0) return false;
  }
  return false;
}

/// The `[[child,parent],...]` loop of the previous record reader, on the
/// value at `pos` (npos: absent).
std::optional<std::vector<std::pair<SpanId, SpanId>>> ParsePairs(
    const std::string& line, std::size_t pos) {
  if (pos == std::string::npos || pos >= line.size() || line[pos] != '[') {
    return std::nullopt;
  }
  std::vector<std::pair<SpanId, SpanId>> pairs;
  ++pos;
  while (pos < line.size() && line[pos] != ']') {
    if (line[pos] == ',' || line[pos] == '[') {
      ++pos;
      continue;
    }
    char* after = nullptr;
    const SpanId child = std::strtoull(line.c_str() + pos, &after, 10);
    pos = static_cast<std::size_t>(after - line.c_str());
    if (pos >= line.size() || line[pos] != ',') return std::nullopt;
    const SpanId parent = std::strtoull(line.c_str() + pos + 1, &after, 10);
    pos = static_cast<std::size_t>(after - line.c_str());
    if (pos >= line.size() || line[pos] != ']') return std::nullopt;
    ++pos;
    pairs.emplace_back(child, parent);
  }
  if (pos >= line.size()) return std::nullopt;
  return pairs;
}

std::optional<TraceRecord> TraceRecordFromJson(const std::string& line) {
  const std::size_t spans_pos = FindValue(line, "spans");
  if (spans_pos == std::string::npos) return std::nullopt;
  const auto schema = FieldStr(line, "schema");
  if (!schema || *schema != TraceRecord::kSchema) return std::nullopt;

  TraceRecord record;
  const auto trace = FieldU64(line, "trace");
  const auto service = FieldStr(line, "root_service");
  const auto endpoint = FieldStr(line, "root_endpoint");
  const auto start = FieldI64(line, "start");
  const auto end = FieldI64(line, "end");
  const auto grade = FieldStr(line, "grade");
  const auto confidence = FieldF64(line, "confidence");
  const auto min_confidence = FieldF64(line, "min_confidence");
  if (!trace || !service || !endpoint || !start || !end || !grade ||
      grade->size() != 1 || !confidence || !min_confidence) {
    return std::nullopt;
  }
  record.trace_id = *trace;
  record.root_service = *service;
  record.root_endpoint = *endpoint;
  record.start = *start;
  record.end = *end;
  record.grade = (*grade)[0];
  record.confidence = *confidence;
  record.min_confidence = *min_confidence;
  record.orphan = TopLevelBool(line, "orphan");
  record.suspect = TopLevelBool(line, "suspect");

  std::vector<std::string> elements;
  if (!SplitObjectArray(line, spans_pos, elements)) return std::nullopt;
  for (const std::string& element : elements) {
    auto span = SpanFromJson(element);
    if (!span) return std::nullopt;
    record.spans.push_back(std::move(*span));
  }
  if (record.spans.empty()) return std::nullopt;

  auto parents = ParsePairs(line, FindValue(line, "parents"));
  if (!parents) return std::nullopt;
  record.parents = std::move(*parents);

  const std::size_t prov_pos = FindValue(line, "provenance");
  if (prov_pos != std::string::npos) {
    std::vector<std::string> events;
    if (!SplitObjectArray(line, prov_pos, events)) return std::nullopt;
    for (const std::string& element : events) {
      auto event = ProvEventFromJson(element);
      if (!event) return std::nullopt;
      record.provenance.push_back(std::move(*event));
    }
  }
  return record;
}

std::uint32_t Crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::string Trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::optional<BackendCall> ParseCall(const std::string& token) {
  std::string t = Trim(token);
  if (t.empty()) return std::nullopt;
  BackendCall call;
  if (t.back() == '?') {
    call.optional = true;
    t.pop_back();
  }
  const std::size_t colon = t.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= t.size()) {
    return std::nullopt;
  }
  call.service = Trim(t.substr(0, colon));
  call.endpoint = Trim(t.substr(colon + 1));
  if (call.service.empty() || call.endpoint.empty()) return std::nullopt;
  return call;
}

std::optional<Stage> ParseStage(const std::string& body) {
  Stage stage;
  std::size_t pos = 0;
  while (pos <= body.size()) {
    const std::size_t sep = body.find("||", pos);
    const std::string token =
        body.substr(pos, sep == std::string::npos ? std::string::npos
                                                  : sep - pos);
    auto call = ParseCall(token);
    if (!call) return std::nullopt;
    stage.calls.push_back(std::move(*call));
    if (sep == std::string::npos) break;
    pos = sep + 2;
  }
  if (stage.calls.empty()) return std::nullopt;
  return stage;
}

std::optional<std::pair<HandlerKey, InvocationPlan>> ParseHandlerLine(
    const std::string& line) {
  const std::size_t lb = line.find('[');
  const std::size_t rb = line.find(']', lb == std::string::npos ? 0 : lb);
  const std::size_t arrow = line.find("->");
  if (lb == std::string::npos || rb == std::string::npos ||
      arrow == std::string::npos || arrow < rb) {
    return std::nullopt;
  }
  HandlerKey key;
  key.service = Trim(line.substr(0, lb));
  key.endpoint = Trim(line.substr(lb + 1, rb - lb - 1));
  if (key.service.empty() || key.endpoint.empty()) return std::nullopt;

  InvocationPlan plan;
  const std::string rest = Trim(line.substr(arrow + 2));
  if (rest == "(leaf)" || rest.empty()) {
    return std::make_pair(std::move(key), std::move(plan));
  }
  std::size_t pos = 0;
  while (pos < rest.size()) {
    const std::size_t open = rest.find('{', pos);
    if (open == std::string::npos) break;
    const std::size_t close = rest.find('}', open);
    if (close == std::string::npos) return std::nullopt;
    auto stage = ParseStage(rest.substr(open + 1, close - open - 1));
    if (!stage) return std::nullopt;
    plan.stages.push_back(std::move(*stage));
    pos = close + 1;
  }
  if (plan.stages.empty()) return std::nullopt;
  return std::make_pair(std::move(key), std::move(plan));
}

CallGraph ReadCallGraph(std::istream& in, std::size_t* dropped) {
  CallGraph graph;
  std::size_t bad = 0;
  std::string line;
  while (std::getline(in, line)) {
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (auto parsed = ParseHandlerLine(trimmed)) {
      graph.SetPlan(parsed->first, std::move(parsed->second));
    } else {
      ++bad;
    }
  }
  *dropped = bad;
  return graph;
}

}  // namespace ref

// ---------------------------------------------------------------------
// Comparison helpers.

/// Every field a span carries, ground truth included, in one string.
std::string Describe(const Span& s) {
  return SpanToJson(s, /*include_ground_truth=*/true);
}

std::string Describe(const std::optional<Span>& s) {
  return s ? Describe(*s) : "<rejected>";
}

/// Every field of a record, doubles bitwise.
std::string Describe(const std::optional<TraceRecord>& r) {
  if (!r) return "<rejected>";
  std::ostringstream out;
  std::uint64_t conf = 0, min_conf = 0;
  std::memcpy(&conf, &r->confidence, sizeof(conf));
  std::memcpy(&min_conf, &r->min_confidence, sizeof(min_conf));
  out << r->trace_id << '|' << r->root_service << '|' << r->root_endpoint
      << '|' << r->start << '|' << r->end << '|' << r->grade << '|' << conf
      << '|' << min_conf << '|' << r->orphan << r->suspect << '\n';
  for (const Span& s : r->spans) out << Describe(s) << '\n';
  for (const auto& [c, p] : r->parents) out << c << '>' << p << ',';
  out << '\n';
  for (const obs::ProvEvent& e : r->provenance) out << obs::ProvEventToJson(e);
  return out.str();
}

std::string Describe(const std::optional<obs::ProvEvent>& e) {
  return e ? obs::ProvEventToJson(*e) + "|" + e->detail : "<rejected>";
}

/// Every key a start-up decoder reads, from any line type.
const std::vector<std::string>& AllKeys() {
  static const std::vector<std::string> keys = {
      "id", "caller", "callee", "endpoint", "client_send", "server_recv",
      "server_send", "client_recv", "caller_replica", "callee_replica",
      "true_parent", "true_trace", "schema", "trace", "root_service",
      "root_endpoint", "start", "end", "grade", "confidence",
      "min_confidence", "orphan", "suspect", "span_count", "spans",
      "parents", "provenance", "t", "span", "v", "d", "ckpt", "deadline",
      "child", "parent", "parent_service", "parent_endpoint", "service",
      "replica", "stage", "call", "ingested", "windows_closed", "shed",
      "level", "key", "value", "samples", "inversions", "offset_mean",
      "offset_m2", "req_gaps", "resp_gaps", "started", "next_window_start",
      "high_watermark", "edges", "quality", "last_closed_end", "committed",
      "root", "tspans", "tparents", "skips", "footer", "lines", "crc32",
      "n", "pairs",
      "considered", "kept_interesting", "kept_random", "last_shed_end",
      "absent", ""};
  return keys;
}

std::string Show(const std::string& line) {
  return line.size() <= 400 ? line : line.substr(0, 400) + "...";
}

/// json::Fields, the Field* wrappers and FindValue answer every key's
/// every type exactly as the reference scanner does.
void ExpectSameFields(const std::string& line) {
  const json::Fields fields(line);
  for (const std::string& key : AllKeys()) {
    const char* k = key.c_str();
    const std::size_t pos = ref::FindValue(line, k);
    ASSERT_EQ(json::FindValue(line, key), pos) << key << " in " << Show(line);
    const auto view = fields.Find(key);
    ASSERT_EQ(view.has_value(), pos != std::string::npos) << key;
    if (view) {
      ASSERT_EQ(view->data(), line.data() + pos) << key;
    }
    ASSERT_EQ(fields.U64(key), ref::FieldU64(line, k)) << key;
    ASSERT_EQ(fields.I64(key), ref::FieldI64(line, k)) << key;
    ASSERT_EQ(fields.Str(key), ref::FieldStr(line, k)) << key;
    ASSERT_EQ(json::FieldStr(line, key), ref::FieldStr(line, k)) << key;
    const auto f64 = fields.F64(key);
    const auto ref_f64 = ref::FieldF64(line, k);
    ASSERT_EQ(f64.has_value(), ref_f64.has_value()) << key;
    if (f64) {
      ASSERT_EQ(std::memcmp(&*f64, &*ref_f64, sizeof(double)), 0)
          << key << " in " << Show(line);
    }
    ASSERT_EQ(fields.True(key), ref::TopLevelBool(line, k)) << key;
  }
}

void ExpectSameSpan(const std::string& line) {
  ASSERT_EQ(Describe(SpanFromJson(line)), Describe(ref::SpanFromJson(line)))
      << Show(line);
}

void ExpectSameRecord(const std::string& line) {
  ASSERT_EQ(Describe(TraceRecordFromJson(line)),
            Describe(ref::TraceRecordFromJson(line)))
      << Show(line);
}

void ExpectSameProv(const std::string& line) {
  ASSERT_EQ(Describe(obs::ProvEventFromJson(line)),
            Describe(ref::ProvEventFromJson(line)))
      << Show(line);
}

// ---------------------------------------------------------------------
// Generators.

using Field = std::pair<std::string, std::string>;  // Key, raw JSON value.

/// A hostile name: JSON structure, quotes, backslashes, control bytes,
/// multi-byte UTF-8 and embedded key look-alikes.
std::string HostileName(std::mt19937_64& rng) {
  static const std::vector<std::string> pieces = {
      "frontend", "geo", "/hotels", "\"", "\\", "x\",\"parent\":9",
      "\"id\":1,", "{", "}", "[", "]", ":", ",", "\n", "\t", "\x01",
      "\x1f", "\xc3\xa9", "\xe2\x82\xac", "\xf0\x9f\x98\x80", " ", "\\u",
      "\"spans\":[", "}]}", "/"};
  std::string name;
  const int n = 1 + static_cast<int>(rng() % 5);
  for (int i = 0; i < n; ++i) name += pieces[rng() % pieces.size()];
  return name;
}

/// `value` as a JSON string literal, re-spelling characters with the
/// other escapes a reader must accept: \/ and \uXXXX (surrogate pairs for
/// four-byte UTF-8), upper- or lower-case hex.
std::string Quote(const std::string& value, std::mt19937_64& rng) {
  std::string plain;
  json::AppendStr(plain, value);
  if (rng() % 3 == 0) return plain;
  std::string out = "\"";
  const auto hex4 = [&](std::uint32_t cp) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), rng() % 2 ? "\\u%04x" : "\\u%04X", cp);
    out += buf;
  };
  for (std::size_t i = 0; i < value.size();) {
    const auto c = static_cast<unsigned char>(value[i]);
    if (c >= 0xF0 && i + 3 < value.size() && rng() % 2) {
      const std::uint32_t cp = ((c & 0x07u) << 18) |
                               ((value[i + 1] & 0x3Fu) << 12) |
                               ((value[i + 2] & 0x3Fu) << 6) |
                               (value[i + 3] & 0x3Fu);
      hex4(0xD800 + ((cp - 0x10000) >> 10));
      hex4(0xDC00 + ((cp - 0x10000) & 0x3FF));
      i += 4;
      continue;
    }
    if (c >= 0xE0 && c < 0xF0 && i + 2 < value.size() && rng() % 2) {
      hex4(((c & 0x0Fu) << 12) | ((value[i + 1] & 0x3Fu) << 6) |
           (value[i + 2] & 0x3Fu));
      i += 3;
      continue;
    }
    if (c < 0x80 && rng() % 4 == 0) {
      if (c == '/') {
        out += "\\/";
      } else {
        hex4(c);
      }
    } else {
      std::string one;
      json::AppendStr(one, std::string_view(value).substr(i, 1));
      out += one.substr(1, one.size() - 2);
    }
    ++i;
  }
  out += '"';
  return out;
}

/// An invalid string literal: a bad escape, a lone surrogate or bad hex.
std::string BadQuote(std::mt19937_64& rng) {
  static const std::vector<std::string> bad = {
      "\"a\\qb\"", "\"\\ud83d\"", "\"\\ude00x\"", "\"\\u12G4\"",
      "\"\\ud83d\\u0041\"", "\"\\u00\"", "\"tail\\", "\"\\ud83d\\"};
  return bad[rng() % bad.size()];
}

std::string Ws(std::mt19937_64& rng) {
  static const char* const ws[] = {"", "", "", " ", "\t", "\r\n ", "  "};
  return ws[rng() % 7];
}

/// Renders fields as an object. `mess` adds whitespace, reorders, repeats
/// and inserts unknown keys (some holding nested objects with known keys,
/// or strings spelling out known keys).
std::string Render(std::vector<Field> fields, std::mt19937_64& rng,
                   bool mess) {
  if (mess) {
    if (rng() % 3 == 0) std::shuffle(fields.begin(), fields.end(), rng);
    if (!fields.empty() && rng() % 3 == 0) {
      // A repeat, before or after the first occurrence, with another
      // value: first occurrence wins.
      const Field dup = fields[rng() % fields.size()];
      const std::string other =
          rng() % 2 ? "\"other\"" : std::to_string(rng() % 1000);
      const auto at = static_cast<long>(rng() % (fields.size() + 1));
      fields.insert(fields.begin() + at, {dup.first, other});
    }
    const int unknown = static_cast<int>(rng() % 3);
    for (int u = 0; u < unknown; ++u) {
      static const std::vector<std::string> values = {
          "{\"id\":5,\"caller\":\"n\",\"spans\":[]}", "[1,[2,{\"t\":3}]]",
          "\"\\\"id\\\":7,\\\"parent\\\":8\"", "true", "null", "-0.5e3",
          "{\"a\":{\"b\":[\"}\"]}}"};
      const auto at = static_cast<long>(rng() % (fields.size() + 1));
      fields.insert(fields.begin() + at, {"x" + std::to_string(rng() % 100),
                                          values[rng() % values.size()]});
    }
  }
  std::string out = (mess ? Ws(rng) : "") + "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += (mess ? Ws(rng) : "") + ",";
    if (mess) out += Ws(rng);
    out += '"' + fields[i].first + '"';
    if (mess) out += Ws(rng);
    out += ':';
    if (mess) out += Ws(rng);
    out += fields[i].second;
  }
  out += (mess ? Ws(rng) : "") + "}";
  return out;
}

std::string Name(std::mt19937_64& rng) {
  return rng() % 2 ? HostileName(rng) : std::string("svc") +
                                            std::to_string(rng() % 9);
}

std::vector<Field> SpanFields(std::mt19937_64& rng) {
  const auto big = [&] { return std::to_string(rng() >> (rng() % 64)); };
  const auto signed_big = [&] {
    const auto v = static_cast<std::int64_t>(rng() >> 1);
    return std::to_string(rng() % 8 == 0 ? -v : v);
  };
  std::vector<Field> f = {
      {"id", big()},
      {"caller", rng() % 40 ? Quote(Name(rng), rng) : BadQuote(rng)},
      {"callee", Quote(Name(rng), rng)},
      {"endpoint", Quote(Name(rng), rng)},
      {"client_send", signed_big()},
      {"server_recv", signed_big()},
      {"server_send", signed_big()},
      {"client_recv", signed_big()},
      {"caller_replica", std::to_string(rng() % 4)},
      {"callee_replica", std::to_string(rng() % 4)}};
  if (rng() % 2) {
    f.push_back({"true_parent", big()});
    f.push_back({"true_trace", big()});
  }
  if (rng() % 20 == 0) f[rng() % f.size()].second = "-";  // A bad number.
  if (rng() % 20 == 0) f.erase(f.begin() + static_cast<long>(rng() % f.size()));
  return f;
}

std::vector<Field> ProvFields(std::mt19937_64& rng) {
  static const char* const types[] = {"settled", "skew_correct",
                                      "late_graft", "bogus"};
  std::vector<Field> f = {
      {"t", Quote(types[rng() % 4], rng)},
      {"span", std::to_string(rng())},
      {"v", std::to_string(static_cast<std::int64_t>(rng()))}};
  if (rng() % 2) f.push_back({"d", Quote(HostileName(rng), rng)});
  return f;
}

std::string ParentsArray(std::mt19937_64& rng, bool mess) {
  std::string out = "[";
  const int n = static_cast<int>(rng() % 4);
  for (int i = 0; i < n; ++i) {
    if (i > 0) out += ',';
    out += '[';
    if (mess && rng() % 6 == 0) out += Ws(rng);
    if (mess && rng() % 12 == 0) out += rng() % 2 ? "-" : "+";
    out += std::to_string(rng() >> (rng() % 64));
    if (mess && rng() % 12 == 0) out += ' ';
    out += ',';
    if (mess && rng() % 12 == 0) out += "99999999999999999999999";
    out += std::to_string(rng() % 100000);
    out += ']';
  }
  return out + "]";
}

std::string RecordLine(std::mt19937_64& rng, bool mess) {
  char conf[64];
  std::snprintf(conf, sizeof(conf), "%.6f",
                std::uniform_real_distribution<double>(0, 1)(rng));
  std::string spans = "[";
  const int n = static_cast<int>(rng() % 4) + (rng() % 10 == 0 ? 0 : 1);
  for (int i = 0; i < n; ++i) {
    if (i > 0) spans += mess && rng() % 15 == 0 ? ", " : ",";
    spans += Render(SpanFields(rng), rng, mess && rng() % 3 == 0);
  }
  spans += "]";
  std::vector<Field> f = {
      {"schema", rng() % 30 ? "\"traceweaver.trace.v1\""
                            : "\"traceweaver.trace.v2\""},
      {"trace", std::to_string(rng())},
      {"root_service", Quote(Name(rng), rng)},
      {"root_endpoint", Quote(Name(rng), rng)},
      {"start", std::to_string(static_cast<std::int64_t>(rng() >> 2))},
      {"end", std::to_string(static_cast<std::int64_t>(rng() >> 2))},
      {"grade", rng() % 20 ? "\"A\"" : "\"AB\""},
      {"confidence", conf},
      {"min_confidence", rng() % 20 ? conf : "1e400"},
      {"orphan", rng() % 2 ? "true" : "false"},
      {"suspect", rng() % 2 ? "true" : "false"},
      {"span_count", std::to_string(n)},
      {"spans", spans},
      {"parents", ParentsArray(rng, mess)}};
  if (rng() % 2) {
    std::string prov = "[";
    const int events = static_cast<int>(rng() % 4);
    for (int i = 0; i < events; ++i) {
      if (i > 0) prov += ',';
      prov += Render(ProvFields(rng), rng, mess && rng() % 3 == 0);
    }
    f.push_back({"provenance", prov + "]"});
  }
  return Render(f, rng, mess);
}

/// Splits a machine-written flat line into its fields (test input
/// plumbing: a wrong split only yields another input).
std::vector<Field> SplitFlat(const std::string& line) {
  std::vector<Field> fields;
  std::vector<std::pair<std::size_t, std::size_t>> keys;  // Quote, value.
  for (json::FieldWalker w(line); w.Next();) {
    fields.push_back({std::string(w.key()), ""});
    const auto quote =
        static_cast<std::size_t>(w.key().data() - line.data()) - 1;
    keys.emplace_back(quote, w.value_pos());
  }
  for (std::size_t i = 0; i < fields.size(); ++i) {
    const std::size_t end =
        i + 1 < keys.size() ? keys[i + 1].first - 1 : line.size() - 1;
    fields[i].second = line.substr(keys[i].second, end - keys[i].second);
  }
  return fields;
}

/// Every prefix of `line`, plus a few single-byte corruptions.
template <typename Check>
void ForEachDamage(const std::string& line, std::mt19937_64& rng,
                   Check&& check) {
  for (std::size_t cut = 0; cut < line.size(); ++cut) {
    check(line.substr(0, cut));
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (int flip = 0; flip < 8 && !line.empty(); ++flip) {
    std::string bad = line;
    static const char bytes[] = "\"\\{}[],:0 x";
    bad[rng() % bad.size()] = bytes[rng() % (sizeof(bytes) - 1)];
    check(bad);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------
// Tests.

TEST(DecoderReference, SpanLinesDecodeIdentically) {
  std::mt19937_64 rng(17);
  int accepted = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string line = Render(SpanFields(rng), rng, i % 2 == 1);
    ExpectSameSpan(line);
    ExpectSameFields(line);
    if (HasFatalFailure()) return;
    accepted += ref::SpanFromJson(line).has_value();
    if (i % 60 == 0) {
      ForEachDamage(line, rng, [](const std::string& damaged) {
        ExpectSameSpan(damaged);
        ExpectSameFields(damaged);
      });
      if (HasFatalFailure()) return;
    }
  }
  // The generator must exercise both outcomes.
  EXPECT_GT(accepted, 1500);
  EXPECT_LT(accepted, 3000);
}

TEST(DecoderReference, TraceRecordsDecodeIdentically) {
  std::mt19937_64 rng(23);
  int accepted = 0;
  for (int i = 0; i < 600; ++i) {
    const std::string line = RecordLine(rng, i % 2 == 1);
    ExpectSameRecord(line);
    ExpectSameFields(line);
    if (HasFatalFailure()) return;
    accepted += ref::TraceRecordFromJson(line).has_value();
    if (i % 40 == 0) {
      ForEachDamage(line, rng, [](const std::string& damaged) {
        ExpectSameRecord(damaged);
      });
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(accepted, 60);
  EXPECT_LT(accepted, 600);
}

/// json::U64PairWalker, the one pair-array reader (record parents and
/// checkpoint commit runs), keeps the previous parents loop's rules.
void ExpectSamePairs(const std::string& line) {
  const std::size_t pos = ref::FindValue(line, "pairs");
  const auto expected = ref::ParsePairs(line, pos);
  std::vector<std::pair<SpanId, SpanId>> got;
  bool ok = false;
  if (pos != std::string::npos) {
    json::U64PairWalker pairs(std::string_view(line).substr(pos));
    while (pairs.Next()) got.emplace_back(pairs.first(), pairs.second());
    ok = pairs.ok();
  }
  ASSERT_EQ(ok, expected.has_value()) << Show(line);
  if (ok) {
    ASSERT_EQ(got, *expected) << Show(line);
  }
}

TEST(DecoderReference, PairArraysDecodeIdentically) {
  std::mt19937_64 rng(19);
  int accepted = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string pairs = ParentsArray(rng, i % 2 == 1);
    if (i % 100 == 0) {
      // Runs as long as a full checkpoint commit run and then some.
      pairs = "[";
      const int n = 1000 + static_cast<int>(rng() % 100);
      for (int k = 0; k < n; ++k) {
        pairs += (k > 0 ? ",[" : "[") + std::to_string(rng()) + ',' +
                 std::to_string(rng()) + ']';
      }
      pairs += ']';
    }
    // The value view runs to the end of the line, so what follows the
    // array is part of the input.
    static const char* const tails[] = {"}", ",\"n\":3}", "", " }", "]}"};
    const std::string line =
        "{\"ckpt\":\"commits\",\"pairs\":" + pairs + tails[rng() % 5];
    ExpectSamePairs(line);
    if (HasFatalFailure()) return;
    accepted += ref::ParsePairs(line, ref::FindValue(line, "pairs"))
                    .has_value();
    if (i % 50 == 25) {  // Short arrays: every-byte damage stays cheap.
      ForEachDamage(line, rng, [](const std::string& damaged) {
        ExpectSamePairs(damaged);
      });
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(accepted, 1000);
  EXPECT_LT(accepted, 2000);
}

TEST(DecoderReference, ProvenanceEventsDecodeIdentically) {
  std::mt19937_64 rng(29);
  for (int i = 0; i < 2000; ++i) {
    const std::string line = Render(ProvFields(rng), rng, i % 2 == 1);
    ExpectSameProv(line);
    if (i % 100 == 0) {
      ForEachDamage(line, rng, [](const std::string& damaged) {
        ExpectSameProv(damaged);
      });
    }
    if (HasFatalFailure()) return;
  }
}

/// A weaver checkpoint with every record type the serve path writes:
/// buffer and late spans, commits, graft slots, stats, skew pairs,
/// pending provenance, pending windows and orphans, extras.
std::vector<std::string> CheckpointLines(std::string* bytes) {
  sim::AppSpec app = sim::MakeHotelReservationApp();
  sim::IsolatedReplayOptions iso;
  iso.requests_per_root = 10;
  const CallGraph graph =
      InferCallGraph(sim::RunIsolatedReplay(app, iso).spans);
  sim::OpenLoopOptions load;
  load.requests_per_sec = 150;
  load.duration = Seconds(2);
  load.seed = 5;
  std::vector<Span> spans = sim::RunOpenLoop(app, load).spans;
  sim::FaultSpec faults;
  faults.skew_stddev_ns = Micros(100);
  spans = sim::InjectFaults(std::move(spans), faults);
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.client_recv != b.client_recv ? a.client_recv < b.client_recv
                                          : a.id < b.id;
  });
  obs::ProvenanceLedger ledger;
  OnlineOptions opts;
  opts.window = Millis(200);
  opts.margin = Millis(100);
  opts.skew_correct = true;
  opts.provenance = &ledger;
  OnlineTraceWeaver weaver(graph, opts);
  TimeNs watermark = 0;
  for (std::size_t i = 0; i < spans.size() * 2 / 3; ++i) {
    weaver.Ingest(spans[i]);
    watermark = std::max(watermark, spans[i].client_send);
    weaver.Advance(watermark);
  }
  std::stringstream out;
  weaver.SaveCheckpoint(out, {{"source_offset", 77u}, {"x\"y", 5u}});
  *bytes = out.str();
  std::string error;
  const auto section = ReadChecksummedLines(
      out, OnlineTraceWeaver::kCheckpointSchema, &error);
  EXPECT_TRUE(section.has_value()) << error;
  if (!section) return {};
  return {section->lines.begin(), section->lines.end()};
}

/// Committer-state lines in the committer's formats: header, span,
/// edge and quality lines.
std::vector<std::string> CommitterLines(std::mt19937_64& rng) {
  std::vector<std::string> lines = {
      "{\"schema\":\"traceweaver.committer.v1\",\"spans\":3,\"edges\":2,"
      "\"quality\":1,\"last_closed_end\":-9223372036854775807,"
      "\"committed\":12}"};
  for (int i = 0; i < 40; ++i) {
    char buf[320];
    std::snprintf(buf, sizeof(buf), "{\"child\":%llu,\"parent\":%llu}",
                  static_cast<unsigned long long>(rng()),
                  static_cast<unsigned long long>(rng()));
    lines.push_back(buf);
    std::snprintf(buf, sizeof(buf),
                  "{\"root\":%llu,\"tspans\":%d,\"tparents\":%d,\"skips\":%d,"
                  "\"orphan\":%d,\"suspect\":%d,\"confidence\":%.17g,"
                  "\"min_confidence\":%.17g,\"grade\":\"%c\"}",
                  static_cast<unsigned long long>(rng()),
                  static_cast<int>(rng() % 30), static_cast<int>(rng() % 30),
                  static_cast<int>(rng() % 3), static_cast<int>(rng() % 2),
                  static_cast<int>(rng() % 2),
                  std::uniform_real_distribution<double>(0, 1)(rng),
                  std::uniform_real_distribution<double>(-1e-300, 1)(rng),
                  "ABCD"[rng() % 4]);
    lines.push_back(buf);
    lines.push_back(Render(SpanFields(rng), rng, false));
  }
  return lines;
}

TEST(DecoderReference, CheckpointAndCommitterLinesDecodeIdentically) {
  std::mt19937_64 rng(31);
  std::string bytes;
  std::vector<std::string> lines = CheckpointLines(&bytes);
  ASSERT_FALSE(lines.empty());
  // Every record type must be present, or this test checks less than it
  // claims.
  for (const char* type : {"buffer", "commits", "stats", "skew", "prov",
                           "extra"}) {
    EXPECT_NE(bytes.find(std::string("\"ckpt\":\"") + type + "\""),
              std::string::npos)
        << type;
  }
  // A commit run carries up to kCommitRun pairs. Its first three pairs
  // exercise the field scanners the same way at a length every-byte
  // damage can afford (pair arrays have their own test above).
  for (std::string& line : lines) {
    if (line.rfind("{\"ckpt\":\"commits\"", 0) != 0) continue;
    json::U64PairWalker pairs(*json::Fields(line).Find("pairs"));
    std::string run = "{\"ckpt\":\"commits\",\"n\":3,\"pairs\":[";
    for (int k = 0; k < 3 && pairs.Next(); ++k) {
      run += (k > 0 ? ",[" : "[") + std::to_string(pairs.first()) + ',' +
             std::to_string(pairs.second()) + ']';
    }
    line = run + "]}";
  }
  // The record types this stream leaves empty, in their writers' formats.
  std::string late = SpanToJson(Span{}, /*include_ground_truth=*/true);
  late.insert(1, "\"ckpt\":\"late\",\"deadline\":-5,");
  lines.push_back(late);
  lines.push_back(
      "{\"ckpt\":\"slot\",\"parent\":9,\"parent_service\":\"a\\\"b\","
      "\"parent_endpoint\":\"/x\",\"server_recv\":1,\"server_send\":2,"
      "\"replica\":3,\"stage\":0,\"call\":1,\"service\":\"c\","
      "\"endpoint\":\"/y\"}");
  lines.push_back(
      "{\"ckpt\":\"pendingw\",\"start\":-1,\"end\":2,\"shed\":1,"
      "\"level\":2}");
  lines.push_back("{\"ckpt\":\"pendingo\",\"id\":18446744073709551615}");
  lines.push_back("{\"ckpt\":\"orphan\",\"id\":18446744073709551616}");
  for (std::string& line : CommitterLines(rng)) lines.push_back(line);

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const std::vector<Field> fields = SplitFlat(line);
    for (int variant = 0; variant < 3; ++variant) {
      const std::string messy = variant == 0 ? line : Render(fields, rng, true);
      ExpectSameFields(messy);
      ExpectSameSpan(messy);
      ExpectSameProv(messy);
      if (HasFatalFailure()) return;
    }
    if (i % 25 == 0) {
      ForEachDamage(line, rng, [](const std::string& damaged) {
        ExpectSameFields(damaged);
        ExpectSameSpan(damaged);
      });
      if (HasFatalFailure()) return;
    }
  }
}

TEST(DecoderReference, MessyCheckpointResumesToTheSameState) {
  // Whitespace, reordered keys and unknown keys change no decoded value,
  // so a checkpoint re-spelled that way restores the state it was
  // written from: re-saving reproduces the original bytes.
  std::mt19937_64 rng(37);
  std::string bytes;
  const std::vector<std::string> lines = CheckpointLines(&bytes);
  ASSERT_FALSE(lines.empty());
  std::stringstream messy;
  ChecksummedWriter writer(messy, OnlineTraceWeaver::kCheckpointSchema);
  for (const std::string& line : lines) {
    std::vector<Field> fields = SplitFlat(line);
    std::shuffle(fields.begin(), fields.end(), rng);
    fields.push_back({"zz_unknown", "{\"ckpt\":\"bogus\",\"id\":1}"});
    std::string respelled = "{";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      respelled += (i > 0 ? " , \"" : " \"") + fields[i].first + "\" : " +
                   fields[i].second;
    }
    writer.WriteLine(respelled + " }");
  }
  writer.Finish();

  sim::AppSpec app = sim::MakeHotelReservationApp();
  sim::IsolatedReplayOptions iso;
  iso.requests_per_root = 10;
  const CallGraph graph =
      InferCallGraph(sim::RunIsolatedReplay(app, iso).spans);
  obs::ProvenanceLedger ledger;
  OnlineOptions opts;
  opts.window = Millis(200);
  opts.margin = Millis(100);
  opts.skew_correct = true;
  opts.provenance = &ledger;
  OnlineTraceWeaver restored(graph, opts);
  std::string error;
  std::map<std::string, std::uint64_t> extra;
  ASSERT_TRUE(restored.LoadCheckpoint(messy, &error, &extra)) << error;
  EXPECT_EQ(extra.at("source_offset"), 77u);
  EXPECT_EQ(extra.at("x\"y"), 5u);
  std::stringstream again;
  restored.SaveCheckpoint(again, extra);
  EXPECT_EQ(again.str(), bytes);
}

// ---------------------------------------------------------------------
// CRC-32.

TEST(DecoderReference, Crc32MatchesByteWiseAtEveryLengthAndOffset) {
  std::mt19937_64 rng(41);
  std::vector<unsigned char> buf(64 + 8 + 8);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const unsigned char* p = buf.data() + offset;
      const std::uint32_t seed = static_cast<std::uint32_t>(rng());
      ASSERT_EQ(Crc32(p, len), ref::Crc32(p, len, 0))
          << "offset " << offset << " len " << len;
      ASSERT_EQ(Crc32(p, len, seed), ref::Crc32(p, len, seed))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(DecoderReference, Crc32SplitAtEveryPointMatchesOneShot) {
  std::mt19937_64 rng(43);
  std::string data(300, '\0');
  for (char& c : data) c = static_cast<char>(rng());
  const std::uint32_t whole = Crc32(data.data(), data.size());
  ASSERT_EQ(whole, ref::Crc32(data.data(), data.size(), 0));
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t head = Crc32(data.data(), split);
    ASSERT_EQ(Crc32(data.data() + split, data.size() - split, head), whole)
        << split;
  }
  // Three-way splits at scattered points.
  for (int i = 0; i < 500; ++i) {
    std::size_t a = rng() % (data.size() + 1), b = rng() % (data.size() + 1);
    if (a > b) std::swap(a, b);
    std::uint32_t c = Crc32(data.data(), a);
    c = Crc32(data.data() + a, b - a, c);
    ASSERT_EQ(Crc32(data.data() + b, data.size() - b, c), whole);
  }
}

// ---------------------------------------------------------------------
// Call graphs.

std::string Describe(
    const std::optional<std::pair<HandlerKey, InvocationPlan>>& parsed) {
  if (!parsed) return "<rejected>";
  CallGraph one;
  one.SetPlan(parsed->first, parsed->second);
  return one.ToString();
}

TEST(DecoderReference, HandlerLinesParseIdentically) {
  std::vector<std::string> lines;
  // Every built-in application's inferred graph.
  for (const sim::AppSpec& app :
       {sim::MakeHotelReservationApp(), sim::MakeMediaMicroservicesApp(),
        sim::MakeNodejsApp(), sim::MakeLinearChainApp(),
        sim::MakeAbTestApp(0.1), sim::MakeFanoutApp(6),
        sim::MakeSocialNetworkApp()}) {
    sim::IsolatedReplayOptions iso;
    iso.requests_per_root = 5;
    const CallGraph graph =
        InferCallGraph(sim::RunIsolatedReplay(app, iso).spans);
    std::istringstream text(graph.ToString());
    std::string line;
    while (std::getline(text, line)) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 30u);
  // Whitespace-heavy and malformed lines.
  const std::vector<std::string> hand = {
      "  svc  [ /ep ]   ->   { a : /x  ||  b:/y? }   {c:/z}  ",
      "\tsvc\t[/ep]\t->\t(leaf)\t", "svc [/ep] ->", "svc [/ep] -> {}",
      "svc [/ep] -> { || }", "svc [/ep] -> {a:/x ||}", "svc [/ep] -> {:x}",
      "svc [/ep] -> {a:}", "svc [/ep] -> {a:/x?? }", "svc [] -> {a:/x}",
      " [/ep] -> {a:/x}", "svc [/ep -> {a:/x}", "svc ]/ep[ -> {a:/x}",
      "svc [/ep] {a:/x} ->", "svc [/ep] -> {a:/x} junk {b:/y}",
      "svc [/ep] -> {a:/x", "svc [/ep] -> a:/x}", "svc [/a[b]] -> (leaf)",
      "svc [/ep] -> {a:/x}{b:/y}", "svc [/ep] -> {a : /x ? }",
      "\v svc [/ep] -> (leaf) \f", "svc [/ep] -> ( leaf )",
      "#svc [/e] -> (leaf)", ""};
  lines.insert(lines.end(), hand.begin(), hand.end());
  std::mt19937_64 rng(47);
  const std::size_t base = lines.size();
  for (std::size_t i = 0; i < base; ++i) {
    // Truncations and one-byte corruptions of every line.
    const std::string line = lines[i];
    for (std::size_t cut = 0; cut < line.size(); cut += 3) {
      lines.push_back(line.substr(0, cut));
    }
    for (int k = 0; k < 4 && !line.empty(); ++k) {
      std::string bad = line;
      static const char bytes[] = "[]{}|?:- \t>";
      bad[rng() % bad.size()] = bytes[rng() % (sizeof(bytes) - 1)];
      lines.push_back(bad);
    }
  }
  std::string all;
  for (const std::string& line : lines) {
    ASSERT_EQ(Describe(ParseHandlerLine(line)),
              Describe(ref::ParseHandlerLine(line)))
        << '"' << line << '"';
    all += line + (rng() % 5 == 0 ? "\r\n" : "\n");
  }
  // Whole files, with CRLF endings, comments and blank lines.
  std::istringstream mine(all), theirs(all);
  std::size_t dropped = 0, ref_dropped = 0;
  const CallGraph got = ReadCallGraph(mine, &dropped);
  const CallGraph want = ref::ReadCallGraph(theirs, &ref_dropped);
  EXPECT_EQ(got.ToString(), want.ToString());
  EXPECT_EQ(dropped, ref_dropped);
}

}  // namespace
}  // namespace traceweaver
