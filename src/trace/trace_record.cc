#include "trace/trace_record.h"

#include <cstdio>
#include <cstdlib>

#include "trace/jsonl_io.h"
#include "util/json.h"

namespace traceweaver {
namespace {

void AppendF64(std::string& out, const char* key, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"%s\":%.6f", key, v);
  out += buf;
}

void AppendBool(std::string& out, const char* key, bool v) {
  out += ",\"";
  out += key;
  out += v ? "\":true" : "\":false";
}

bool TopLevelBool(const std::string& line, const char* key) {
  const std::size_t pos = json::FindValue(line, key);
  return pos != std::string::npos && line.compare(pos, 4, "true") == 0;
}

/// Splits a JSON array of objects starting at line[pos] == '['. Elements
/// are returned verbatim; returns false on malformed framing.
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
  return false;  // No closing ']'.
}

}  // namespace

std::string TraceRecordToJson(const TraceRecord& record) {
  std::string out = "{\"schema\":\"";
  out += TraceRecord::kSchema;
  out += "\",\"trace\":";
  out += std::to_string(static_cast<std::uint64_t>(record.trace_id));
  json::AppendStrField(out += ',', "root_service", record.root_service);
  json::AppendStrField(out += ',', "root_endpoint", record.root_endpoint);
  out += ",\"start\":";
  out += std::to_string(static_cast<std::int64_t>(record.start));
  out += ",\"end\":";
  out += std::to_string(static_cast<std::int64_t>(record.end));
  out += ",\"grade\":\"";
  out += record.grade;
  out += '"';
  AppendF64(out, "confidence", record.confidence);
  AppendF64(out, "min_confidence", record.min_confidence);
  AppendBool(out, "orphan", record.orphan);
  AppendBool(out, "suspect", record.suspect);
  out += ",\"span_count\":";
  out += std::to_string(record.spans.size());
  out += ",\"spans\":[";
  for (std::size_t i = 0; i < record.spans.size(); ++i) {
    if (i > 0) out += ',';
    out += SpanToJson(record.spans[i], /*include_ground_truth=*/true);
  }
  out += "],\"parents\":[";
  for (std::size_t i = 0; i < record.parents.size(); ++i) {
    if (i > 0) out += ',';
    out += '[';
    out += std::to_string(static_cast<std::uint64_t>(record.parents[i].first));
    out += ',';
    out +=
        std::to_string(static_cast<std::uint64_t>(record.parents[i].second));
    out += ']';
  }
  out += ']';
  if (!record.provenance.empty()) {
    out += ",\"provenance\":[";
    for (std::size_t i = 0; i < record.provenance.size(); ++i) {
      if (i > 0) out += ',';
      out += obs::ProvEventToJson(record.provenance[i]);
    }
    out += ']';
  }
  out += '}';
  return out;
}

std::optional<TraceRecord> TraceRecordFromJson(const std::string& line) {
  // json::FindValue only matches the record's own keys, so a field of an
  // embedded span can never shadow a record field.
  const std::size_t spans_pos = json::FindValue(line, "spans");
  if (spans_pos == std::string::npos) return std::nullopt;
  const auto schema = json::FieldStr(line, "schema");
  if (!schema || *schema != TraceRecord::kSchema) return std::nullopt;

  TraceRecord record;
  const auto trace = json::FieldU64(line, "trace");
  const auto service = json::FieldStr(line, "root_service");
  const auto endpoint = json::FieldStr(line, "root_endpoint");
  const auto start = json::FieldI64(line, "start");
  const auto end = json::FieldI64(line, "end");
  const auto grade = json::FieldStr(line, "grade");
  const auto confidence = json::FieldF64(line, "confidence");
  const auto min_confidence = json::FieldF64(line, "min_confidence");
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
  record.spans.reserve(elements.size());
  for (const std::string& element : elements) {
    auto span = SpanFromJson(element);
    if (!span) return std::nullopt;
    record.spans.push_back(std::move(*span));
  }
  if (record.spans.empty()) return std::nullopt;

  // Parent edges: a flat [[child,parent],...] of unsigned decimals.
  std::size_t pos = json::FindValue(line, "parents");
  if (pos == std::string::npos || pos >= line.size() || line[pos] != '[') {
    return std::nullopt;
  }
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
    record.parents.emplace_back(child, parent);
  }
  if (pos >= line.size()) return std::nullopt;

  // Optional provenance block (absent on records committed without a
  // ledger and on every pre-provenance record).
  const std::size_t prov_pos = json::FindValue(line, "provenance");
  if (prov_pos != std::string::npos) {
    std::vector<std::string> events;
    if (!SplitObjectArray(line, prov_pos, events)) return std::nullopt;
    record.provenance.reserve(events.size());
    for (const std::string& element : events) {
      auto event = obs::ProvEventFromJson(element);
      if (!event) return std::nullopt;
      record.provenance.push_back(std::move(*event));
    }
  }
  return record;
}

}  // namespace traceweaver
