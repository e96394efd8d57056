#include "trace/trace_record.h"

#include <cstdio>

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
  out += "],\"parents\":";
  json::AppendU64Pairs(out, record.parents);
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

std::optional<TraceRecord> TraceRecordFromJson(std::string_view line) {
  // One walk finds every record field; json::Fields only sees the
  // record's own keys, so a field of an embedded span can never shadow a
  // record field.
  const json::Fields fields(line);
  const auto spans_value = fields.Find("spans");
  if (!spans_value) return std::nullopt;
  const auto schema = fields.Str("schema");
  if (!schema || *schema != TraceRecord::kSchema) return std::nullopt;

  TraceRecord record;
  const auto trace = fields.U64("trace");
  auto service = fields.Str("root_service");
  auto endpoint = fields.Str("root_endpoint");
  const auto start = fields.I64("start");
  const auto end = fields.I64("end");
  const auto grade = fields.Str("grade");
  const auto confidence = fields.F64("confidence");
  const auto min_confidence = fields.F64("min_confidence");
  if (!trace || !service || !endpoint || !start || !end || !grade ||
      grade->size() != 1 || !confidence || !min_confidence) {
    return std::nullopt;
  }
  record.trace_id = *trace;
  record.root_service = std::move(*service);
  record.root_endpoint = std::move(*endpoint);
  record.start = *start;
  record.end = *end;
  record.grade = (*grade)[0];
  record.confidence = *confidence;
  record.min_confidence = *min_confidence;
  record.orphan = fields.True("orphan");
  record.suspect = fields.True("suspect");

  // Nested spans decode straight from their views into the line.
  json::ObjectArrayWalker spans(*spans_value);
  while (spans.Next()) {
    auto span = SpanFromJson(spans.element());
    if (!span) return std::nullopt;
    record.spans.push_back(std::move(*span));
  }
  if (!spans.ok() || record.spans.empty()) return std::nullopt;

  // Parent edges: a flat [[child,parent],...] of unsigned decimals.
  const auto parents = fields.Find("parents");
  if (!parents) return std::nullopt;
  json::U64PairWalker pairs(*parents);
  while (pairs.Next()) {
    record.parents.emplace_back(pairs.first(), pairs.second());
  }
  if (!pairs.ok()) return std::nullopt;

  // Optional provenance block (absent on records committed without a
  // ledger and on every pre-provenance record).
  if (const auto prov = fields.Find("provenance")) {
    json::ObjectArrayWalker events(*prov);
    while (events.Next()) {
      auto event = obs::ProvEventFromJson(events.element());
      if (!event) return std::nullopt;
      record.provenance.push_back(std::move(*event));
    }
    if (!events.ok()) return std::nullopt;
  }
  return record;
}

}  // namespace traceweaver
