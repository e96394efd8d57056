#include "trace/jsonl_io.h"

#include <istream>
#include <ostream>

#include "util/json.h"

namespace traceweaver {
namespace {

void AppendField(std::string& out, const char* key, const std::string& value) {
  out += ',';
  json::AppendStrField(out, key, value);
}

void AppendField(std::string& out, const char* key, std::int64_t value) {
  out += ",\"";
  out += key;
  out += "\":";
  out += std::to_string(value);
}

void AppendField(std::string& out, const char* key, std::uint64_t value) {
  out += ",\"";
  out += key;
  out += "\":";
  out += std::to_string(value);
}

}  // namespace

std::string SpanToJson(const Span& s, bool include_ground_truth) {
  std::string out = "{\"id\":";
  out += std::to_string(static_cast<std::uint64_t>(s.id));
  AppendField(out, "caller", s.caller);
  AppendField(out, "callee", s.callee);
  AppendField(out, "endpoint", s.endpoint);
  AppendField(out, "client_send", static_cast<std::int64_t>(s.client_send));
  AppendField(out, "server_recv", static_cast<std::int64_t>(s.server_recv));
  AppendField(out, "server_send", static_cast<std::int64_t>(s.server_send));
  AppendField(out, "client_recv", static_cast<std::int64_t>(s.client_recv));
  AppendField(out, "caller_replica",
              static_cast<std::int64_t>(s.caller_replica));
  AppendField(out, "callee_replica",
              static_cast<std::int64_t>(s.callee_replica));
  if (include_ground_truth) {
    AppendField(out, "true_parent",
                static_cast<std::uint64_t>(s.true_parent));
    AppendField(out, "true_trace", static_cast<std::uint64_t>(s.true_trace));
  }
  out += '}';
  return out;
}

std::optional<Span> SpanFromJson(std::string_view line) {
  return SpanFromFields(json::Fields(line));
}

std::optional<Span> SpanFromFields(const json::Fields& fields) {
  Span s;
  const auto id = fields.U64("id");
  auto caller = fields.Str("caller");
  auto callee = fields.Str("callee");
  auto endpoint = fields.Str("endpoint");
  const auto cs = fields.I64("client_send");
  const auto sr = fields.I64("server_recv");
  const auto ss = fields.I64("server_send");
  const auto cr = fields.I64("client_recv");
  if (!id || !caller || !callee || !endpoint || !cs || !sr || !ss || !cr) {
    return std::nullopt;
  }
  s.id = *id;
  s.caller = std::move(*caller);
  s.callee = std::move(*callee);
  s.endpoint = std::move(*endpoint);
  s.client_send = *cs;
  s.server_recv = *sr;
  s.server_send = *ss;
  s.client_recv = *cr;
  s.caller_replica =
      static_cast<int>(fields.I64("caller_replica").value_or(0));
  s.callee_replica =
      static_cast<int>(fields.I64("callee_replica").value_or(0));
  s.true_parent = fields.U64("true_parent").value_or(kInvalidSpanId);
  s.true_trace = fields.U64("true_trace").value_or(kInvalidTraceId);
  return s;
}

void WriteSpansJsonl(std::ostream& out, const std::vector<Span>& spans,
                     bool include_ground_truth) {
  for (const Span& s : spans) {
    out << SpanToJson(s, include_ground_truth) << '\n';
  }
}

std::vector<Span> ReadSpansJsonl(std::istream& in, std::size_t* dropped) {
  std::vector<Span> spans;
  std::size_t bad = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (auto s = SpanFromJson(line)) {
      spans.push_back(std::move(*s));
    } else {
      ++bad;
    }
  }
  if (dropped != nullptr) *dropped = bad;
  return spans;
}

}  // namespace traceweaver
