#include "callgraph/serialization.h"

#include <cctype>
#include <istream>
#include <ostream>
#include <string_view>

namespace traceweaver {
namespace {

/// `s` without ASCII whitespace at either end (a view, no copy).
std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parses one "service:/endpoint[?]" call token.
std::optional<BackendCall> ParseCall(std::string_view token) {
  std::string_view t = Trim(token);
  if (t.empty()) return std::nullopt;
  BackendCall call;
  if (t.back() == '?') {
    call.optional = true;
    t.remove_suffix(1);
  }
  const std::size_t colon = t.find(':');
  if (colon == std::string_view::npos || colon == 0 || colon + 1 >= t.size()) {
    return std::nullopt;
  }
  const std::string_view service = Trim(t.substr(0, colon));
  const std::string_view endpoint = Trim(t.substr(colon + 1));
  if (service.empty() || endpoint.empty()) return std::nullopt;
  call.service = service;
  call.endpoint = endpoint;
  return call;
}

/// Parses one "{a:/x || b:/y}" stage body (braces already stripped).
std::optional<Stage> ParseStage(std::string_view body) {
  Stage stage;
  std::size_t pos = 0;
  while (pos <= body.size()) {
    const std::size_t sep = body.find("||", pos);
    auto call = ParseCall(body.substr(
        pos, sep == std::string_view::npos ? std::string_view::npos
                                           : sep - pos));
    if (!call) return std::nullopt;
    stage.calls.push_back(std::move(*call));
    if (sep == std::string_view::npos) break;
    pos = sep + 2;
  }
  if (stage.calls.empty()) return std::nullopt;
  return stage;
}

}  // namespace

std::optional<std::pair<HandlerKey, InvocationPlan>> ParseHandlerLine(
    std::string_view line) {
  constexpr auto npos = std::string_view::npos;
  // "<service> [<endpoint>] -> <stages or (leaf)>"
  const std::size_t lb = line.find('[');
  const std::size_t rb = line.find(']', lb == npos ? 0 : lb);
  const std::size_t arrow = line.find("->");
  if (lb == npos || rb == npos || arrow == npos || arrow < rb) {
    return std::nullopt;
  }
  const std::string_view service = Trim(line.substr(0, lb));
  const std::string_view endpoint = Trim(line.substr(lb + 1, rb - lb - 1));
  if (service.empty() || endpoint.empty()) return std::nullopt;
  HandlerKey key;
  key.service = service;
  key.endpoint = endpoint;

  InvocationPlan plan;
  const std::string_view rest = Trim(line.substr(arrow + 2));
  if (rest == "(leaf)" || rest.empty()) {
    return std::make_pair(std::move(key), std::move(plan));
  }

  std::size_t pos = 0;
  while (pos < rest.size()) {
    const std::size_t open = rest.find('{', pos);
    if (open == npos) break;
    const std::size_t close = rest.find('}', open);
    if (close == npos) return std::nullopt;
    auto stage = ParseStage(rest.substr(open + 1, close - open - 1));
    if (!stage) return std::nullopt;
    plan.stages.push_back(std::move(*stage));
    pos = close + 1;
  }
  if (plan.stages.empty()) return std::nullopt;
  return std::make_pair(std::move(key), std::move(plan));
}

void WriteCallGraph(std::ostream& out, const CallGraph& graph) {
  out << graph.ToString();
}

CallGraph ReadCallGraph(std::istream& in, std::size_t* dropped) {
  // The whole file in a few block reads; lines are parsed in place.
  std::string text;
  char chunk[4096];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  CallGraph graph;
  std::size_t bad = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    const std::string_view line =
        Trim(std::string_view(text).substr(pos, nl - pos));
    pos = nl + 1;
    if (line.empty() || line[0] == '#') continue;
    if (auto parsed = ParseHandlerLine(line)) {
      graph.SetPlan(parsed->first, std::move(parsed->second));
    } else {
      ++bad;
    }
  }
  if (dropped != nullptr) *dropped = bad;
  return graph;
}

}  // namespace traceweaver
