// Text serialization for call graphs.
//
// One line per handler, the same format CallGraph::ToString renders:
//
//   service [/endpoint] -> {B:/b || C:/c?} {D:/d}
//   leafsvc [/x] -> (leaf)
//
// Stages in `{}` run sequentially; calls inside a stage (separated by `||`)
// run in parallel; a trailing `?` marks an optional (skippable) call.
// This is the on-disk format the CLI uses to pass operator-provided or
// inferred call graphs between runs (§3 "provided directly by the
// operator").
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "callgraph/call_graph.h"

namespace traceweaver {

/// Parses one handler line; nullopt on malformed input.
/// Exposed for testing; most callers use ReadCallGraph.
std::optional<std::pair<HandlerKey, InvocationPlan>> ParseHandlerLine(
    std::string_view line);

/// Serializes the graph in the line format above (same as ToString).
void WriteCallGraph(std::ostream& out, const CallGraph& graph);

/// Parses a call graph; malformed lines are skipped and counted in
/// *dropped when provided. Blank lines and lines starting with '#' are
/// ignored.
CallGraph ReadCallGraph(std::istream& in, std::size_t* dropped = nullptr);

}  // namespace traceweaver
