// Structure-of-arrays span view for the reconstruction hot path.
//
// The optimizer's window scans and seed-series loops read only the client
// timestamps of each candidate-pool span, yet the AoS layout drags the
// whole ~150-byte record (strings included) through the cache per span.
// SpanColumns copies those two fields of an ordered span sequence into
// contiguous arrays so the loops stream exactly the bytes they need.
//
// It is a pure view: it copies field values out of the source spans and
// never mutates them, so building it cannot change any reconstruction
// result.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "trace/span.h"

namespace traceweaver {

/// Client-timestamp columns for one ordered span sequence (e.g. one
/// candidate pool, sorted by client_send). Column index i corresponds to
/// the i-th source span.
struct SpanColumns {
  std::vector<TimeNs> client_send;
  std::vector<TimeNs> client_recv;

  /// Rebuilds both columns from `src` (previous contents discarded).
  void Build(std::span<const Span* const> src);

  std::size_t size() const { return client_send.size(); }
  bool empty() const { return client_send.empty(); }
};

}  // namespace traceweaver
