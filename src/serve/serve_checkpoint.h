// The serve loop's crash-consistent checkpoint: one file per generation.
//
// `<dir>/checkpoint.jsonl` holds consecutive CRC-framed sections
// (trace/checkpoint.h), each ending at its own footer:
//
//   1. the weaver checkpoint (`traceweaver.checkpoint.v3`), carrying the
//      source offset as its `source_offset` extra and the committed
//      assignments as packed `"ckpt":"commits"` runs;
//   2. the committer's pending state (`traceweaver.committer.v1`), when
//      the run has a store;
//   3. the tail sampler's state (`traceweaver.sampler.v1`), when the run
//      samples.
//
// A generation is written to `checkpoint.jsonl.tmp` and renamed into
// place, so the file on disk is always one whole generation: a crash
// before the rename leaves the previous one, a crash after it leaves the
// new one. The store is sealed first, so everything the saved offset
// counts as consumed is durable; a resume from an older generation just
// replays the source tail, and the store absorbs the re-commits.
//
// Each section is read into one buffer and checked with one CRC, and the
// read stops at the section's footer, so the next section starts where
// the previous one ended. A file whose weaver section has another schema
// (v1 or v2, from an older build) fails the resume, and serve starts
// fresh.
#pragma once

#include <cstdint>
#include <string>

#include "core/online.h"
#include "store/committer.h"
#include "store/store.h"
#include "store/tail_sampler.h"

namespace traceweaver::serve {

/// The state one serve checkpoint covers. Null members are absent from
/// the run (no store, no tail sampler) and from the file.
struct ServeState {
  OnlineTraceWeaver* weaver = nullptr;
  store::TraceStore* store = nullptr;
  store::TraceCommitter* committer = nullptr;
  store::TailSampler* sampler = nullptr;
};

/// Seals the store, then writes one checkpoint generation into `dir`
/// (tmp file + one rename). Returns false with a reason in *error when
/// the seal or the write fails; the previous generation stays intact.
bool SaveServeCheckpoint(const std::string& dir, const ServeState& state,
                         std::uint64_t source_offset, std::string* error);

/// Restores every section of `dir`'s checkpoint into `state`, in file
/// order, and sets *source_offset. All or none: on a missing, truncated,
/// corrupt or mismatched file (wrong schema, a section this run lacks
/// or does not expect) it returns false with a reason in *error and
/// leaves the weaver, committer and sampler as they were.
bool ResumeServeCheckpoint(const std::string& dir, const ServeState& state,
                           std::uint64_t* source_offset, std::string* error);

}  // namespace traceweaver::serve
