// Batched exponential and logarithm for the GMM hot path.
//
// glibc's scalar exp() and log() account for essentially all of refit time
// (tens of millions of calls per reconstruction), and their
// IFUNC-dispatched variants are opaque function calls the compiler cannot
// vectorize. ExpBatch is a drop-in batched replacement: a 128-entry
// double-double table of 2^(j/128) plus a degree-5 polynomial, accurate to
// ~2 ulp over the full double range, with correct +-0 / +-inf / NaN /
// underflow-to-zero / overflow semantics (exp(0) == 1.0 and
// exp(a) == +0.0 for a < -746 hold exactly). LogBatch mirrors it for the
// log-sum-exp finalization: a 128-entry 1/c + log(c) double-double table
// with a degree-7 log1p polynomial, log(1.0) == +0.0 exact.
//
// Determinism contract: one implementation variant is resolved at startup
// (AVX2+FMA four-lane when the CPU supports it and TRACEWEAVER_NO_SIMD is
// not defined, otherwise a portable scalar loop) and every call in the
// process uses that variant, so results are identical across threads,
// across batch/per-call scoring paths, and across repeated runs on the
// same machine. Like glibc's own IFUNC dispatch, results may differ in the
// last ulp across machines with different SIMD capabilities; nothing in
// the repository depends on cross-machine bit-equality.
//
// The table is built once at startup from long-double libm (x86 80-bit),
// giving entries accurate to ~2^-64 -- no baked-in data to go stale.
#pragma once

#include <cstddef>

namespace traceweaver::stats_internal {

using ExpBatchFn = void (*)(const double*, double*, std::size_t);

/// Resolves the implementation variant (called once; prefer ExpBatch).
ExpBatchFn ResolveExpBatch();

/// out[i] = exp(in[i]) for i in [0, n). in and out may alias exactly
/// (in == out); partial overlap is not allowed.
inline void ExpBatch(const double* in, double* out, std::size_t n) {
  static const ExpBatchFn fn = ResolveExpBatch();
  fn(in, out, n);
}

using LogBatchFn = void (*)(const double*, double*, std::size_t);

/// Resolves the log implementation variant (called once; prefer LogBatch).
LogBatchFn ResolveLogBatch();

/// out[i] = log(in[i]) for i in [0, n), under the same determinism
/// contract as ExpBatch: one variant per process, batch-size invariant
/// (a one-element call returns the same bits as the same value inside a
/// large batch). log(1.0) == +0.0 exactly; non-positive / subnormal /
/// non-finite inputs defer to libm. in and out may alias exactly.
inline void LogBatch(const double* in, double* out, std::size_t n) {
  static const LogBatchFn fn = ResolveLogBatch();
  fn(in, out, n);
}

/// Single-value convenience wrapper around LogBatch (identical bits).
inline double LogOne(double x) {
  double y;
  LogBatch(&x, &y, 1);
  return y;
}

}  // namespace traceweaver::stats_internal
