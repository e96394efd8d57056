#include "stats/fast_exp.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#if defined(__x86_64__) && !defined(TRACEWEAVER_NO_SIMD)
#include <immintrin.h>
#define TRACEWEAVER_EXP_FMA_VARIANT 1
#endif

namespace traceweaver::stats_internal {
namespace {

// exp(x) = 2^e * 2^(j/128) * exp(r) with ki = round(x * 128/ln2),
// e = ki >> 7, j = ki & 127 and r = x - ki*ln2/128 in [-ln2/256, ln2/256].
// 2^(j/128) is a double-double table entry; exp(r) - 1 is a degree-5
// Taylor polynomial whose truncation error (r^6/720 < 6e-19) is far below
// the ~1 ulp rounding noise of the combining arithmetic.
struct ExpTable {
  double hi[128];
  double lo[128];
  double inv_ln2_n;  ///< 128/ln2.
  double ln2_hi_n;   ///< ln2/128, top 33 mantissa bits (so ki * ln2_hi_n
                     ///< is exact: 18-bit ki + 33 bits <= 53).
  double ln2_lo_n;   ///< ln2/128 - ln2_hi_n.
};

ExpTable BuildExpTable() {
  ExpTable t;
  // x86 long double (64-bit mantissa) gives every entry ~2^-64 relative
  // accuracy; the low word of each double-double is exact to that level.
  const long double ln2 = logl(2.0L);
  t.inv_ln2_n = static_cast<double>(128.0L / ln2);
  const long double ln2n = ln2 / 128.0L;
  double hi = static_cast<double>(ln2n);
  std::uint64_t bits;
  std::memcpy(&bits, &hi, sizeof(bits));
  bits &= ~((std::uint64_t{1} << 20) - 1);  // keep 33 significant bits
  std::memcpy(&hi, &bits, sizeof(bits));
  t.ln2_hi_n = hi;
  t.ln2_lo_n = static_cast<double>(ln2n - static_cast<long double>(hi));
  for (int j = 0; j < 128; ++j) {
    const long double v = exp2l(static_cast<long double>(j) / 128.0L);
    t.hi[j] = static_cast<double>(v);
    t.lo[j] = static_cast<double>(v - static_cast<long double>(t.hi[j]));
  }
  return t;
}

const ExpTable& GetExpTable() {
  static const ExpTable table = BuildExpTable();
  return table;
}

// Clamping keeps |round(x * 128/ln2)| < 2^18 so the shift-rounding trick
// and the exact ki * ln2_hi_n product both hold. exp(-750) underflows to
// +0.0 and exp(710) overflows to +inf through the ordinary scaling path,
// so the clamp does not change any result.
constexpr double kClampLo = -750.0;
constexpr double kClampHi = 710.0;
constexpr double kShift = 0x1.8p52;
constexpr double kC2 = 1.0 / 2.0;
constexpr double kC3 = 1.0 / 6.0;
constexpr double kC4 = 1.0 / 24.0;
constexpr double kC5 = 1.0 / 120.0;

inline double Pow2(std::int64_t e) {
  const std::uint64_t b = static_cast<std::uint64_t>(e + 1023) << 52;
  double d;
  std::memcpy(&d, &b, sizeof(d));
  return d;
}

inline double ExpScalarOne(const ExpTable& t, double x) {
  if (!(x > kClampLo)) {           // x <= -750, -inf, or NaN
    if (x != x) return x + x;      // quiet the NaN, as libm does
    return 0.0;
  }
  if (x > kClampHi) return std::numeric_limits<double>::infinity();
  const double z = x * t.inv_ln2_n;
  const double kd = (z + kShift) - kShift;  // round to nearest integer
  const auto ki = static_cast<std::int64_t>(kd);
  const double r = (x - kd * t.ln2_hi_n) - kd * t.ln2_lo_n;
  const std::int64_t idx = ki & 127;
  const std::int64_t e = ki >> 7;
  const double r2 = r * r;
  double h = kC4 + r * kC5;
  h = kC3 + r * h;
  h = kC2 + r * h;
  const double p = r + r2 * h;  // exp(r) - 1
  const double hi = t.hi[idx];
  const double value = hi + (t.lo[idx] + hi * p);
  // Two-step scaling: value in [1, 2), e1 and e2 within +-542, so the
  // first product is an exact power-of-two scale and the second performs
  // the single rounding into subnormals / infinity.
  const std::int64_t e1 = e >> 1;
  return (value * Pow2(e1)) * Pow2(e - e1);
}

void ExpBatchScalar(const double* in, double* out, std::size_t n) {
  const ExpTable& t = GetExpTable();
  for (std::size_t i = 0; i < n; ++i) out[i] = ExpScalarOne(t, in[i]);
}

#ifdef TRACEWEAVER_EXP_FMA_VARIANT

__attribute__((target("avx2,fma"))) inline __m256d
ExpVec4(const ExpTable& t, __m256d x) {
  // maxpd/minpd pick the second operand on NaN, so NaN lanes clamp to
  // kClampLo here and are patched back at the end.
  const __m256d xc = _mm256_min_pd(
      _mm256_max_pd(x, _mm256_set1_pd(kClampLo)), _mm256_set1_pd(kClampHi));
  const __m256d vshift = _mm256_set1_pd(kShift);
  const __m256d z = _mm256_mul_pd(xc, _mm256_set1_pd(t.inv_ln2_n));
  const __m256d kd_s = _mm256_add_pd(z, vshift);
  const __m256d kd = _mm256_sub_pd(kd_s, vshift);
  // kd_s = 1.5 * 2^52 + ki exactly, so each lane's low 32 bits hold ki in
  // two's complement.
  const __m256i ki_words = _mm256_permutevar8x32_epi32(
      _mm256_castpd_si256(kd_s), _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0));
  const __m128i ki = _mm256_castsi256_si128(ki_words);
  const __m128i idx = _mm_and_si128(ki, _mm_set1_epi32(127));
  const __m128i e = _mm_srai_epi32(ki, 7);
  __m256d r = _mm256_fnmadd_pd(kd, _mm256_set1_pd(t.ln2_hi_n), xc);
  r = _mm256_fnmadd_pd(kd, _mm256_set1_pd(t.ln2_lo_n), r);
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d h = _mm256_fmadd_pd(r, _mm256_set1_pd(kC5), _mm256_set1_pd(kC4));
  h = _mm256_fmadd_pd(r, h, _mm256_set1_pd(kC3));
  h = _mm256_fmadd_pd(r, h, _mm256_set1_pd(kC2));
  const __m256d p = _mm256_fmadd_pd(r2, h, r);
  // Masked gathers with an explicit zero source: the plain gather intrinsic
  // expands with an uninitialized pass-through operand, tripping
  // -Wmaybe-uninitialized at -O2.
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  const __m256d hi =
      _mm256_mask_i32gather_pd(_mm256_setzero_pd(), t.hi, idx, all, 8);
  const __m256d lo =
      _mm256_mask_i32gather_pd(_mm256_setzero_pd(), t.lo, idx, all, 8);
  const __m256d value = _mm256_add_pd(hi, _mm256_fmadd_pd(hi, p, lo));
  const __m128i e1 = _mm_srai_epi32(e, 1);
  const __m128i e2 = _mm_sub_epi32(e, e1);
  const __m256i bias = _mm256_set1_epi64x(1023);
  const __m256d s1 = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(_mm256_cvtepi32_epi64(e1), bias), 52));
  const __m256d s2 = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(_mm256_cvtepi32_epi64(e2), bias), 52));
  __m256d res = _mm256_mul_pd(_mm256_mul_pd(value, s1), s2);
  const __m256d nan_mask = _mm256_cmp_pd(x, x, _CMP_UNORD_Q);
  res = _mm256_blendv_pd(res, _mm256_add_pd(x, x), nan_mask);
  return res;
}

__attribute__((target("avx2,fma"))) void ExpBatchFma(const double* in,
                                                     double* out,
                                                     std::size_t n) {
  const ExpTable& t = GetExpTable();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, ExpVec4(t, _mm256_loadu_pd(in + i)));
  }
  if (i < n) {
    // Tail lanes go through the identical vector path via a padded block.
    alignas(32) double buf[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t j = 0; i + j < n; ++j) buf[j] = in[i + j];
    _mm256_store_pd(buf, ExpVec4(t, _mm256_load_pd(buf)));
    for (std::size_t j = 0; i + j < n; ++j) out[i + j] = buf[j];
  }
}

#endif  // TRACEWEAVER_EXP_FMA_VARIANT

// log(x) = k*ln2 + log(c) + log1p(r) with x = 2^k * z, z in [0.6875,
// 1.375), c the midpoint of z's 1/128-wide mantissa interval and
// r = z/c - 1 (|r| <~ 2^-7). log(c) is a double-double table entry storing
// -log(invc) so the rounding of invc is folded in; log1p(r) - r is a
// degree-7 Taylor tail (truncation error r^8/8 < 2e-18).
struct LogTable {
  double invc[128];
  double lch[128];  ///< High word of -log(invc[i]).
  double lcl[128];  ///< Low word (double-double residual).
  double ln2_hi;    ///< Top 42 mantissa bits of ln2, so k * ln2_hi is
                    ///< exact for the 11-bit exponent range of k.
  double ln2_lo;    ///< ln2 - ln2_hi.
};

// Bit offset that re-centers the mantissa so z lands in [0.6875, 1.375).
constexpr std::uint64_t kLogOff = 0x3fe6000000000000ULL;
constexpr double kMinNormal = 0x1p-1022;

LogTable BuildLogTable() {
  LogTable t;
  const long double ln2 = logl(2.0L);
  double h = static_cast<double>(ln2);
  std::uint64_t bits;
  std::memcpy(&bits, &h, sizeof(bits));
  bits &= ~std::uint64_t{0x7ff};  // keep 42 significant bits
  std::memcpy(&h, &bits, sizeof(bits));
  t.ln2_hi = h;
  t.ln2_lo = static_cast<double>(ln2 - static_cast<long double>(h));
  for (int i = 0; i < 128; ++i) {
    const std::uint64_t cb = kLogOff + (static_cast<std::uint64_t>(i) << 45) +
                             (std::uint64_t{1} << 44);
    double c;
    std::memcpy(&c, &cb, sizeof(c));
    t.invc[i] = static_cast<double>(1.0L / static_cast<long double>(c));
    const long double lc = -logl(static_cast<long double>(t.invc[i]));
    t.lch[i] = static_cast<double>(lc);
    t.lcl[i] = static_cast<double>(lc - static_cast<long double>(t.lch[i]));
  }
  return t;
}

const LogTable& GetLogTable() {
  static const LogTable table = BuildLogTable();
  return table;
}

// Taylor tail of log1p: (log1p(r) - r) / r^2 = -1/2 + r/3 - r^2/4 + ...
constexpr double kL2 = -1.0 / 2.0;
constexpr double kL3 = 1.0 / 3.0;
constexpr double kL4 = -1.0 / 4.0;
constexpr double kL5 = 1.0 / 5.0;
constexpr double kL6 = -1.0 / 6.0;
constexpr double kL7 = 1.0 / 7.0;

inline double LogScalarOne(const LogTable& t, double x) {
  if (x == 1.0) return 0.0;  // the log-sum-exp "max component" identity
  std::uint64_t ix;
  std::memcpy(&ix, &x, sizeof(ix));
  // Non-positive, subnormal, or non-finite: never hot, defer to libm.
  if (ix - 0x0010000000000000ULL >=
      0x7ff0000000000000ULL - 0x0010000000000000ULL) {
    return std::log(x);
  }
  const std::uint64_t tmp = ix - kLogOff;
  const std::size_t idx = (tmp >> 45) & 127;
  const auto k = static_cast<std::int64_t>(tmp) >> 52;
  const std::uint64_t iz = ix - (tmp & (std::uint64_t{0xfff} << 52));
  double z;
  std::memcpy(&z, &iz, sizeof(z));
  const double kd = static_cast<double>(k);
  const double r = z * t.invc[idx] - 1.0;
  const double w = kd * t.ln2_hi + t.lch[idx];  // kd * ln2_hi is exact
  const double hi = w + r;
  const double lo = (w - hi + r) + (t.lcl[idx] + kd * t.ln2_lo);
  const double r2 = r * r;
  double p = kL6 + r * kL7;
  p = kL5 + r * p;
  p = kL4 + r * p;
  p = kL3 + r * p;
  p = kL2 + r * p;
  return (lo + r2 * p) + hi;
}

void LogBatchScalar(const double* in, double* out, std::size_t n) {
  const LogTable& t = GetLogTable();
  for (std::size_t i = 0; i < n; ++i) out[i] = LogScalarOne(t, in[i]);
}

#ifdef TRACEWEAVER_EXP_FMA_VARIANT

__attribute__((target("avx2,fma"))) inline __m256d
LogVec4Core(const LogTable& t, __m256d x) {
  const __m256i ix = _mm256_castpd_si256(x);
  const __m256i tmp =
      _mm256_sub_epi64(ix, _mm256_set1_epi64x(static_cast<long long>(kLogOff)));
  const __m256i idx = _mm256_and_si256(_mm256_srli_epi64(tmp, 45),
                                       _mm256_set1_epi64x(127));
  // Arithmetic >>52 of each 64-bit lane via a 32-bit shift of the high
  // words: (int32)(tmp >> 32) >> 20 == (int64)tmp >> 52 for our range.
  const __m256i hi32 = _mm256_srai_epi32(tmp, 20);
  const __m128i k32 = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
      hi32, _mm256_setr_epi32(1, 3, 5, 7, 0, 0, 0, 0)));
  const __m256d kd = _mm256_cvtepi32_pd(k32);
  const __m256i iz = _mm256_sub_epi64(
      ix, _mm256_and_si256(
              tmp, _mm256_set1_epi64x(
                       static_cast<long long>(std::uint64_t{0xfff} << 52))));
  const __m256d z = _mm256_castsi256_pd(iz);
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  const __m256d invc =
      _mm256_mask_i64gather_pd(_mm256_setzero_pd(), t.invc, idx, all, 8);
  const __m256d lch =
      _mm256_mask_i64gather_pd(_mm256_setzero_pd(), t.lch, idx, all, 8);
  const __m256d lcl =
      _mm256_mask_i64gather_pd(_mm256_setzero_pd(), t.lcl, idx, all, 8);
  const __m256d r = _mm256_fmsub_pd(z, invc, _mm256_set1_pd(1.0));
  const __m256d w = _mm256_fmadd_pd(kd, _mm256_set1_pd(t.ln2_hi), lch);
  const __m256d hi = _mm256_add_pd(w, r);
  const __m256d lo =
      _mm256_add_pd(_mm256_add_pd(_mm256_sub_pd(w, hi), r),
                    _mm256_fmadd_pd(kd, _mm256_set1_pd(t.ln2_lo), lcl));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d p = _mm256_fmadd_pd(r, _mm256_set1_pd(kL7), _mm256_set1_pd(kL6));
  p = _mm256_fmadd_pd(r, p, _mm256_set1_pd(kL5));
  p = _mm256_fmadd_pd(r, p, _mm256_set1_pd(kL4));
  p = _mm256_fmadd_pd(r, p, _mm256_set1_pd(kL3));
  p = _mm256_fmadd_pd(r, p, _mm256_set1_pd(kL2));
  return _mm256_add_pd(_mm256_fmadd_pd(r2, p, lo), hi);
}

__attribute__((target("avx2,fma"))) inline int LogSpecialMask(__m256d x) {
  // Lanes needing the scalar fix-up: x < DBL_MIN or NaN (NGE_UQ is true
  // for unordered), x == 1.0, or x == +inf.
  const __m256d m_small =
      _mm256_cmp_pd(x, _mm256_set1_pd(kMinNormal), _CMP_NGE_UQ);
  const __m256d m_one = _mm256_cmp_pd(x, _mm256_set1_pd(1.0), _CMP_EQ_OQ);
  const __m256d m_inf = _mm256_cmp_pd(
      x, _mm256_set1_pd(std::numeric_limits<double>::infinity()), _CMP_EQ_OQ);
  return _mm256_movemask_pd(_mm256_or_pd(_mm256_or_pd(m_small, m_one), m_inf));
}

__attribute__((target("avx2,fma"))) void LogBatchFma(const double* in,
                                                     double* out,
                                                     std::size_t n) {
  const LogTable& t = GetLogTable();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(in + i);
    const int special = LogSpecialMask(x);
    if (special == 0) {
      _mm256_storeu_pd(out + i, LogVec4Core(t, x));
      continue;
    }
    // Snapshot the inputs before the store: in may alias out exactly.
    alignas(32) double src[4];
    _mm256_store_pd(src, x);
    _mm256_storeu_pd(out + i, LogVec4Core(t, x));
    for (int j = 0; j < 4; ++j) {
      if ((special >> j) & 1) {
        out[i + j] = (src[j] == 1.0) ? 0.0 : std::log(src[j]);
      }
    }
  }
  if (i < n) {
    // Tail lanes through the identical vector path, padded with 1.0 so the
    // pad lanes take the cheap exact-zero special fix.
    alignas(32) double buf[4] = {1.0, 1.0, 1.0, 1.0};
    for (std::size_t j = 0; i + j < n; ++j) buf[j] = in[i + j];
    const __m256d x = _mm256_load_pd(buf);
    const int special = LogSpecialMask(x);
    _mm256_store_pd(buf, LogVec4Core(t, x));
    if (special != 0) {
      alignas(32) double src[4];
      _mm256_store_pd(src, x);
      for (int j = 0; j < 4; ++j) {
        if ((special >> j) & 1) {
          buf[j] = (src[j] == 1.0) ? 0.0 : std::log(src[j]);
        }
      }
    }
    for (std::size_t j = 0; i + j < n; ++j) out[i + j] = buf[j];
  }
}

#endif  // TRACEWEAVER_EXP_FMA_VARIANT

}  // namespace

ExpBatchFn ResolveExpBatch() {
#ifdef TRACEWEAVER_EXP_FMA_VARIANT
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return ExpBatchFma;
  }
#endif
  return ExpBatchScalar;
}

LogBatchFn ResolveLogBatch() {
#ifdef TRACEWEAVER_EXP_FMA_VARIANT
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return LogBatchFma;
  }
#endif
  return LogBatchScalar;
}

}  // namespace traceweaver::stats_internal
