// somrm/linalg/lanes.hpp
//
// Lane packs for row kernels that keep one short row segment — a state's
// moment orders — in registers, element c in lane c. A kernel is written
// once against the pack interface and instantiated with ScalarLanes (the
// reference, runs everywhere) or Avx2Lanes (x86-64 only).
//
// Every operation is per lane and is the scalar expression in the same
// operand order: an explicit multiply, then an explicit add — no FMA (the
// build also pins -ffp-contract=off), no reassociation, no horizontal
// reduction. A lane of an Avx2Lanes therefore rounds exactly like the same
// lane of a ScalarLanes, and the two instantiations of a kernel agree bit
// for bit.
//
// Avx2Lanes' members carry __attribute__((target("avx2"))), so they inline
// only into AVX2-targeted code: instantiate the kernel from a function
// declared __attribute__((target("avx2"), flatten)), which pulls the kernel
// body, its callbacks and the pack operations into one AVX2 function, and
// call that function only when simd::highest_supported() >= kAvx2. Members
// pass vectors through `this`, never by value, so a kernel body compiled
// without AVX (before flattening, or at -O0) sees no vector-ABI change.

#pragma once

#include <cstddef>

#include "linalg/simd.hpp"

#if SOMRM_SIMD_X86
#include <immintrin.h>
#endif

namespace somrm::linalg {

/// L >= 1 lanes in a plain array.
template <std::size_t L>
struct ScalarLanes {
  double s[L] = {};

  /// lane c += v * x[c].
  void add_product(double v, const double* x) {
    for (std::size_t c = 0; c < L; ++c) s[c] += v * x[c];
  }
  /// lane c += v * x[c - M] for lanes c >= M; lanes below M are unchanged.
  template <std::size_t M>
  void add_shifted(double v, const double* x) {
    for (std::size_t c = M; c < L; ++c) s[c] += v * x[c - M];
  }
  /// lane c += lane c of @p t for lanes c >= M; lanes below M are unchanged.
  template <std::size_t M>
  void add_from(const ScalarLanes& t) {
    for (std::size_t c = M; c < L; ++c) s[c] += t.s[c];
  }
  /// y[c] = lane c.
  void store(double* y) const {
    for (std::size_t c = 0; c < L; ++c) y[c] = s[c];
  }
  /// y[c] += w * lane c.
  void accumulate_into(double w, double* y) const {
    for (std::size_t c = 0; c < L; ++c) y[c] += w * s[c];
  }
};

#if SOMRM_SIMD_X86

/// 1..8 lanes in two 4-double registers: lanes 0..3 in lo, 4..7 in hi.
/// Every memory access is limited to the L live lanes, so no row is read or
/// written past its end.
template <std::size_t L>
struct Avx2Lanes {
  static_assert(L >= 1 && L <= 8, "Avx2Lanes holds 1..8 lanes");
  static constexpr std::size_t kLo = L < 4 ? L : 4;  // live lanes in lo
  static constexpr std::size_t kHi = L > 4 ? L - 4 : 0;  // live lanes in hi

  __m256d lo;
  __m256d hi;

  __attribute__((target("avx2"))) Avx2Lanes()
      : lo(_mm256_setzero_pd()), hi(_mm256_setzero_pd()) {}

  /// lane c += v * x[c].
  __attribute__((target("avx2"))) void add_product(double v,
                                                   const double* x) {
    const __m256d vv = _mm256_set1_pd(v);
    lo = _mm256_add_pd(lo, _mm256_mul_pd(vv, load<kLo>(x)));
    if constexpr (kHi > 0)
      hi = _mm256_add_pd(hi, _mm256_mul_pd(vv, load<kHi>(x + 4)));
  }

  /// lane c += v * x[c - M] for lanes c >= M (M < 8); lanes below M are
  /// unchanged. A register whose lanes start below M takes its operand as a
  /// lane permute of a load from x itself (x[-M..-1] may lie before the
  /// row, so it is never loaded) and blends the sum back into lanes >= M
  /// only; a register wholly at or above M loads its operand straight from
  /// x + (first lane - M).
  template <std::size_t M>
  __attribute__((target("avx2"))) void add_shifted(double v,
                                                   const double* x) {
    static_assert(M < 8, "shifts by 0..7 lanes");
    if constexpr (M < L) {
      const __m256d vv = _mm256_set1_pd(v);
      if constexpr (M == 0)
        lo = _mm256_add_pd(lo, _mm256_mul_pd(vv, load<kLo>(x)));
      else if constexpr (M < 4)
        lo = from_lane<M>(lo, _mm256_add_pd(
                                  lo, _mm256_mul_pd(vv, shift<M>(load<kLo>(x)))));
      if constexpr (kHi > 0 && M <= 4)
        hi = _mm256_add_pd(hi, _mm256_mul_pd(vv, load<kHi>(x + 4 - M)));
      else if constexpr (kHi > 0)
        hi = from_lane<M - 4>(
            hi, _mm256_add_pd(
                    hi, _mm256_mul_pd(vv, shift<M - 4>(load<L - M>(x)))));
    }
  }

  /// lane c += lane c of @p t for lanes c >= M; lanes below M are unchanged
  /// (a blend, so even an added +0 cannot turn a -0 below M into +0).
  template <std::size_t M>
  __attribute__((target("avx2"))) void add_from(const Avx2Lanes& t) {
    if constexpr (M < L) {
      if constexpr (M == 0)
        lo = _mm256_add_pd(lo, t.lo);
      else if constexpr (M < 4)
        lo = from_lane<M>(lo, _mm256_add_pd(lo, t.lo));
      if constexpr (kHi > 0 && M <= 4)
        hi = _mm256_add_pd(hi, t.hi);
      else if constexpr (kHi > 0)
        hi = from_lane<M - 4>(hi, _mm256_add_pd(hi, t.hi));
    }
  }

  /// y[c] = lane c.
  __attribute__((target("avx2"))) void store(double* y) const {
    store_lanes<kLo>(y, lo);
    if constexpr (kHi > 0) store_lanes<kHi>(y + 4, hi);
  }

  /// y[c] += w * lane c.
  __attribute__((target("avx2"))) void accumulate_into(double w,
                                                       double* y) const {
    const __m256d ww = _mm256_set1_pd(w);
    store_lanes<kLo>(y, _mm256_add_pd(load<kLo>(y), _mm256_mul_pd(ww, lo)));
    if constexpr (kHi > 0)
      store_lanes<kHi>(y + 4,
                       _mm256_add_pd(load<kHi>(y + 4), _mm256_mul_pd(ww, hi)));
  }

 private:
  /// Mask selecting lanes 0..N-1.
  template <std::size_t N>
  __attribute__((target("avx2"))) static __m256i mask() {
    return _mm256_set_epi64x(0, N > 2 ? -1 : 0, N > 1 ? -1 : 0, -1);
  }
  /// x[0..N-1] into lanes 0..N-1; the other lanes read as 0 and are never
  /// stored. One- and two-lane tails use plain narrow loads (cheaper than
  /// a masked load), three lanes a masked one.
  template <std::size_t N>
  __attribute__((target("avx2"))) static __m256d load(const double* x) {
    if constexpr (N == 4)
      return _mm256_loadu_pd(x);
    else if constexpr (N == 2)
      return _mm256_zextpd128_pd256(_mm_loadu_pd(x));
    else if constexpr (N == 1)
      return _mm256_zextpd128_pd256(_mm_load_sd(x));
    else
      return _mm256_maskload_pd(x, mask<N>());
  }
  /// Lane c holds lane c - S of @p v for c >= S, S in 1..3 (lanes below S
  /// hold lane 0 and are blended away by the caller).
  template <std::size_t S>
  __attribute__((target("avx2"))) static __m256d shift(__m256d v) {
    static_assert(S >= 1 && S <= 3, "a shift within one register");
    return _mm256_permute4x64_pd(v, (S == 1 ? 1 : 0) << 4 | (3 - S) << 6);
  }
  /// Lanes >= S of @p sum, lanes below S of @p keep.
  template <std::size_t S>
  __attribute__((target("avx2"))) static __m256d from_lane(__m256d keep,
                                                           __m256d sum) {
    return _mm256_blend_pd(keep, sum, (0xF << S) & 0xF);
  }
  template <std::size_t N>
  __attribute__((target("avx2"))) static void store_lanes(double* y,
                                                          __m256d v) {
    if constexpr (N == 4)
      _mm256_storeu_pd(y, v);
    else if constexpr (N == 2)
      _mm_storeu_pd(y, _mm256_castpd256_pd128(v));
    else if constexpr (N == 1)
      _mm_store_sd(y, _mm256_castpd256_pd128(v));
    else
      _mm256_maskstore_pd(y, mask<N>(), v);
  }
};

#endif  // SOMRM_SIMD_X86

}  // namespace somrm::linalg
