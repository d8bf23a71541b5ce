#include "linalg/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <string_view>

#if SOMRM_SIMD_X86
#include <immintrin.h>
#endif

namespace somrm::linalg::simd {

namespace {

#if SOMRM_SIMD_X86

// Width the panel chunking in csr.cpp guarantees (kPanelChunk there). The
// generic kernels keep their accumulators in fixed stack arrays of this
// many lanes.
constexpr std::size_t kMaxChunk = 32;

// ---- AVX2: 4 doubles per lane group, panel columns across lanes. -------
//
// Tail columns (cw % 4) use maskload/maskstore so lanes past the column
// window are neither read (no out-of-bounds touch at the end of the panel
// allocation) nor written (the destination window outside [0, cw) must
// stay untouched). Masked-off lanes compute v * 0.0 garbage that is never
// stored, which cannot perturb the live lanes.

__attribute__((target("avx2"))) inline __m256i avx2_tail_mask(
    std::size_t tail) {
  return _mm256_set_epi64x(0, tail > 2 ? -1 : 0, tail > 1 ? -1 : 0,
                           tail > 0 ? -1 : 0);
}

template <std::size_t CW>
__attribute__((target("avx2"))) void rows_avx2_fixed(
    const std::size_t* row_ptr, const std::size_t* col_idx,
    const double* values, const double* xbase, std::size_t xw, double* ybase,
    std::size_t yw, std::size_t row_begin, std::size_t row_end,
    bool accumulate) {
  constexpr std::size_t kFull = CW / 4;
  constexpr std::size_t kTail = CW % 4;
  const __m256i tail_mask = avx2_tail_mask(kTail);
  for (std::size_t i = row_begin; i < row_end; ++i) {
    __m256d acc[kFull > 0 ? kFull : 1];
    for (std::size_t v = 0; v < kFull; ++v) acc[v] = _mm256_setzero_pd();
    __m256d acc_tail = _mm256_setzero_pd();
    for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const __m256d vv = _mm256_set1_pd(values[k]);
      const double* xr = xbase + col_idx[k] * xw;
      for (std::size_t v = 0; v < kFull; ++v)
        acc[v] = _mm256_add_pd(acc[v],
                               _mm256_mul_pd(vv, _mm256_loadu_pd(xr + 4 * v)));
      if constexpr (kTail > 0)
        acc_tail = _mm256_add_pd(
            acc_tail,
            _mm256_mul_pd(vv, _mm256_maskload_pd(xr + 4 * kFull, tail_mask)));
    }
    double* yr = ybase + i * yw;
    if (accumulate) {
      for (std::size_t v = 0; v < kFull; ++v)
        _mm256_storeu_pd(
            yr + 4 * v, _mm256_add_pd(_mm256_loadu_pd(yr + 4 * v), acc[v]));
      if constexpr (kTail > 0)
        _mm256_maskstore_pd(
            yr + 4 * kFull, tail_mask,
            _mm256_add_pd(_mm256_maskload_pd(yr + 4 * kFull, tail_mask),
                          acc_tail));
    } else {
      for (std::size_t v = 0; v < kFull; ++v)
        _mm256_storeu_pd(yr + 4 * v, acc[v]);
      if constexpr (kTail > 0)
        _mm256_maskstore_pd(yr + 4 * kFull, tail_mask, acc_tail);
    }
  }
}

__attribute__((target("avx2"))) void rows_avx2_generic(
    const std::size_t* row_ptr, const std::size_t* col_idx,
    const double* values, const double* xbase, std::size_t xw, double* ybase,
    std::size_t yw, std::size_t row_begin, std::size_t row_end, std::size_t cw,
    bool accumulate) {
  const std::size_t full = cw / 4;
  const std::size_t tail = cw % 4;
  const __m256i tail_mask = avx2_tail_mask(tail);
  for (std::size_t i = row_begin; i < row_end; ++i) {
    __m256d acc[kMaxChunk / 4];
    for (std::size_t v = 0; v < full; ++v) acc[v] = _mm256_setzero_pd();
    __m256d acc_tail = _mm256_setzero_pd();
    for (std::size_t k = row_ptr[i]; k < row_ptr[i + 1]; ++k) {
      const __m256d vv = _mm256_set1_pd(values[k]);
      const double* xr = xbase + col_idx[k] * xw;
      for (std::size_t v = 0; v < full; ++v)
        acc[v] = _mm256_add_pd(acc[v],
                               _mm256_mul_pd(vv, _mm256_loadu_pd(xr + 4 * v)));
      if (tail > 0)
        acc_tail = _mm256_add_pd(
            acc_tail,
            _mm256_mul_pd(vv, _mm256_maskload_pd(xr + 4 * full, tail_mask)));
    }
    double* yr = ybase + i * yw;
    if (accumulate) {
      for (std::size_t v = 0; v < full; ++v)
        _mm256_storeu_pd(
            yr + 4 * v, _mm256_add_pd(_mm256_loadu_pd(yr + 4 * v), acc[v]));
      if (tail > 0)
        _mm256_maskstore_pd(
            yr + 4 * full, tail_mask,
            _mm256_add_pd(_mm256_maskload_pd(yr + 4 * full, tail_mask),
                          acc_tail));
    } else {
      for (std::size_t v = 0; v < full; ++v)
        _mm256_storeu_pd(yr + 4 * v, acc[v]);
      if (tail > 0) _mm256_maskstore_pd(yr + 4 * full, tail_mask, acc_tail);
    }
  }
}

void panel_rows_avx2(const std::size_t* row_ptr, const std::size_t* col_idx,
                     const double* values, const double* xbase, std::size_t xw,
                     double* ybase, std::size_t yw, std::size_t row_begin,
                     std::size_t row_end, std::size_t cw, bool accumulate) {
  switch (cw) {
    case 1:
      rows_avx2_fixed<1>(row_ptr, col_idx, values, xbase, xw, ybase, yw,
                         row_begin, row_end, accumulate);
      break;
    case 2:
      rows_avx2_fixed<2>(row_ptr, col_idx, values, xbase, xw, ybase, yw,
                         row_begin, row_end, accumulate);
      break;
    case 3:
      rows_avx2_fixed<3>(row_ptr, col_idx, values, xbase, xw, ybase, yw,
                         row_begin, row_end, accumulate);
      break;
    case 4:
      rows_avx2_fixed<4>(row_ptr, col_idx, values, xbase, xw, ybase, yw,
                         row_begin, row_end, accumulate);
      break;
    case 5:
      rows_avx2_fixed<5>(row_ptr, col_idx, values, xbase, xw, ybase, yw,
                         row_begin, row_end, accumulate);
      break;
    case 6:
      rows_avx2_fixed<6>(row_ptr, col_idx, values, xbase, xw, ybase, yw,
                         row_begin, row_end, accumulate);
      break;
    case 7:
      rows_avx2_fixed<7>(row_ptr, col_idx, values, xbase, xw, ybase, yw,
                         row_begin, row_end, accumulate);
      break;
    case 8:
      rows_avx2_fixed<8>(row_ptr, col_idx, values, xbase, xw, ybase, yw,
                         row_begin, row_end, accumulate);
      break;
    default:
      rows_avx2_generic(row_ptr, col_idx, values, xbase, xw, ybase, yw,
                        row_begin, row_end, cw, accumulate);
      break;
  }
}

#endif  // SOMRM_SIMD_X86

Level clamp_to_supported(Level level) {
  const Level top = highest_supported();
  return static_cast<int>(level) > static_cast<int>(top) ? top : level;
}

/// SOMRM_SIMD is read once, like SOMRM_NUM_THREADS: only "scalar" lowers
/// the level; "avx2", "auto" and any unrecognized value select
/// highest_supported() rather than aborting a long bench run.
Level env_default_level() {
  const char* env = std::getenv("SOMRM_SIMD");
  if (env != nullptr && std::string_view(env) == "scalar")
    return Level::kScalar;
  return highest_supported();
}

std::atomic<Level>& level_state() {
  static std::atomic<Level> level{env_default_level()};
  return level;
}

}  // namespace

Level highest_supported() {
#if SOMRM_SIMD_X86
  static const Level top =
      __builtin_cpu_supports("avx2") ? Level::kAvx2 : Level::kScalar;
  return top;
#else
  return Level::kScalar;
#endif
}

Level active_level() { return level_state().load(std::memory_order_relaxed); }

void set_level(Level level) {
  level_state().store(clamp_to_supported(level), std::memory_order_relaxed);
}

const char* level_name(Level level) {
  return level == Level::kAvx2 ? "avx2" : "scalar";
}

PanelRowsFn panel_rows_kernel() {
#if SOMRM_SIMD_X86
  return active_level() == Level::kAvx2 ? &panel_rows_avx2 : nullptr;
#else
  return nullptr;
#endif
}

}  // namespace somrm::linalg::simd
