// somrm/linalg/simd.hpp
//
// Runtime-dispatched SIMD variants of the CSR×panel row kernels.
//
// The scalar kernels in csr.cpp accumulate each panel column independently:
// per output row, s[c] += values[k] * x[col_idx[k]*xw + c] in ascending k.
// The vector kernels here put each column in its own SIMD lane, so every
// lane executes exactly the scalar multiply-then-add chain in the same
// order — no FMA (explicit mul + add intrinsics; the build also pins
// -ffp-contract=off), no reassociation, no horizontal reduction. That is
// the SIMD bit-exactness contract: the dispatch level changes speed, never
// a single output bit, at any width and any thread count.
//
// There is one vector level, AVX2. Its kernels are compiled into every
// x86-64 GCC/Clang build (per-function target attributes, so the binary
// stays portable); on other targets highest_supported() is kScalar and
// panel_rows_kernel() returns nullptr, so CsrMatrix falls through to the
// scalar reference. Whether AVX2 actually runs is decided at runtime from
// CPUID, overridable per-process with SOMRM_SIMD (scalar|avx2|auto, read
// once) or programmatically via set_level. The same level picks the
// randomization sweep's fused row kernel (core/randomization.cpp). Why
// there is no AVX-512 level: DESIGN §6.1.

#pragma once

#include <cstddef>

/// 1 where the AVX2 kernels are compiled in: x86-64 under GCC or
/// Clang, whose target attributes let one portable build carry them.
#if (defined(__x86_64__) || defined(__amd64__)) && defined(__GNUC__)
#define SOMRM_SIMD_X86 1
#else
#define SOMRM_SIMD_X86 0
#endif

namespace somrm::linalg::simd {

/// Instruction-set level of the panel row kernels, in increasing order so
/// levels compare with <.
enum class Level { kScalar = 0, kAvx2 = 1 };

/// Highest level that is both compiled in (SOMRM_SIMD_X86) and reported by
/// the running CPU. kScalar on other targets.
Level highest_supported();

/// The level panel_rows_kernel() currently dispatches to. Defaults to the
/// SOMRM_SIMD environment override clamped to highest_supported(), else
/// highest_supported() itself.
Level active_level();

/// Overrides the dispatch level, clamped to highest_supported(). Takes
/// effect for kernels launched after the call; bit-exactness makes the
/// hand-over point unobservable in the output.
void set_level(Level level);

/// Stable lowercase name ("scalar", "avx2") for logs and bench records.
const char* level_name(Level level);

/// SpMM row kernel: for rows i in [row_begin, row_end) and columns
/// c in [0, cw), y[i*yw + c] (+)= sum_k values[k] * x[col_idx[k]*xw + c]
/// with k ascending over row i's entries. Mirrors the scalar generic
/// kernel in csr.cpp; cw must not exceed the panel chunk (32).
using PanelRowsFn = void (*)(const std::size_t* row_ptr,
                             const std::size_t* col_idx, const double* values,
                             const double* xbase, std::size_t xw,
                             double* ybase, std::size_t yw,
                             std::size_t row_begin, std::size_t row_end,
                             std::size_t cw, bool accumulate);

/// The vector kernel for the active level, or nullptr when the active level
/// is kScalar (the caller runs its own scalar kernels).
PanelRowsFn panel_rows_kernel();

}  // namespace somrm::linalg::simd
