// somrm/linalg/simd.hpp
//
// The dispatch level of the randomization sweep's one row kernel
// (core/randomization.cpp), which is written against the lane packs of
// linalg/lanes.hpp. This header holds only the level: its CPUID probe and
// its override.
//
// There is one vector level, AVX2. Its lane pack is compiled into every
// x86-64 GCC/Clang build (per-function target attributes, so the binary
// stays portable); on other targets highest_supported() is kScalar and
// only the scalar reference pack exists. Whether AVX2 actually runs is
// decided at runtime from CPUID, overridable per-process with SOMRM_SIMD
// (scalar|avx2|auto, read once) or programmatically via set_level. The
// lanes execute the scalar multiply-then-add chains in the same order — no
// FMA (explicit mul + add intrinsics; the build also pins
// -ffp-contract=off), no reassociation, no horizontal reduction — so the
// level changes speed, never a single output bit. Why there is no AVX-512
// level: DESIGN §6.1.

#pragma once

/// 1 where the AVX2 kernels are compiled in: x86-64 under GCC or
/// Clang, whose target attributes let one portable build carry them.
#if (defined(__x86_64__) || defined(__amd64__)) && defined(__GNUC__)
#define SOMRM_SIMD_X86 1
#else
#define SOMRM_SIMD_X86 0
#endif

namespace somrm::linalg::simd {

/// Instruction-set level of the lane-pack row kernels, in increasing order so
/// levels compare with <.
enum class Level { kScalar = 0, kAvx2 = 1 };

/// Highest level that is both compiled in (SOMRM_SIMD_X86) and reported by
/// the running CPU. kScalar on other targets.
Level highest_supported();

/// The level the row kernels currently dispatch to. Defaults to the
/// SOMRM_SIMD environment override clamped to highest_supported(), else
/// highest_supported() itself.
Level active_level();

/// Overrides the dispatch level, clamped to highest_supported(). Takes
/// effect for kernels launched after the call; bit-exactness makes the
/// hand-over point unobservable in the output.
void set_level(Level level);

/// Stable lowercase name ("scalar", "avx2") for logs and bench records.
const char* level_name(Level level);

}  // namespace somrm::linalg::simd
