// Contract tests for the SIMD dispatch level (linalg/simd.hpp) and the lane
// packs the sweep's row kernel is written against (linalg/lanes.hpp).
//
// The SIMD contract: Avx2Lanes executes every lane's scalar multiply-then-
// add chain in ScalarLanes' order, so the two agree bit for bit — EXPECT_EQ
// on bit patterns, not EXPECT_NEAR. The impulse stage of the row kernel
// leans on two pack operations beyond the plain product: the shifted
// product add_shifted<M> (lane c += v * x[c - M] for c >= M) and the masked
// pack add add_from<M>. Both must agree across the packs for every lane
// count L in 1..8 and shift M in 0..L-1, must leave lanes below M with
// their exact bits (-0.0, infinities and NaN payloads included), and must
// read no double outside x[0..L-1] — each source row here is its own heap
// allocation of exactly L doubles, so the sanitizer legs flag a stray load.
// Off x86-64, or on a CPU without AVX2, the AVX2 side is skipped and the
// scalar pack is still checked against the plain expressions.

#include "linalg/simd.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "linalg/lanes.hpp"

namespace somrm::linalg {
namespace {

/// Restores the auto dispatch level however a test exits.
class SimdPanelTest : public ::testing::Test {
 protected:
  void TearDown() override { simd::set_level(simd::highest_supported()); }
};

TEST_F(SimdPanelTest, LevelClampsToSupportAndRoundTrips) {
  simd::set_level(simd::Level::kAvx2);
  EXPECT_EQ(simd::active_level(), simd::highest_supported())
      << "AVX2 is the top level: requesting it clamps to what the CPU has";
  simd::set_level(simd::Level::kScalar);
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
#if SOMRM_SIMD_X86
  const simd::Level cpu = __builtin_cpu_supports("avx2")
                              ? simd::Level::kAvx2
                              : simd::Level::kScalar;
  EXPECT_EQ(simd::highest_supported(), cpu)
      << "every x86-64 build compiles the AVX2 kernels in, and AVX2 is the "
         "level of every AVX2 CPU (AVX-512 ones included)";
#else
  EXPECT_EQ(simd::highest_supported(), simd::Level::kScalar)
      << "only x86-64 builds compile vector kernels in";
#endif
  EXPECT_STREQ(simd::level_name(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx2), "avx2");
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Values a lane below the shift must keep bit for bit.
double special(std::size_t c) {
  const double values[] = {-0.0, std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::bit_cast<double>(0x7ff80000deadbeefull)};
  return values[c % 4];
}

/// The inputs of one (L, M) case: the pack's seed (specials below M), a
/// second pack's lanes for add_from (a NaN payload below M, which must not
/// leak), the multiplier and the source row.
template <std::size_t L, std::size_t M>
struct Inputs {
  std::array<double, 8> seed{};
  std::array<double, 8> other{};
  double v = 0.0;
  std::vector<double> x;  // exactly L doubles, its own allocation

  explicit Inputs(double multiplier) : v(multiplier), x(L) {
    for (std::size_t c = 0; c < 8; ++c) {
      seed[c] = c < M ? special(c) : 0.375 * static_cast<double>(c) - 1.0;
      other[c] = c < M ? std::bit_cast<double>(0x7ff8000000c0ffeeull)
                       : -0.625 + 0.25 * static_cast<double>(c);
    }
    for (std::size_t c = 0; c < L; ++c)
      x[c] = 1.0 / (1.0 + static_cast<double>(c)) - 0.3;
  }
};

/// Lanes of a pack after add_shifted<M> and, separately, after add_from<M>.
template <std::size_t L>
struct Outputs {
  std::array<double, L> shifted{};
  std::array<double, L> added{};
};

template <std::size_t L, std::size_t M>
Outputs<L> run_scalar(const Inputs<L, M>& in) {
  Outputs<L> out;
  ScalarLanes<L> p, q, t;
  for (std::size_t c = 0; c < L; ++c) {
    p.s[c] = q.s[c] = in.seed[c];
    t.s[c] = in.other[c];
  }
  p.template add_shifted<M>(in.v, in.x.data());
  q.template add_from<M>(t);
  p.store(out.shifted.data());
  q.store(out.added.data());
  return out;
}

#if SOMRM_SIMD_X86
template <std::size_t L, std::size_t M>
__attribute__((target("avx2"), flatten)) Outputs<L> run_avx2(
    const Inputs<L, M>& in) {
  Outputs<L> out;
  Avx2Lanes<L> p, q, t;
  p.lo = q.lo = _mm256_loadu_pd(in.seed.data());
  p.hi = q.hi = _mm256_loadu_pd(in.seed.data() + 4);
  t.lo = _mm256_loadu_pd(in.other.data());
  t.hi = _mm256_loadu_pd(in.other.data() + 4);
  p.template add_shifted<M>(in.v, in.x.data());
  q.template add_from<M>(t);
  p.store(out.shifted.data());
  q.store(out.added.data());
  return out;
}

bool avx2_supported() {
  return simd::highest_supported() == simd::Level::kAvx2;
}
#endif

/// Checks one (L, M) case at several multipliers.
template <std::size_t L, std::size_t M>
void check_case() {
  for (const double v : {1.5, -0.75, 0.0, -0.0}) {
    const Inputs<L, M> in(v);
    const std::string where = "L " + std::to_string(L) + " M " +
                              std::to_string(M) + " v " + std::to_string(v);
    const Outputs<L> ref = run_scalar(in);
    for (std::size_t c = 0; c < L; ++c) {
      // The scalar pack against the plain expressions.
      const double shifted = c < M ? in.seed[c] : in.seed[c] + v * in.x[c - M];
      const double added = c < M ? in.seed[c] : in.seed[c] + in.other[c];
      EXPECT_EQ(bits(ref.shifted[c]), bits(shifted)) << where << " lane " << c;
      EXPECT_EQ(bits(ref.added[c]), bits(added)) << where << " lane " << c;
    }
#if SOMRM_SIMD_X86
    if (!avx2_supported()) continue;
    const Outputs<L> got = run_avx2(in);
    for (std::size_t c = 0; c < L; ++c) {
      EXPECT_EQ(bits(got.shifted[c]), bits(ref.shifted[c]))
          << where << " add_shifted lane " << c;
      EXPECT_EQ(bits(got.added[c]), bits(ref.added[c]))
          << where << " add_from lane " << c;
    }
#endif
  }
}

template <std::size_t L, std::size_t... M>
void check_shifts(std::index_sequence<M...>) {
  (check_case<L, M>(), ...);
}

template <std::size_t... I>
void check_lane_counts(std::index_sequence<I...>) {
  (check_shifts<I + 1>(std::make_index_sequence<I + 1>{}), ...);
}

TEST_F(SimdPanelTest, ShiftedProductAndMaskedAddBitIdenticalAcrossPacks) {
  check_lane_counts(std::make_index_sequence<8>{});
}

}  // namespace
}  // namespace somrm::linalg
