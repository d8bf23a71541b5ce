// Bit-identity tests for the SIMD panel row kernels (linalg/simd.hpp).
//
// The SIMD contract: every compiled-in vector level produces output
// bit-identical to the scalar reference — per panel column the vector
// kernels execute the scalar multiply-then-add chain in the same order, so
// EXPECT_EQ on doubles is the correct assertion, not EXPECT_NEAR. Every
// x86-64 build compiles the AVX2 level in, so the level loop runs the real
// matrix of (level × width × thread count) comparisons wherever the CPU
// has AVX2; elsewhere it degrades to a scalar self-check.

#include "linalg/simd.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/panel.hpp"
#include "linalg/parallel.hpp"

namespace somrm::linalg {
namespace {

CsrMatrix lcg_matrix(std::size_t rows, std::size_t cols,
                     std::size_t nnz_per_row) {
  CsrBuilder b(rows, cols);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t k = 0; k < nnz_per_row; ++k) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const std::size_t j = (state >> 33) % cols;
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      b.add(i, j, (static_cast<double>((state >> 33) % 1999) - 999.0) / 311.0);
    }
  return std::move(b).build();
}

Panel lcg_panel(std::size_t rows, std::size_t width) {
  Panel p(rows, width);
  std::uint64_t state = 0x2545f4914f6cdd1dull;
  for (std::size_t i = 0; i < p.size(); ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    p.data()[i] = (static_cast<double>((state >> 33) % 4001) - 2000.0) / 919.0;
  }
  return p;
}

std::vector<simd::Level> compiled_levels() {
  std::vector<simd::Level> levels{simd::Level::kScalar};
  const int top = static_cast<int>(simd::highest_supported());
  if (top >= static_cast<int>(simd::Level::kAvx2))
    levels.push_back(simd::Level::kAvx2);
  return levels;
}

/// Restores the auto dispatch level and the default thread count however a
/// test exits, so level/thread overrides cannot leak across tests.
class SimdPanelTest : public ::testing::Test {
 protected:
  void TearDown() override {
    simd::set_level(simd::highest_supported());
    set_num_threads(0);
  }
};

TEST_F(SimdPanelTest, LevelClampsToSupportAndRoundTrips) {
  simd::set_level(simd::Level::kAvx2);
  EXPECT_EQ(simd::active_level(), simd::highest_supported())
      << "AVX2 is the top level: requesting it clamps to what the CPU has";
  simd::set_level(simd::Level::kScalar);
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  EXPECT_EQ(simd::panel_rows_kernel(), nullptr)
      << "scalar level must fall through to the reference kernels";
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

TEST_F(SimdPanelTest, PanelProductBitIdenticalAcrossLevelsWidthsThreads) {
  const std::size_t n = 3000;
  const CsrMatrix m = lcg_matrix(n, n, 7);
  // Widths 1..8 hit every fixed-width kernel (and every AVX2 tail mask); 24 is the widest solver panel (bounds pipeline); 33 exceeds the
  // 32-column chunk, forcing the chunk loop plus a width-1 tail pass.
  const std::size_t widths[] = {1, 2, 3, 4, 5, 6, 7, 8, 24, 33};
  for (std::size_t width : widths) {
    const Panel x = lcg_panel(n, width);
    simd::set_level(simd::Level::kScalar);
    set_num_threads(1);
    Panel reference(n, width);
    m.multiply_panel(x, reference);
    for (simd::Level level : compiled_levels()) {
      simd::set_level(level);
      for (std::size_t threads : {1u, 2u, 4u, 8u}) {
        set_num_threads(threads);
        Panel y(n, width);
        m.multiply_panel(x, y);
        for (std::size_t i = 0; i < y.size(); ++i)
          ASSERT_EQ(y.data()[i], reference.data()[i])
              << "width " << width << " level " << simd::level_name(level)
              << " threads " << threads << " flat index " << i;
      }
    }
  }
}

TEST_F(SimdPanelTest, WindowedAccumulateBitIdenticalAndOutsideUntouched) {
  // multiply_panel_rows with a column window (the fused sweep's shape):
  // src/dst offsets differ, accumulate=true, and only a row subrange runs.
  // The vector kernels' masked stores must leave everything outside the
  // window — columns below dst_col, past dst_col+count, rows outside the
  // range — exactly as it was.
  const std::size_t n = 1024;
  const CsrMatrix m = lcg_matrix(n, n, 5);
  const Panel x = lcg_panel(n, 10);
  const Panel seed = lcg_panel(n, 12);
  const std::size_t row_begin = 100, row_end = 900;
  const std::size_t src_col = 1, dst_col = 2, count = 7;

  simd::set_level(simd::Level::kScalar);
  Panel reference = seed;
  m.multiply_panel_rows(x, reference, row_begin, row_end, src_col, dst_col,
                        count, /*accumulate=*/true);

  for (simd::Level level : compiled_levels()) {
    simd::set_level(level);
    Panel y = seed;
    m.multiply_panel_rows(x, y, row_begin, row_end, src_col, dst_col, count,
                          /*accumulate=*/true);
    for (std::size_t i = 0; i < y.size(); ++i)
      ASSERT_EQ(y.data()[i], reference.data()[i])
          << "level " << simd::level_name(level) << " flat index " << i;
    // Independently confirm the untouched region against the seed (the
    // scalar reference could in principle share a bug with the vector
    // kernels; the seed cannot).
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < 12; ++c) {
        const bool inside = r >= row_begin && r < row_end && c >= dst_col &&
                            c < dst_col + count;
        if (!inside) {
          ASSERT_EQ(y(r, c), seed(r, c))
              << "level " << simd::level_name(level) << " row " << r
              << " col " << c;
        }
      }
  }
}

TEST_F(SimdPanelTest, EmptyRowsAndEmptyRangeAreHandled) {
  // Rows with no stored entries must still write zeros (assign mode), and a
  // zero-length row range must be a no-op, at every compiled level.
  CsrBuilder b(6, 6);
  b.add(0, 1, 2.0);
  b.add(3, 0, -1.5);
  b.add(3, 5, 4.0);
  const CsrMatrix m = std::move(b).build();
  const Panel x = lcg_panel(6, 3);
  for (simd::Level level : compiled_levels()) {
    simd::set_level(level);
    Panel y(6, 3);
    for (std::size_t i = 0; i < y.size(); ++i) y.data()[i] = 99.0;
    m.multiply_panel_rows(x, y, 0, 6, 0, 0, 3, /*accumulate=*/false);
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(y(1, c), 0.0) << simd::level_name(level);
      EXPECT_EQ(y(5, c), 0.0) << simd::level_name(level);
    }
    Panel z = y;
    m.multiply_panel_rows(x, z, 4, 4, 0, 0, 3, /*accumulate=*/true);
    for (std::size_t i = 0; i < z.size(); ++i)
      EXPECT_EQ(z.data()[i], y.data()[i]) << simd::level_name(level);
  }
}

}  // namespace
}  // namespace somrm::linalg
