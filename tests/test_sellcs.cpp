// Tests for linalg/sellcs.hpp: CSR <-> SELL-C-σ round trips, padding edge
// cases (empty / uniform / ragged rows), σ-sort permutation properties, and
// the storage contract that matters — sweep output bit-identical to CSR
// across {storage} × {SIMD level} × {thread count} × {sweep kernel} ×
// {reorder policy}, asserted with EXPECT_EQ on doubles, never EXPECT_NEAR.

#include "linalg/sellcs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/impulse_randomization.hpp"
#include "core/randomization.hpp"
#include "ctmc/generator.hpp"
#include "linalg/csr.hpp"
#include "linalg/panel.hpp"
#include "linalg/parallel.hpp"
#include "linalg/reorder.hpp"
#include "linalg/simd.hpp"

namespace somrm::linalg {
namespace {

using core::MomentSolverOptions;
using core::RandomizationMomentSolver;
using core::ReorderPolicy;
using core::SecondOrderMrm;
using core::StorageFormat;
using core::SweepKernel;

// Deterministic ragged matrix: row i holds 1 + (i * 7 % 6) entries at
// LCG-scattered columns, so chunk row lengths genuinely differ and the
// σ-sort has real work to do.
CsrMatrix ragged_matrix(std::size_t rows, std::size_t cols) {
  CsrBuilder b(rows, cols);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t len = 1 + (i * 7) % 6;
    for (std::size_t k = 0; k < len; ++k) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const std::size_t j = (state >> 33) % cols;
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      b.add(i, j, (static_cast<double>((state >> 33) % 1999) - 999.0) / 311.0);
    }
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
  if (top >= static_cast<int>(simd::Level::kAvx512))
    levels.push_back(simd::Level::kAvx512);
  return levels;
}

/// Restores the auto dispatch level and the default thread count however a
/// test exits, so level/thread overrides cannot leak across tests.
class SellCsTest : public ::testing::Test {
 protected:
  void TearDown() override {
    simd::set_level(simd::highest_supported());
    set_num_threads(0);
  }
};

TEST_F(SellCsTest, FromCsrValidatesChunkHeight) {
  const CsrMatrix a = ragged_matrix(16, 16);
  for (const std::size_t bad : {std::size_t{0}, std::size_t{1},
                                std::size_t{3}, std::size_t{16}})
    EXPECT_THROW(SellCsMatrix::from_csr(a, bad), std::invalid_argument) << bad;
  EXPECT_EQ(SellCsMatrix::from_csr(a, 4).chunk(), 4u);
  EXPECT_EQ(SellCsMatrix::from_csr(a, 8).chunk(), 8u);
}

TEST_F(SellCsTest, RoundTripPreservesStructureValuesAndEntryOrder) {
  // Rows NOT a multiple of either chunk height: the last chunk is partial.
  const CsrMatrix a = ragged_matrix(61, 61);
  for (const std::size_t chunk : {std::size_t{4}, std::size_t{8}}) {
    const SellCsMatrix s = SellCsMatrix::from_csr(a, chunk);
    EXPECT_EQ(s.rows(), a.rows());
    EXPECT_EQ(s.cols(), a.cols());
    EXPECT_EQ(s.nnz(), a.nnz());
    const CsrMatrix back = s.to_csr();
    ASSERT_EQ(back.row_ptr(), a.row_ptr());
    ASSERT_EQ(back.col_idx(), a.col_idx());
    ASSERT_EQ(back.values(), a.values());
  }

  // Round trip survives the unsorted-column rows permute_symmetric makes.
  const auto perm =
      SellCsMatrix::sigma_sort_permutation(a, SellCsMatrix::kDefaultSigma);
  const CsrMatrix p = permute_symmetric(a, perm);
  const CsrMatrix back = SellCsMatrix::from_csr(p).to_csr();
  ASSERT_EQ(back.row_ptr(), p.row_ptr());
  ASSERT_EQ(back.col_idx(), p.col_idx());
  ASSERT_EQ(back.values(), p.values());
  EXPECT_EQ(back.columns_sorted(), p.columns_sorted());
}

TEST_F(SellCsTest, EmptyAndAllEmptyRowMatrices) {
  const SellCsMatrix empty;
  EXPECT_EQ(empty.rows(), 0u);
  EXPECT_EQ(empty.nnz(), 0u);
  EXPECT_EQ(empty.padded_entries(), 0u);
  EXPECT_EQ(empty.padding_ratio(), 0.0);
  EXPECT_EQ(empty.chunk_occupancy(), 1.0);

  // Rows with no entries at all: every chunk has max length 0, so nothing
  // is allocated and nothing is padded.
  const CsrMatrix zero = CsrMatrix::from_triplets(10, 10, {});
  const SellCsMatrix s = SellCsMatrix::from_csr(zero, 4);
  EXPECT_EQ(s.nnz(), 0u);
  EXPECT_EQ(s.padded_entries(), 0u);
  EXPECT_EQ(s.padding_ratio(), 0.0);
  const CsrMatrix back = s.to_csr();
  EXPECT_EQ(back.nnz(), 0u);
  EXPECT_EQ(back.rows(), 10u);

  Panel x = lcg_panel(10, 3), y(10, 3);
  s.multiply_panel(x, y);
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_EQ(y.data()[i], 0.0);
}

TEST_F(SellCsTest, UniformRowsPackWithZeroPadding) {
  // Tridiagonal interior rows all hold 3 entries; use a circulant so EVERY
  // row holds exactly 3 and the layout must be padding-free.
  const std::size_t n = 24;
  std::vector<Triplet> trips;
  for (std::size_t i = 0; i < n; ++i) {
    trips.push_back({i, i, -2.0});
    trips.push_back({i, (i + 1) % n, 1.0});
    trips.push_back({i, (i + n - 1) % n, 1.0});
  }
  const CsrMatrix a = CsrMatrix::from_triplets(n, n, trips);
  const SellCsMatrix s = SellCsMatrix::from_csr(a, 8);
  EXPECT_EQ(s.padded_entries(), s.nnz());
  EXPECT_EQ(s.padding_ratio(), 0.0);
  EXPECT_EQ(s.chunk_occupancy(), 1.0);
}

TEST_F(SellCsTest, RaggedRowsPadWithInertZeroSlots) {
  const CsrMatrix a = ragged_matrix(37, 37);  // partial final chunk too
  const SellCsMatrix s = SellCsMatrix::from_csr(a, 4);
  ASSERT_EQ(s.row_len().size(), a.rows());

  // Allocation = sum over chunks of chunk_height * longest row in chunk.
  std::size_t expected = 0;
  for (std::size_t c = 0; c < s.num_chunks(); ++c) {
    std::size_t longest = 0;
    for (std::size_t i = c * 4; i < std::min<std::size_t>((c + 1) * 4, 37);
         ++i)
      longest = std::max(longest, s.row_len()[i]);
    expected += 4 * longest;
    EXPECT_EQ(s.chunk_ptr()[c + 1] - s.chunk_ptr()[c], 4 * longest) << c;
  }
  EXPECT_EQ(s.padded_entries(), expected);
  EXPECT_GT(s.padded_entries(), s.nnz());  // genuinely ragged
  EXPECT_GT(s.padding_ratio(), 0.0);
  EXPECT_LT(s.padding_ratio(), 1.0);
  EXPECT_EQ(s.padding_ratio() + s.chunk_occupancy(), 1.0);

  // Every slot past a row's length is the inert (column 0, +0.0) filler —
  // and +0.0 exactly, not -0.0 (bit pattern matters for the inertness
  // argument even though the kernels never load these slots).
  for (std::size_t i = 0; i < 37; ++i) {
    const std::size_t chunk_len =
        (s.chunk_ptr()[i / 4 + 1] - s.chunk_ptr()[i / 4]) / 4;
    const std::size_t base = s.chunk_ptr()[i / 4] + (i % 4);
    for (std::size_t j = s.row_len()[i]; j < chunk_len; ++j) {
      const std::size_t e = base + j * 4;
      EXPECT_EQ(s.col_idx()[e], 0u);
      EXPECT_EQ(s.values()[e], 0.0);
      EXPECT_FALSE(std::signbit(s.values()[e]));
    }
  }
}

TEST_F(SellCsTest, SigmaSortPermutationIsValidDeterministicAndWindowed) {
  const CsrMatrix a = ragged_matrix(100, 100);
  const std::size_t sigma = 16;
  const auto perm = SellCsMatrix::sigma_sort_permutation(a, sigma);

  // A permutation of [0, rows).
  std::vector<std::size_t> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < a.rows(); ++i) ASSERT_EQ(sorted[i], i);

  // Deterministic, window-local (never moves a row across its σ window),
  // descending length inside each window, ties on ascending index (stable).
  EXPECT_EQ(perm, SellCsMatrix::sigma_sort_permutation(a, sigma));
  const auto len = [&](std::size_t r) {
    return a.row_ptr()[r + 1] - a.row_ptr()[r];
  };
  for (std::size_t i = 0; i < a.rows(); ++i)
    EXPECT_EQ(i / sigma, perm[i] / sigma) << i;
  for (std::size_t i = 0; i + 1 < a.rows(); ++i) {
    if ((i + 1) % sigma == 0) continue;  // window boundary
    EXPECT_GE(len(perm[i]), len(perm[i + 1])) << i;
    if (len(perm[i]) == len(perm[i + 1])) {
      EXPECT_LT(perm[i], perm[i + 1]);
    }
  }

  // sigma <= 1 is the identity.
  EXPECT_TRUE(is_identity_permutation(
      SellCsMatrix::sigma_sort_permutation(a, 1)));
}

TEST_F(SellCsTest, MultiplyPanelBitIdenticalToCsrAcrossLevelsWidthsThreads) {
  const CsrMatrix a = ragged_matrix(500, 500);
  for (const simd::Level level : compiled_levels()) {
    simd::set_level(level);
    for (const std::size_t chunk : {std::size_t{4}, std::size_t{8}}) {
      const SellCsMatrix s = SellCsMatrix::from_csr(a, chunk);
      // Widths 1..8 hit every fixed-width kernel and every vector tail
      // mask; 11 exercises the generic fallback.
      for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                      std::size_t{3}, std::size_t{4},
                                      std::size_t{5}, std::size_t{6},
                                      std::size_t{7}, std::size_t{8},
                                      std::size_t{11}}) {
        const Panel x = lcg_panel(500, width);
        Panel y_csr(500, width), y_sell(500, width);
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
          set_num_threads(threads);
          a.multiply_panel(x, y_csr);
          s.multiply_panel(x, y_sell);
          for (std::size_t i = 0; i < y_csr.size(); ++i)
            ASSERT_EQ(y_sell.data()[i], y_csr.data()[i])
                << simd::level_name(level) << " C=" << chunk
                << " w=" << width << " t=" << threads << " elem " << i;
        }
      }
    }
  }
}

TEST_F(SellCsTest, MultiplyPanelRowsMatchesCsrOnArbitraryWindows) {
  const CsrMatrix a = ragged_matrix(90, 90);
  const std::size_t width = 6;
  const Panel x = lcg_panel(90, width);
  for (const simd::Level level : compiled_levels()) {
    simd::set_level(level);
    for (const std::size_t chunk : {std::size_t{4}, std::size_t{8}}) {
      const SellCsMatrix s = SellCsMatrix::from_csr(a, chunk);
      // Row ranges deliberately misaligned with the chunk height, column
      // windows (src_col, dst_col, count) as the sweep uses them, and both
      // accumulate modes.
      const struct {
        std::size_t r0, r1, src, dst, count;
      } cases[] = {{0, 90, 0, 0, 6}, {3, 29, 1, 1, 5}, {17, 18, 2, 0, 3},
                   {5, 83, 0, 2, 4}, {88, 90, 1, 1, 1}};
      for (const auto& c : cases) {
        for (const bool accumulate : {false, true}) {
          Panel y_csr = lcg_panel(90, width), y_sell = y_csr;
          a.multiply_panel_rows(x, y_csr, c.r0, c.r1, c.src, c.dst, c.count,
                                accumulate);
          s.multiply_panel_rows(x, y_sell, c.r0, c.r1, c.src, c.dst, c.count,
                                accumulate);
          for (std::size_t i = 0; i < y_csr.size(); ++i)
            ASSERT_EQ(y_sell.data()[i], y_csr.data()[i])
                << simd::level_name(level) << " C=" << chunk << " rows ["
                << c.r0 << "," << c.r1 << ") acc=" << accumulate << " elem "
                << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Solver-level contract: SELL-C-σ sweeps are bit-identical to CSR sweeps at
// every SIMD level, thread count, sweep kernel, and reorder policy.
// ---------------------------------------------------------------------------

// Ragged-degree CTMC: state i has 1 + (i % 4) outgoing rates to scattered
// targets, so rows differ in length and the σ-sort produces a non-trivial
// permutation (asserted below so the round trip is genuinely exercised).
SecondOrderMrm ragged_model(std::size_t n) {
  std::vector<Triplet> rates;
  std::uint64_t state = 0x853c49e6748fea9bull;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t deg = 1 + i % 4;
    for (std::size_t k = 0; k < deg; ++k) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      std::size_t j = (state >> 33) % n;
      if (j == i) j = (j + 1) % n;
      rates.push_back(
          {i, j, 0.5 + static_cast<double>((state >> 20) % 17) * 0.25});
    }
    // A chain backbone keeps the chain irreducible-ish and the rows ragged.
    rates.push_back({i, (i + 1) % n, 1.0 + 0.125 * static_cast<double>(i)});
  }
  auto gen = ctmc::Generator::from_rates(n, rates);
  Vec drifts(n), vars(n), initial(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    drifts[i] = static_cast<double>(n - i) * 0.5;
    vars[i] = 0.3 * static_cast<double>(i % 5);
  }
  initial[0] = 0.25;
  initial[n / 2] = 0.75;
  return SecondOrderMrm(std::move(gen), std::move(drifts), std::move(vars),
                        std::move(initial));
}

TEST_F(SellCsTest, SolverBitIdenticalAcrossStorageLevelsThreadsKernels) {
  const std::size_t n = 60;
  const auto model = ragged_model(n);
  // The σ-sort must have real work on this model, or the test proves less
  // than it claims.
  ASSERT_FALSE(is_identity_permutation(SellCsMatrix::sigma_sort_permutation(
      model.generator().matrix(), SellCsMatrix::kDefaultSigma)));

  const RandomizationMomentSolver solver(model);
  const std::vector<double> times = {0.3, 1.1};
  MomentSolverOptions base;
  base.max_moment = 3;
  base.epsilon = 1e-10;
  const auto ref = solver.solve_multi(times, base);
  EXPECT_EQ(ref[0].stats.storage, "csr");
  EXPECT_EQ(ref[0].stats.padding_ratio, 0.0);
  EXPECT_EQ(ref[0].stats.chunk_occupancy, 1.0);

  for (const simd::Level level : compiled_levels()) {
    simd::set_level(level);
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      set_num_threads(threads);
      for (const SweepKernel kernel :
           {SweepKernel::kPanel, SweepKernel::kFusedVectors}) {
        for (const ReorderPolicy reorder :
             {ReorderPolicy::kNone, ReorderPolicy::kRcm}) {
          MomentSolverOptions opts = base;
          opts.kernel = kernel;
          opts.reorder = reorder;
          opts.storage = StorageFormat::kSellCs;
          const auto got = solver.solve_multi(times, opts);
          ASSERT_EQ(got.size(), ref.size());
          for (std::size_t ti = 0; ti < ref.size(); ++ti) {
            EXPECT_EQ(got[ti].stats.storage, "sellcs");
            EXPECT_GT(got[ti].stats.padding_ratio, 0.0);
            EXPECT_LT(got[ti].stats.padding_ratio, 1.0);
            EXPECT_GT(got[ti].stats.chunk_occupancy, 0.0);
            for (std::size_t j = 0; j <= base.max_moment; ++j) {
              ASSERT_EQ(got[ti].weighted[j], ref[ti].weighted[j])
                  << simd::level_name(level) << " t=" << threads
                  << " kernel=" << static_cast<int>(kernel)
                  << " reorder=" << static_cast<int>(reorder) << " time "
                  << ti << " moment " << j;
              ASSERT_EQ(got[ti].per_state[j].size(), n);
              for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(got[ti].per_state[j][i], ref[ti].per_state[j][i])
                    << simd::level_name(level) << " state " << i;
            }
          }
        }
      }
    }
  }
}

TEST_F(SellCsTest, TerminalWeightedSolveBitIdenticalAcrossStorage) {
  const auto model = ragged_model(40);
  const RandomizationMomentSolver solver(model);
  Vec weights(40);
  for (std::size_t i = 0; i < 40; ++i)
    weights[i] = 0.25 + static_cast<double>(i % 7);

  MomentSolverOptions opts;
  opts.max_moment = 2;
  opts.epsilon = 1e-10;
  const auto ref = solver.solve_terminal_weighted(1.3, weights, opts);
  opts.storage = StorageFormat::kSellCs;
  const auto got = solver.solve_terminal_weighted(1.3, weights, opts);
  for (std::size_t j = 0; j <= opts.max_moment; ++j) {
    ASSERT_EQ(got.weighted[j], ref.weighted[j]) << j;
    for (std::size_t i = 0; i < 40; ++i)
      ASSERT_EQ(got.per_state[j][i], ref.per_state[j][i]) << j << "," << i;
  }
}

TEST_F(SellCsTest, DegenerateChainReportsNoStorage) {
  auto gen = ctmc::Generator::from_rates(3, {});
  const SecondOrderMrm model(std::move(gen), Vec{1.0, 2.0, 3.0},
                             Vec{0.1, 0.2, 0.3}, Vec{1.0, 0.0, 0.0});
  const RandomizationMomentSolver solver(model);
  for (const StorageFormat storage :
       {StorageFormat::kCsr, StorageFormat::kSellCs}) {
    MomentSolverOptions opts;
    opts.storage = storage;
    const auto res = solver.solve(1.0, opts);
    EXPECT_EQ(res.stats.storage, "none");
  }
}

TEST_F(SellCsTest, ImpulseSolverBitIdenticalAcrossStorageAndKernels) {
  // Birth-death chain with normal impulses on the up transitions: ragged
  // enough for a non-identity σ permutation is not required here — this
  // pins that the impulse matrices are permuted consistently with Q'.
  const std::size_t n = 24;
  std::vector<Triplet> rates, imp_mean, imp_var;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    rates.push_back({i, i + 1, 2.0 + 0.5 * static_cast<double>(i)});
    rates.push_back({i + 1, i, 3.0});
    imp_mean.push_back({i, i + 1, 0.3 + 0.01 * static_cast<double>(i)});
    imp_var.push_back({i, i + 1, 0.05});
  }
  Vec drifts(n), vars(n), initial(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    drifts[i] = 0.5 * static_cast<double>(i);
    vars[i] = 0.2;
  }
  initial[0] = 1.0;
  const SecondOrderMrm base(ctmc::Generator::from_rates(n, rates),
                            std::move(drifts), std::move(vars),
                            std::move(initial));
  const core::SecondOrderImpulseMrm model(
      base, CsrMatrix::from_triplets(n, n, imp_mean),
      CsrMatrix::from_triplets(n, n, imp_var));
  const core::ImpulseMomentSolver solver(model);

  const std::vector<double> times = {0.4, 0.9};
  MomentSolverOptions opts;
  opts.max_moment = 3;
  opts.epsilon = 1e-9;
  const auto ref = solver.solve_multi(times, opts);
  EXPECT_EQ(ref[0].stats.storage, "csr");

  for (const SweepKernel kernel :
       {SweepKernel::kPanel, SweepKernel::kFusedVectors}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      set_num_threads(threads);
      MomentSolverOptions sopts = opts;
      sopts.kernel = kernel;
      sopts.storage = StorageFormat::kSellCs;
      const auto got = solver.solve_multi(times, sopts);
      for (std::size_t ti = 0; ti < ref.size(); ++ti) {
        EXPECT_EQ(got[ti].stats.storage, "sellcs");
        for (std::size_t j = 0; j <= opts.max_moment; ++j) {
          ASSERT_EQ(got[ti].weighted[j], ref[ti].weighted[j])
              << "kernel=" << static_cast<int>(kernel) << " t=" << threads
              << " time " << ti << " moment " << j;
          for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(got[ti].per_state[j][i], ref[ti].per_state[j][i])
                << "state " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace somrm::linalg
