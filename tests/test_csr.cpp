// Unit tests for the CSR sparse matrix and builder.

#include "linalg/csr.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "linalg/panel.hpp"

namespace somrm::linalg {
namespace {

CsrMatrix small_matrix() {
  // [ 1 0 2 ]
  // [ 0 0 0 ]
  // [ 3 4 0 ]
  CsrBuilder b(3, 3);
  b.add(0, 0, 1.0);
  b.add(0, 2, 2.0);
  b.add(2, 0, 3.0);
  b.add(2, 1, 4.0);
  return std::move(b).build();
}

TEST(CsrBuilderTest, SumsDuplicatesAndSorts) {
  CsrBuilder b(2, 2);
  b.add(1, 0, 1.0);
  b.add(0, 1, 2.0);
  b.add(1, 0, 2.5);  // duplicate, summed
  const CsrMatrix m = std::move(b).build();
  EXPECT_EQ(m.nnz(), 2u);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 3.5);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
}

TEST(CsrBuilderTest, DropsExplicitZerosByDefault) {
  CsrBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 0, -1.0);
  EXPECT_EQ(std::move(b).build().nnz(), 0u);
}

TEST(CsrBuilderTest, KeepsExplicitZerosOnRequest) {
  CsrBuilder b(2, 2);
  b.add(0, 0, 0.0);
  EXPECT_EQ(std::move(b).build(/*keep_explicit_zeros=*/true).nnz(), 1u);
}

TEST(CsrBuilderTest, RejectsOutOfRange) {
  CsrBuilder b(2, 2);
  EXPECT_THROW(b.add(2, 0, 1.0), std::out_of_range);
  EXPECT_THROW(b.add(0, 2, 1.0), std::out_of_range);
}

TEST(CsrMatrixTest, ValidatesRawArrays) {
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1}, {0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(CsrMatrix(2, 2, {0, 1, 1}, {5}, {1.0}), std::invalid_argument);
  EXPECT_THROW(CsrMatrix(2, 2, {0, 2, 1}, {0, 1}, {1.0, 2.0}),
               std::invalid_argument);
}

TEST(CsrMatrixTest, RejectsUnsortedRowColumns) {
  // at()'s binary search and the fused row kernels assume strictly
  // increasing columns within every row.
  EXPECT_THROW(CsrMatrix(2, 3, {0, 2, 2}, {2, 0}, {1.0, 2.0}),
               std::invalid_argument);
  EXPECT_THROW(CsrMatrix(2, 3, {0, 1, 3}, {0, 2, 1}, {1.0, 2.0, 3.0}),
               std::invalid_argument);
}

TEST(CsrMatrixTest, RejectsDuplicateRowColumns) {
  EXPECT_THROW(CsrMatrix(1, 3, {0, 2}, {1, 1}, {1.0, 2.0}),
               std::invalid_argument);
}

TEST(CsrMatrixTest, AcceptsSortedRowColumns) {
  const CsrMatrix m(2, 3, {0, 2, 3}, {0, 2, 1}, {1.0, 2.0, 3.0});
  EXPECT_EQ(m.nnz(), 3u);
  EXPECT_EQ(m.at(0, 2), 2.0);
}

TEST(CsrMatrixTest, AtFindsStoredAndMissingEntries) {
  const CsrMatrix m = small_matrix();
  EXPECT_DOUBLE_EQ(m.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(m.at(2, 1), 4.0);
  EXPECT_THROW(m.at(3, 0), std::out_of_range);
}

TEST(CsrMatrixTest, MultiplyMatchesDense) {
  const CsrMatrix m = small_matrix();
  const Vec x{1.0, 2.0, 3.0};
  Vec y(3, 0.0);
  m.multiply(x, y);
  EXPECT_EQ(y, (Vec{7.0, 0.0, 11.0}));
}

TEST(CsrMatrixTest, MultiplyAddScalesAndAccumulates) {
  const CsrMatrix m = small_matrix();
  const Vec x{1.0, 2.0, 3.0};
  Vec y{1.0, 1.0, 1.0};
  m.multiply_add(2.0, x, y);
  EXPECT_EQ(y, (Vec{15.0, 1.0, 23.0}));
}

TEST(CsrMatrixTest, MultiplyTransposedMatchesTransposedMultiply) {
  const CsrMatrix m = small_matrix();
  const CsrMatrix mt = m.transposed();
  const Vec x{1.0, 2.0, 3.0};
  Vec y1(3, 0.0), y2(3, 0.0);
  m.multiply_transposed(x, y1);
  mt.multiply(x, y2);
  EXPECT_EQ(y1, y2);
}

TEST(CsrMatrixTest, IdentityAndDiagonalFactories) {
  const CsrMatrix eye = CsrMatrix::identity(3);
  EXPECT_EQ(eye.nnz(), 3u);
  EXPECT_DOUBLE_EQ(eye.at(1, 1), 1.0);

  const Vec d{1.0, 2.0, 3.0};
  const CsrMatrix diag = CsrMatrix::diagonal(d);
  EXPECT_EQ(diag.diagonal_vector(), d);
}

TEST(CsrMatrixTest, ScaledPlusIdentityFormsUniformizedMatrix) {
  // Q = [-2 2; 1 -1], q = 2 => P = Q/2 + I = [0 1; 0.5 0.5].
  CsrBuilder b(2, 2);
  b.add(0, 0, -2.0);
  b.add(0, 1, 2.0);
  b.add(1, 0, 1.0);
  b.add(1, 1, -1.0);
  const CsrMatrix q = std::move(b).build();
  const CsrMatrix p = q.scaled_plus_identity(0.5, 1.0);
  EXPECT_DOUBLE_EQ(p.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(p.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(p.at(1, 0), 0.5);
  EXPECT_DOUBLE_EQ(p.at(1, 1), 0.5);
  EXPECT_TRUE(p.is_substochastic(1e-15));
}

TEST(CsrMatrixTest, ScaledPlusIdentityAddsMissingDiagonal) {
  CsrBuilder b(2, 2);
  b.add(0, 1, 1.0);  // no diagonal stored anywhere
  const CsrMatrix m = std::move(b).build();
  const CsrMatrix r = m.scaled_plus_identity(1.0, 5.0);
  EXPECT_DOUBLE_EQ(r.at(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(r.at(1, 1), 5.0);
  EXPECT_DOUBLE_EQ(r.at(0, 1), 1.0);
}

TEST(CsrMatrixTest, RowSumsAndDiagnostics) {
  const CsrMatrix m = small_matrix();
  EXPECT_EQ(m.row_sums(), (Vec{3.0, 0.0, 7.0}));
  EXPECT_DOUBLE_EQ(m.mean_row_nnz(), 4.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.max_abs_diagonal(), 1.0);
  EXPECT_TRUE(m.is_nonnegative());
}

TEST(CsrMatrixTest, GeneratorChecks) {
  CsrBuilder b(2, 2);
  b.add(0, 0, -1.0);
  b.add(0, 1, 1.0);
  b.add(1, 0, 2.0);
  b.add(1, 1, -2.0);
  const CsrMatrix q = std::move(b).build();
  EXPECT_TRUE(q.has_zero_row_sums(1e-12));
  EXPECT_FALSE(q.is_nonnegative());
  EXPECT_FALSE(q.is_substochastic(1e-12));
}

TEST(CsrMatrixTest, ToDenseRoundTrip) {
  const CsrMatrix m = small_matrix();
  const auto dense = m.to_dense();
  EXPECT_DOUBLE_EQ(dense[0][2], 2.0);
  EXPECT_DOUBLE_EQ(dense[1][1], 0.0);
  EXPECT_THROW(m.to_dense(/*max_dim=*/2), std::invalid_argument);
}

TEST(CsrMatrixTest, FromTriplets) {
  const std::vector<Triplet> ts{{0, 0, 1.0}, {1, 1, 2.0}, {0, 0, 1.0}};
  const CsrMatrix m = CsrMatrix::from_triplets(2, 2, ts);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 2.0);
}

TEST(CsrMatrixTest, MultiplySizeChecks) {
  const CsrMatrix m = small_matrix();
  Vec bad(2, 0.0), good(3, 0.0);
  EXPECT_THROW(m.multiply(bad, good), std::invalid_argument);
  EXPECT_THROW(m.multiply(good, bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Panel container + CSR x panel SpMM.
// ---------------------------------------------------------------------------

// Deterministic pseudo-random sparse matrix (LCG, no <random> machinery) so
// large-matrix tests are reproducible across runs and platforms.
CsrMatrix pseudo_random_matrix(std::size_t rows, std::size_t cols,
                               std::size_t nnz_per_row) {
  CsrBuilder b(rows, cols);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (std::size_t i = 0; i < rows; ++i) {
    if (i % 37 == 5) continue;  // leave some rows empty
    for (std::size_t k = 0; k < nnz_per_row; ++k) {
      const std::size_t j = next() % cols;
      const double v =
          (static_cast<double>(next() % 2001) - 1000.0) / 523.0;
      b.add(i, j, v);
    }
  }
  return std::move(b).build();
}

Panel pseudo_random_panel(std::size_t rows, std::size_t width) {
  Panel p(rows, width);
  std::uint64_t state = 0x243f6a8885a308d3ull;
  for (std::size_t i = 0; i < rows; ++i)
    for (std::size_t j = 0; j < width; ++j) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      p(i, j) = (static_cast<double>((state >> 33) % 4001) - 2000.0) / 777.0;
    }
  return p;
}

TEST(PanelTest, BasicsAndColumnAccess) {
  Panel p(3, 2, 1.5);
  EXPECT_EQ(p.rows(), 3u);
  EXPECT_EQ(p.width(), 2u);
  EXPECT_EQ(p.size(), 6u);
  EXPECT_DOUBLE_EQ(p(2, 1), 1.5);

  p.fill_col(1, -2.0);
  EXPECT_EQ(p.col(1), (Vec{-2.0, -2.0, -2.0}));
  EXPECT_EQ(p.col(0), (Vec{1.5, 1.5, 1.5}));

  p.set_col(0, Vec{1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(p.row_data(1)[0], 2.0);
  EXPECT_DOUBLE_EQ(p.row(1)[1], -2.0);

  Panel q(1, 1, 9.0);
  p.swap(q);
  EXPECT_EQ(p.rows(), 1u);
  EXPECT_DOUBLE_EQ(q(0, 0), 1.0);

  EXPECT_THROW(q.fill_col(5, 0.0), std::out_of_range);
  EXPECT_THROW(q.col(9), std::out_of_range);
  EXPECT_THROW(q.set_col(0, Vec{1.0}), std::invalid_argument);
}

TEST(CsrMatrixTest, MultiplyPanelMatchesIndependentSpmvs) {
  // The SpMM contract: column j of the output equals multiply() applied to
  // column j of the input — bit-for-bit, since the per-element accumulation
  // order (ascending k within a row) is identical.
  const CsrMatrix m = pseudo_random_matrix(200, 150, 6);
  const Panel x = pseudo_random_panel(150, 5);
  Panel y(200, 5);
  m.multiply_panel(x, y);
  for (std::size_t j = 0; j < 5; ++j) {
    Vec ref(200, 0.0);
    m.multiply(x.col(j), ref);
    EXPECT_EQ(y.col(j), ref) << "column " << j;
  }
}

TEST(CsrMatrixTest, MultiplyPanelWiderThanChunkMatchesIndependentSpmvs) {
  // Width 40 is past the compile-time widths (1..8): the runtime-width
  // kernel, which sums in the output row.
  const CsrMatrix m = pseudo_random_matrix(64, 64, 4);
  const Panel x = pseudo_random_panel(64, 40);
  Panel y(64, 40);
  m.multiply_panel(x, y);
  for (std::size_t j = 0; j < 40; ++j) {
    Vec ref(64, 0.0);
    m.multiply(x.col(j), ref);
    EXPECT_EQ(y.col(j), ref) << "column " << j;
  }
}

TEST(CsrMatrixTest, MultiplyPanelZeroesEmptyRows) {
  const CsrMatrix m = small_matrix();  // row 1 is empty
  Panel x(3, 2, 1.0);
  Panel y(3, 2, 7.0);  // stale garbage that must be overwritten
  m.multiply_panel(x, y);
  EXPECT_DOUBLE_EQ(y(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(y(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(y(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(y(2, 1), 7.0);
}

TEST(CsrMatrixTest, MultiplyPanelWidthOneMatchesMultiply) {
  // Degenerate width-1 panel is exactly an SpMV.
  const CsrMatrix m = pseudo_random_matrix(300, 300, 5);
  const Panel x = pseudo_random_panel(300, 1);
  Panel y(300, 1);
  m.multiply_panel(x, y);
  Vec ref(300, 0.0);
  m.multiply(x.col(0), ref);
  EXPECT_EQ(y.col(0), ref);
}

TEST(CsrMatrixTest, MultiplyPanelSizeChecks) {
  const CsrMatrix m = small_matrix();
  Panel good_x(3, 2), good_y(3, 2);
  Panel bad_rows(2, 2), bad_width(3, 3);
  EXPECT_THROW(m.multiply_panel(bad_rows, good_y), std::invalid_argument);
  EXPECT_THROW(m.multiply_panel(good_x, bad_rows), std::invalid_argument);
  EXPECT_THROW(m.multiply_panel(good_x, bad_width), std::invalid_argument);
}

TEST(CsrMatrixTest, MultiplyTransposedLargeMatchesTransposedMultiply) {
  // Above the serial-scatter cutoff (4096 rows) the transposed product runs
  // the blocked parallel path; its pairwise reduction reorders the sums, so
  // compare against the explicit transpose with a tolerance.
  const CsrMatrix m = pseudo_random_matrix(5000, 400, 4);
  const CsrMatrix mt = m.transposed();
  const Panel xp = pseudo_random_panel(5000, 1);
  const Vec x = xp.col(0);
  Vec y1(400, 0.0), y2(400, 0.0);
  m.multiply_transposed(x, y1);
  mt.multiply(x, y2);
  for (std::size_t c = 0; c < 400; ++c)
    EXPECT_NEAR(y1[c], y2[c], 1e-12 * (1.0 + std::abs(y2[c]))) << "col " << c;
}

}  // namespace
}  // namespace somrm::linalg
