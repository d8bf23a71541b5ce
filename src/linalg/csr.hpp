// somrm/linalg/csr.hpp
//
// Compressed-sparse-row matrix and an incremental COO-style builder.
//
// The randomization solver spends essentially all of its time in
// CsrMatrix::multiply, so the representation is the classic three-array CSR
// with row-major traversal. The builder accepts duplicate entries (they are
// summed) and unordered input; finalize() sorts and compacts.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/panel.hpp"
#include "linalg/vec.hpp"

namespace somrm::linalg {

/// One (row, col, value) coordinate entry used while assembling a matrix.
struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

class CsrMatrix;

/// Incremental builder for CsrMatrix. Entries may arrive in any order and
/// duplicates are summed, which makes assembling generators from transition
/// lists straightforward.
class CsrBuilder {
 public:
  /// Creates a builder for a @p rows x @p cols matrix.
  CsrBuilder(std::size_t rows, std::size_t cols);

  /// Adds @p value at (row, col). Throws std::out_of_range on bad indices.
  void add(std::size_t row, std::size_t col, double value);

  /// Number of raw (pre-compaction) entries added so far.
  std::size_t entry_count() const { return entries_.size(); }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Sorts, merges duplicates, drops explicit zeros (unless
  /// @p keep_explicit_zeros) and produces the immutable CSR matrix.
  CsrMatrix build(bool keep_explicit_zeros = false) &&;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<Triplet> entries_;
};

/// Immutable CSR sparse matrix.
class CsrMatrix {
 public:
  /// Empty 0x0 matrix.
  CsrMatrix() = default;

  /// Builds directly from raw CSR arrays; validates the structure
  /// (monotone row pointers, in-range column indices, and strictly
  /// increasing — i.e. sorted, duplicate-free — columns within each row,
  /// which at()'s binary search relies on).
  CsrMatrix(std::size_t rows, std::size_t cols,
            std::vector<std::size_t> row_ptr, std::vector<std::size_t> col_idx,
            std::vector<double> values);

  /// Identity matrix of order @p n.
  static CsrMatrix identity(std::size_t n);

  /// Diagonal matrix with the given diagonal.
  static CsrMatrix diagonal(std::span<const double> diag);

  /// Builds from triplets (duplicates summed).
  static CsrMatrix from_triplets(std::size_t rows, std::size_t cols,
                                 std::span<const Triplet> triplets);

  /// Builds from raw CSR arrays whose within-row column order is caller-
  /// chosen: columns must be in-range and duplicate-free per row but need
  /// not be sorted. Used by the bandwidth-reduction reorder
  /// (linalg/reorder.hpp), which must keep each row's entries in their
  /// original relative order to preserve the kernels' floating-point
  /// accumulation chains. at() falls back to a linear row scan when the
  /// columns turn out unsorted (columns_sorted() == false); every multiply
  /// kernel is order-agnostic-correct (though order-sensitive in the last
  /// bit, which is exactly the point).
  static CsrMatrix from_unsorted_parts(std::size_t rows, std::size_t cols,
                                       std::vector<std::size_t> row_ptr,
                                       std::vector<std::size_t> col_idx,
                                       std::vector<double> values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }

  /// True when every row's columns are strictly increasing (always true
  /// except for matrices built via from_unsorted_parts whose input really
  /// was unsorted).
  bool columns_sorted() const { return columns_sorted_; }

  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::size_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

  /// Element lookup: binary search within the row when columns_sorted(),
  /// linear scan otherwise. O(log nnz_row) / O(nnz_row).
  double at(std::size_t row, std::size_t col) const;

  /// y = A * x. Requires x.size() == cols(), y.size() == rows(); x and y
  /// must not alias. Row-parallel via linalg::parallel_for for large
  /// matrices; bit-identical for every thread count.
  void multiply(std::span<const double> x, std::span<double> y) const;

  /// y += alpha * A * x. Row-parallel like multiply().
  void multiply_add(double alpha, std::span<const double> x,
                    std::span<double> y) const;

  /// Y = A * X for row-major panels: Y(i, j) = sum_k a_ik X(k, j) for every
  /// panel column j. One pass over the CSR structure multiplies each stored
  /// entry against width() contiguous doubles of X, instead of re-streaming
  /// the matrix once per column as width() independent multiply() calls
  /// would. Requires X.rows() == cols(), Y.rows() == rows(), equal widths;
  /// X and Y must not alias. Row-parallel; per element the accumulation
  /// order over the row's stored entries is exactly multiply()'s, so the
  /// result is bit-identical to width() independent SpMVs at every thread
  /// count. This is the scalar reference SpMM at every SIMD level: tests
  /// use it as an oracle, and the sweep itself runs its own fused row
  /// kernel (core/randomization.cpp).
  void multiply_panel(const Panel& x, Panel& y) const;

  /// Calls fn(col, value) for row i's stored entries in ascending k — the
  /// accumulation order every kernel uses. The sweep's fused row kernel
  /// (core/randomization.cpp) walks rows through this hook, so the callback
  /// inlines into its lane-pack body.
  template <class Fn>
  void visit_row(std::size_t i, Fn&& fn) const {
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k)
      fn(col_idx_[k], values_[k]);
  }

  /// y = A^T * x (row-major traversal with scatter). Large matrices are
  /// parallelized over a fixed partition of the rows into per-block partial
  /// buffers followed by a column-parallel pairwise tree reduction in fixed
  /// block order; both phases are independent of the thread count, so the
  /// result is bit-identical for every thread count (small matrices run the
  /// plain serial scatter).
  void multiply_transposed(std::span<const double> x,
                           std::span<double> y) const;

  /// Returns A^T as a new CSR matrix.
  CsrMatrix transposed() const;

  /// Returns alpha * A + beta * I (square matrices only). Used to form the
  /// uniformized matrix Q' = Q/q + I without densifying.
  CsrMatrix scaled_plus_identity(double alpha, double beta) const;

  /// Returns a copy of the main diagonal (length min(rows, cols)); absent
  /// entries are zero.
  Vec diagonal_vector() const;

  /// Row sums (length rows()).
  Vec row_sums() const;

  /// Mean number of stored entries per row; the paper's "m" in the
  /// complexity discussion of section 6.
  double mean_row_nnz() const;

  /// Maximum |a_ii| over the diagonal; the uniformization rate q for a
  /// generator matrix.
  double max_abs_diagonal() const;

  /// True if every stored entry is >= -tol.
  bool is_nonnegative(double tol = 0.0) const;

  /// True if every row sum is within tol of zero (generator property).
  bool has_zero_row_sums(double tol) const;

  /// True if every row sum is <= 1 + tol and entries are non-negative
  /// (sub-stochastic property relied on by Theorem 4's error bound).
  bool is_substochastic(double tol) const;

  /// Dense rendering for tests/diagnostics; throws for matrices larger than
  /// @p max_dim in either dimension.
  std::vector<Vec> to_dense(std::size_t max_dim = 512) const;

 private:
  CsrMatrix(std::size_t rows, std::size_t cols,
            std::vector<std::size_t> row_ptr, std::vector<std::size_t> col_idx,
            std::vector<double> values, bool require_sorted);

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_{0};
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
  bool columns_sorted_ = true;
};

}  // namespace somrm::linalg
