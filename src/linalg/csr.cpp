#include "linalg/csr.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/invariants.hpp"
#include "linalg/parallel.hpp"
#include "obs/telemetry.hpp"

namespace {

// SpMV/SpMM telemetry: rows and stored entries streamed by the public
// matvec entry points, the multiply-accumulate count (2 flops each), and
// the call count + wall time. obs::report() derives effective GFLOP/s from
// spmv.flops / spmv.calls time. The fused solver sweeps bypass these entry
// points and account their traffic analytically in SolverStats instead.
// All of this is an inline no-op under SOMRM_OBSERVABILITY=OFF.
struct SpmvMetrics {
  somrm::obs::Metric& calls = somrm::obs::metric("spmv.calls");
  somrm::obs::Metric& rows = somrm::obs::metric("spmv.rows");
  somrm::obs::Metric& nnz = somrm::obs::metric("spmv.nnz");
  somrm::obs::Metric& flops = somrm::obs::metric("spmv.flops");

  void record(std::size_t matrix_rows, std::size_t matrix_nnz,
              std::size_t width, std::int64_t ns) {
    calls.add(1, ns);
    rows.add(static_cast<std::int64_t>(matrix_rows));
    nnz.add(static_cast<std::int64_t>(matrix_nnz));
    flops.add(static_cast<std::int64_t>(2 * matrix_nnz * width));
  }
};

SpmvMetrics& spmv_metrics() {
  static SpmvMetrics m;
  return m;
}
// Minimum rows per parallel range for the matvecs: generator rows carry only
// a handful of non-zeros, so anything below a few thousand rows is cheaper
// to run inline than to hand to the pool.
constexpr std::size_t kMatvecGrain = 4096;

// multiply_transposed switches from the serial scatter to the blocked
// parallel path above this row count, and always partitions the rows into
// this fixed number of blocks. Both thresholds depend only on the matrix,
// never on the thread count, so the summation order per output element is
// a function of the input alone.
constexpr std::size_t kTransposeSerialRows = 4096;
constexpr std::size_t kTransposeBlocks = 8;
}  // namespace

namespace somrm::linalg {

CsrBuilder::CsrBuilder(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols) {}

void CsrBuilder::add(std::size_t row, std::size_t col, double value) {
  if (row >= rows_ || col >= cols_)
    throw std::out_of_range("CsrBuilder::add: index out of range");
  entries_.push_back(Triplet{row, col, value});
}

CsrMatrix CsrBuilder::build(bool keep_explicit_zeros) && {
  std::sort(entries_.begin(), entries_.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  std::vector<std::size_t> row_ptr(rows_ + 1, 0);
  std::vector<std::size_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(entries_.size());
  values.reserve(entries_.size());

  std::size_t i = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    while (i < entries_.size() && entries_[i].row == r) {
      const std::size_t c = entries_[i].col;
      double v = 0.0;
      while (i < entries_.size() && entries_[i].row == r &&
             entries_[i].col == c) {
        v += entries_[i].value;
        ++i;
      }
      if (keep_explicit_zeros || v != 0.0) {
        col_idx.push_back(c);
        values.push_back(v);
      }
    }
    row_ptr[r + 1] = col_idx.size();
  }
  entries_.clear();
  return CsrMatrix(rows_, cols_, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<std::size_t> row_ptr,
                     std::vector<std::size_t> col_idx,
                     std::vector<double> values)
    : CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_idx),
                std::move(values), /*require_sorted=*/true) {}

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<std::size_t> row_ptr,
                     std::vector<std::size_t> col_idx,
                     std::vector<double> values, bool require_sorted)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)),
      values_(std::move(values)) {
  if (row_ptr_.size() != rows_ + 1)
    throw std::invalid_argument("CsrMatrix: row_ptr size must be rows+1");
  if (col_idx_.size() != values_.size())
    throw std::invalid_argument("CsrMatrix: col_idx/values size mismatch");
  if (row_ptr_.front() != 0 || row_ptr_.back() != values_.size())
    throw std::invalid_argument("CsrMatrix: bad row_ptr endpoints");
  for (std::size_t r = 0; r < rows_; ++r) {
    if (row_ptr_[r] > row_ptr_[r + 1])
      throw std::invalid_argument("CsrMatrix: row_ptr not monotone");
  }
  for (std::size_t c : col_idx_) {
    if (c >= cols_)
      throw std::invalid_argument("CsrMatrix: column index out of range");
  }
  // at() binary-searches each row when columns are strictly increasing
  // within every row (sorted and duplicate-free) — the default ctor
  // enforces it instead of silently returning wrong entries for hand-built
  // matrices. from_unsorted_parts relaxes the ordering (a permuted matrix
  // keeps its original accumulation order, see linalg/reorder.hpp) but
  // still rejects duplicate columns, which no kernel tolerates.
  columns_sorted_ = true;
  for (std::size_t r = 0; r < rows_ && columns_sorted_; ++r) {
    for (std::size_t k = row_ptr_[r] + 1; k < row_ptr_[r + 1]; ++k) {
      if (col_idx_[k - 1] >= col_idx_[k]) {
        columns_sorted_ = false;
        break;
      }
    }
  }
  if (!columns_sorted_) {
    if (require_sorted)
      throw std::invalid_argument(
          "CsrMatrix: row columns must be sorted and duplicate-free");
    // Duplicate check without sorting: an epoch-stamped scratch marks the
    // columns seen in the current row. O(nnz + cols).
    std::vector<std::size_t> seen_in_row(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        if (seen_in_row[col_idx_[k]] == r)
          throw std::invalid_argument(
              "CsrMatrix: duplicate column within a row");
        seen_in_row[col_idx_[k]] = r;
      }
    }
  }
  // Checked-build poison sweep: a NaN/Inf smuggled into any matrix (model
  // generator, uniformized DTMC, impulse-moment matrix) would propagate
  // silently through every sweep step.
  SOMRM_CHECK_FINITE(std::span<const double>(values_), "CsrMatrix values");
}

CsrMatrix CsrMatrix::from_unsorted_parts(std::size_t rows, std::size_t cols,
                                         std::vector<std::size_t> row_ptr,
                                         std::vector<std::size_t> col_idx,
                                         std::vector<double> values) {
  return CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_idx),
                   std::move(values), /*require_sorted=*/false);
}

CsrMatrix CsrMatrix::identity(std::size_t n) {
  std::vector<std::size_t> row_ptr(n + 1);
  std::vector<std::size_t> col_idx(n);
  std::vector<double> values(n, 1.0);
  for (std::size_t i = 0; i <= n; ++i) row_ptr[i] = i;
  for (std::size_t i = 0; i < n; ++i) col_idx[i] = i;
  return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

CsrMatrix CsrMatrix::diagonal(std::span<const double> diag) {
  const std::size_t n = diag.size();
  std::vector<std::size_t> row_ptr(n + 1);
  std::vector<std::size_t> col_idx(n);
  std::vector<double> values(diag.begin(), diag.end());
  for (std::size_t i = 0; i <= n; ++i) row_ptr[i] = i;
  for (std::size_t i = 0; i < n; ++i) col_idx[i] = i;
  return CsrMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

CsrMatrix CsrMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                   std::span<const Triplet> triplets) {
  CsrBuilder b(rows, cols);
  for (const Triplet& t : triplets) b.add(t.row, t.col, t.value);
  return std::move(b).build();
}

double CsrMatrix::at(std::size_t row, std::size_t col) const {
  if (row >= rows_ || col >= cols_)
    throw std::out_of_range("CsrMatrix::at: index out of range");
  const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row]);
  const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row + 1]);
  if (!columns_sorted_) {
    const auto it = std::find(begin, end, col);
    if (it == end) return 0.0;
    return values_[static_cast<std::size_t>(it - col_idx_.begin())];
  }
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

void CsrMatrix::multiply(std::span<const double> x, std::span<double> y) const {
  if (x.size() != cols_ || y.size() != rows_)
    throw std::invalid_argument("CsrMatrix::multiply: size mismatch");
  const std::int64_t t0 = obs::now_ns();
  parallel_for(
      rows_,
      [&](std::size_t row_begin, std::size_t row_end) {
        for (std::size_t r = row_begin; r < row_end; ++r) {
          double acc = 0.0;
          for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
            acc += values_[k] * x[col_idx_[k]];
          y[r] = acc;
        }
      },
      kMatvecGrain);
  spmv_metrics().record(rows_, nnz(), 1, obs::now_ns() - t0);
}

void CsrMatrix::multiply_add(double alpha, std::span<const double> x,
                             std::span<double> y) const {
  if (x.size() != cols_ || y.size() != rows_)
    throw std::invalid_argument("CsrMatrix::multiply_add: size mismatch");
  const std::int64_t t0 = obs::now_ns();
  parallel_for(
      rows_,
      [&](std::size_t row_begin, std::size_t row_end) {
        for (std::size_t r = row_begin; r < row_end; ++r) {
          double acc = 0.0;
          for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
            acc += values_[k] * x[col_idx_[k]];
          y[r] += alpha * acc;
        }
      },
      kMatvecGrain);
  spmv_metrics().record(rows_, nnz(), 1, obs::now_ns() - t0);
}

namespace {
// Rows [row_begin, row_end) of y = A x for row-major panels of width W
// (W == 0: the runtime width w). Per element 0 + sum_k a_ik x(k, c) with k
// ascending over row i's entries, in every instantiation. A compile-time
// width keeps the row's sums in registers and unrolls every column loop;
// at the solver's narrow widths a runtime-width inner loop costs more in
// loop overhead than the dot product itself. Wider panels sum in y's row.
template <std::size_t W>
void panel_rows(const CsrMatrix& a, const double* x, double* y, std::size_t w,
                std::size_t row_begin, std::size_t row_end) {
  const std::size_t width = W == 0 ? w : W;
  double sums[W == 0 ? 1 : W] = {};
  for (std::size_t i = row_begin; i < row_end; ++i) {
    double* yr = y + i * width;
    double* s = W == 0 ? yr : sums;
    for (std::size_t c = 0; c < width; ++c) s[c] = 0.0;
    a.visit_row(i, [&](std::size_t col, double v) {
      const double* xr = x + col * width;
      for (std::size_t c = 0; c < width; ++c) s[c] += v * xr[c];
    });
    if constexpr (W > 0)
      for (std::size_t c = 0; c < W; ++c) yr[c] = s[c];
  }
}

template <std::size_t... W>
constexpr auto panel_rows_table(std::index_sequence<W...>) {
  return std::array{&panel_rows<W>...};
}
// panel_rows by width for widths 1..8, entry 0 for wider panels.
constexpr auto kPanelRows = panel_rows_table(std::make_index_sequence<9>{});
}  // namespace

void CsrMatrix::multiply_panel(const Panel& x, Panel& y) const {
  if (x.rows() != cols_ || y.rows() != rows_ || x.width() != y.width())
    throw std::invalid_argument("CsrMatrix::multiply_panel: size mismatch");
  const std::size_t width = x.width();
  if (width == 0) return;
  const std::int64_t t0 = obs::now_ns();
  const auto rows = kPanelRows[width < kPanelRows.size() ? width : 0];
  // Per-row cost scales with the width, so the grain shrinks accordingly.
  const std::size_t grain = std::max<std::size_t>(1, kMatvecGrain / width);
  parallel_for(
      rows_,
      [&](std::size_t row_begin, std::size_t row_end) {
        rows(*this, x.data(), y.data(), width, row_begin, row_end);
      },
      grain);
  spmv_metrics().record(rows_, nnz(), width, obs::now_ns() - t0);
}

namespace {
// Pairwise tree sum of partial[first..first+count) at column c, leaves in
// ascending block order. The association pattern depends only on the block
// count, never on the thread count.
double tree_sum_col(const std::vector<Vec>& partial, std::size_t first,
                    std::size_t count, std::size_t c) {
  if (count == 1) return partial[first][c];
  const std::size_t half = count / 2;
  return tree_sum_col(partial, first, half, c) +
         tree_sum_col(partial, first + half, count - half, c);
}
}  // namespace

void CsrMatrix::multiply_transposed(std::span<const double> x,
                                    std::span<double> y) const {
  if (x.size() != rows_ || y.size() != cols_)
    throw std::invalid_argument("CsrMatrix::multiply_transposed: size mismatch");
  const std::int64_t t0 = obs::now_ns();
  if (rows_ < kTransposeSerialRows) {
    std::fill(y.begin(), y.end(), 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
      const double xr = x[r];
      if (xr == 0.0) continue;
      for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
        y[col_idx_[k]] += values_[k] * xr;
    }
    spmv_metrics().record(rows_, nnz(), 1, obs::now_ns() - t0);
    return;
  }
  // Scatter phase: each fixed row block accumulates into its own buffer
  // (blocks distributed over threads; a block's buffer content is the same
  // whichever thread computes it).
  const auto blocks = partition_ranges(rows_, kTransposeBlocks);
  std::vector<Vec> partial(blocks.size(), Vec(cols_, 0.0));
  parallel_for(
      blocks.size(),
      [&](std::size_t b_begin, std::size_t b_end) {
        for (std::size_t b = b_begin; b < b_end; ++b) {
          Vec& buf = partial[b];
          for (std::size_t r = blocks[b].begin; r < blocks[b].end; ++r) {
            const double xr = x[r];
            if (xr == 0.0) continue;
            for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
              buf[col_idx_[k]] += values_[k] * xr;
          }
        }
      },
      /*grain=*/1);
  // Reduce phase: column-parallel, fixed pairwise tree over the blocks.
  parallel_for(
      cols_,
      [&](std::size_t c_begin, std::size_t c_end) {
        for (std::size_t c = c_begin; c < c_end; ++c)
          y[c] = tree_sum_col(partial, 0, partial.size(), c);
      },
      kMatvecGrain);
  spmv_metrics().record(rows_, nnz(), 1, obs::now_ns() - t0);
}

CsrMatrix CsrMatrix::transposed() const {
  CsrBuilder b(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      b.add(col_idx_[k], r, values_[k]);
  return std::move(b).build(/*keep_explicit_zeros=*/true);
}

CsrMatrix CsrMatrix::scaled_plus_identity(double alpha, double beta) const {
  if (rows_ != cols_)
    throw std::invalid_argument("scaled_plus_identity: matrix must be square");
  CsrBuilder b(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    bool diag_seen = false;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      double v = alpha * values_[k];
      if (col_idx_[k] == r) {
        v += beta;
        diag_seen = true;
      }
      b.add(r, col_idx_[k], v);
    }
    if (!diag_seen && beta != 0.0) b.add(r, r, beta);
  }
  return std::move(b).build(/*keep_explicit_zeros=*/true);
}

Vec CsrMatrix::diagonal_vector() const {
  Vec d(std::min(rows_, cols_), 0.0);
  for (std::size_t r = 0; r < d.size(); ++r) d[r] = at(r, r);
  return d;
}

Vec CsrMatrix::row_sums() const {
  Vec s(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      s[r] += values_[k];
  return s;
}

double CsrMatrix::mean_row_nnz() const {
  if (rows_ == 0) return 0.0;
  return static_cast<double>(nnz()) / static_cast<double>(rows_);
}

double CsrMatrix::max_abs_diagonal() const {
  double q = 0.0;
  const std::size_t n = std::min(rows_, cols_);
  for (std::size_t r = 0; r < n; ++r) q = std::max(q, std::abs(at(r, r)));
  return q;
}

bool CsrMatrix::is_nonnegative(double tol) const {
  return std::all_of(values_.begin(), values_.end(),
                     [tol](double v) { return v >= -tol; });
}

bool CsrMatrix::has_zero_row_sums(double tol) const {
  const Vec s = row_sums();
  return std::all_of(s.begin(), s.end(),
                     [tol](double v) { return std::abs(v) <= tol; });
}

bool CsrMatrix::is_substochastic(double tol) const {
  if (!is_nonnegative(tol)) return false;
  const Vec s = row_sums();
  return std::all_of(s.begin(), s.end(),
                     [tol](double v) { return v <= 1.0 + tol; });
}

std::vector<Vec> CsrMatrix::to_dense(std::size_t max_dim) const {
  if (rows_ > max_dim || cols_ > max_dim)
    throw std::invalid_argument("CsrMatrix::to_dense: matrix too large");
  std::vector<Vec> dense(rows_, Vec(cols_, 0.0));
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      dense[r][col_idx_[k]] += values_[k];
  return dense;
}

}  // namespace somrm::linalg
