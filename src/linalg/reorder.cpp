#include "linalg/reorder.hpp"

#include <algorithm>
#include <stdexcept>

namespace somrm::linalg {

namespace {

/// Sorted, duplicate-free, self-loop-free adjacency of the symmetrized
/// pattern A + A^T as flat CSR-style arrays (offsets + neighbors). Built
/// with counting passes, no hash containers, so the layout — and every
/// ordering derived from it — is deterministic.
struct Adjacency {
  std::vector<std::size_t> offsets;
  std::vector<std::size_t> neighbors;

  std::size_t degree(std::size_t v) const {
    return offsets[v + 1] - offsets[v];
  }
  std::span<const std::size_t> of(std::size_t v) const {
    return std::span<const std::size_t>(neighbors)
        .subspan(offsets[v], degree(v));
  }
};

Adjacency build_symmetric_adjacency(const CsrMatrix& a) {
  const std::size_t n = a.rows();
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();

  // Count both directions of every off-diagonal entry, scatter into a raw
  // buffer, then sort + dedup each vertex's slice into the final arrays.
  std::vector<std::size_t> counts(n, 0);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const std::size_t c = col_idx[k];
      if (c == r) continue;
      ++counts[r];
      ++counts[c];
    }
  std::vector<std::size_t> raw_off(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) raw_off[v + 1] = raw_off[v] + counts[v];
  std::vector<std::size_t> raw(raw_off[n]);
  std::vector<std::size_t> cursor(raw_off.begin(), raw_off.end() - 1);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const std::size_t c = col_idx[k];
      if (c == r) continue;
      raw[cursor[r]++] = c;
      raw[cursor[c]++] = r;
    }
  Adjacency adj;
  adj.offsets.assign(n + 1, 0);
  adj.neighbors.reserve(raw.size());
  for (std::size_t v = 0; v < n; ++v) {
    std::sort(raw.begin() + static_cast<std::ptrdiff_t>(raw_off[v]),
              raw.begin() + static_cast<std::ptrdiff_t>(raw_off[v + 1]));
    const std::size_t begin = adj.neighbors.size();
    for (std::size_t k = raw_off[v]; k < raw_off[v + 1]; ++k)
      if (adj.neighbors.size() == begin || adj.neighbors.back() != raw[k])
        adj.neighbors.push_back(raw[k]);
    adj.offsets[v + 1] = adj.neighbors.size();
  }
  return adj;
}

void require_square(const CsrMatrix& a, const char* caller) {
  if (a.rows() != a.cols())
    throw std::invalid_argument(std::string(caller) +
                                ": matrix must be square");
}

}  // namespace

std::vector<std::size_t> rcm_permutation(const CsrMatrix& a) {
  require_square(a, "rcm_permutation");
  const std::size_t n = a.rows();
  const Adjacency adj = build_symmetric_adjacency(a);

  // Component seeds in ascending (degree, index) order.
  std::vector<std::size_t> seeds(n);
  for (std::size_t v = 0; v < n; ++v) seeds[v] = v;
  std::stable_sort(seeds.begin(), seeds.end(),
                   [&](std::size_t x, std::size_t y) {
                     return adj.degree(x) < adj.degree(y);
                   });

  std::vector<char> visited(n, 0);
  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<std::size_t> frontier;
  for (std::size_t seed : seeds) {
    if (visited[seed]) continue;
    // Cuthill–McKee BFS from the seed; the queue is `order` itself.
    visited[seed] = 1;
    const std::size_t head0 = order.size();
    order.push_back(seed);
    for (std::size_t head = head0; head < order.size(); ++head) {
      const std::size_t v = order[head];
      frontier.clear();
      for (std::size_t w : adj.of(v)) {
        if (visited[w]) continue;
        visited[w] = 1;
        frontier.push_back(w);
      }
      // adj.of(v) is ascending by index, so a stable sort on degree gives
      // the deterministic (degree, index) visit order.
      std::stable_sort(frontier.begin(), frontier.end(),
                       [&](std::size_t x, std::size_t y) {
                         return adj.degree(x) < adj.degree(y);
                       });
      order.insert(order.end(), frontier.begin(), frontier.end());
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

std::vector<std::size_t> invert_permutation(
    std::span<const std::size_t> perm) {
  const std::size_t n = perm.size();
  std::vector<std::size_t> inverse(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    if (perm[i] >= n || inverse[perm[i]] != n)
      throw std::invalid_argument(
          "invert_permutation: input is not a permutation");
    inverse[perm[i]] = i;
  }
  return inverse;
}

CsrMatrix permute_symmetric(const CsrMatrix& a,
                            std::span<const std::size_t> perm) {
  require_square(a, "permute_symmetric");
  if (perm.size() != a.rows())
    throw std::invalid_argument("permute_symmetric: permutation size mismatch");
  const std::vector<std::size_t> inverse = invert_permutation(perm);
  const std::size_t n = a.rows();
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  const auto& values = a.values();

  std::vector<std::size_t> new_row_ptr(n + 1, 0);
  std::vector<std::size_t> new_col_idx(a.nnz());
  std::vector<double> new_values(a.nnz());
  std::size_t k_out = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t src = perm[r];
    for (std::size_t k = row_ptr[src]; k < row_ptr[src + 1]; ++k) {
      // Entries keep the source row's stored order; only the column labels
      // are remapped. This is what preserves the FP accumulation chain.
      new_col_idx[k_out] = inverse[col_idx[k]];
      new_values[k_out] = values[k];
      ++k_out;
    }
    new_row_ptr[r + 1] = k_out;
  }
  return CsrMatrix::from_unsorted_parts(n, n, std::move(new_row_ptr),
                                        std::move(new_col_idx),
                                        std::move(new_values));
}

Vec permute_vector(std::span<const double> x,
                   std::span<const std::size_t> perm) {
  if (x.size() != perm.size())
    throw std::invalid_argument("permute_vector: size mismatch");
  Vec out(x.size(), 0.0);
  for (std::size_t i = 0; i < perm.size(); ++i) out[i] = x[perm[i]];
  return out;
}

Panel unpermute_panel_rows(const Panel& p,
                           std::span<const std::size_t> perm) {
  if (p.rows() != perm.size())
    throw std::invalid_argument("unpermute_panel_rows: size mismatch");
  Panel out(p.rows(), p.width());
  const std::size_t w = p.width();
  for (std::size_t i = 0; i < p.rows(); ++i) {
    const double* src = p.row_data(i);
    double* dst = out.data() + perm[i] * w;
    for (std::size_t j = 0; j < w; ++j) dst[j] = src[j];
  }
  return out;
}

std::size_t bandwidth(const CsrMatrix& a) {
  std::size_t band = 0;
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const std::size_t c = col_idx[k];
      band = std::max(band, c > r ? c - r : r - c);
    }
  return band;
}

std::size_t bandwidth_lower_bound(const CsrMatrix& a) {
  std::size_t widest = 0;
  const auto& row_ptr = a.row_ptr();
  const auto& col_idx = a.col_idx();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    std::size_t off_diagonal = 0;
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k)
      off_diagonal += col_idx[k] != r;
    widest = std::max(widest, off_diagonal);
  }
  return (widest + 1) / 2;
}

}  // namespace somrm::linalg
