// somrm/linalg/reorder.hpp
//
// CSR bandwidth reduction for the randomization sweep.
//
// The sweep's CSR×panel kernel reads x[col_idx[k] * width] for every stored
// entry; when a model builder emits states in an order that scatters
// neighbouring states far apart, those gathers miss cache. A reverse
// Cuthill–McKee reordering of the states clusters the column indices near
// the diagonal, shrinking the working set per row without touching the
// arithmetic (DESIGN §6.2).
//
// Bit-exactness is preserved end to end: permute_symmetric keeps each
// row's stored entries in their ORIGINAL relative order (it does not
// re-sort columns), so the per-element multiply-then-add chain of every
// kernel is exactly the chain the unpermuted matrix runs — only the row
// identities move. A solver that permutes its inputs, sweeps, and
// un-permutes its outputs therefore returns bit-identical values (the sweep
// core applies RCM whenever it strictly narrows Q''s band; asserted by
// test_reorder.cpp and the golden-bit corpus).
//
// The ordering is deterministic: ties break on ascending state index,
// never on pointer values or hash order.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "linalg/csr.hpp"
#include "linalg/panel.hpp"

namespace somrm::linalg {

/// Reverse Cuthill–McKee ordering of the symmetrized pattern of @p a
/// (square matrices only). Returns perm with perm[new_index] = old_index.
/// Components are seeded from the minimum-degree unvisited vertex and BFS
/// neighbours are visited in ascending (degree, index) order, so the result
/// is a pure function of the sparsity pattern.
std::vector<std::size_t> rcm_permutation(const CsrMatrix& a);

/// inverse[perm[i]] = i. Validates that @p perm is a permutation (every
/// index in [0, n) exactly once); throws std::invalid_argument otherwise.
std::vector<std::size_t> invert_permutation(std::span<const std::size_t> perm);

/// Symmetric permutation B = P A P^T of a square matrix: B(r, c) =
/// A(perm[r], perm[c]). Each output row keeps its source row's stored
/// entries in their original relative order — columns are REMAPPED, not
/// re-sorted — so every row's floating-point accumulation chain is
/// unchanged (see the header comment). The result therefore generally has
/// unsorted column indices (CsrMatrix::columns_sorted() == false). Throws
/// std::invalid_argument for non-square @p a or an invalid permutation.
CsrMatrix permute_symmetric(const CsrMatrix& a,
                            std::span<const std::size_t> perm);

/// Gathers @p x into permuted order: out[i] = x[perm[i]] (the order the
/// permuted matrix expects its operands in).
Vec permute_vector(std::span<const double> x,
                   std::span<const std::size_t> perm);

/// Scatters the rows of a panel computed in permuted order back to the
/// original order: out.row(perm[i]) = p.row(i). Inverse of row-gathering
/// by @p perm; applied to solver outputs so callers never see the permuted
/// order.
Panel unpermute_panel_rows(const Panel& p, std::span<const std::size_t> perm);

/// Bandwidth max |r - c| over the stored entries (0 for an empty matrix).
/// The quantity RCM minimizes; exposed for tests and bench telemetry.
std::size_t bandwidth(const CsrMatrix& a);

/// A bound no symmetric permutation of @p a can beat: a row with k
/// off-diagonal entries needs k distinct columns within distance b of its
/// own index, so b >= ceil(k / 2) for the row with the most. A matrix whose
/// bandwidth() already equals this (a tridiagonal chain: 1) cannot be
/// narrowed, and the sweep skips the RCM pass for it.
std::size_t bandwidth_lower_bound(const CsrMatrix& a);

}  // namespace somrm::linalg
