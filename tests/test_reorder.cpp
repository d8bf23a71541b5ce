// Tests for linalg/reorder.hpp and the sweep's reorder decision:
// permutation validity, bandwidth reduction and its lower bound, within-row
// order preservation, the solver-level guarantee that a reordered solve
// returns bit-identical moments, and when the sweep applies (or skips) RCM.

#include "linalg/reorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/impulse_randomization.hpp"
#include "core/randomization.hpp"
#include "core/scaling.hpp"
#include "ctmc/generator.hpp"
#include "linalg/csr.hpp"
#include "linalg/panel.hpp"
#include "linalg/vec.hpp"
#include "models/onoff.hpp"
#include "obs/telemetry.hpp"

namespace somrm::linalg {
namespace {

using core::MomentResult;
using core::MomentSolverOptions;
using core::RandomizationMomentSolver;
using core::SecondOrderMrm;

// Deterministic shuffle of [0, n): i -> (i * stride + offset) % n with
// stride coprime to n. Scatters formerly-adjacent indices far apart.
std::vector<std::size_t> stride_shuffle(std::size_t n, std::size_t stride,
                                        std::size_t offset) {
  std::vector<std::size_t> map(n);
  for (std::size_t i = 0; i < n; ++i) map[i] = (i * stride + offset) % n;
  return map;
}

// Tridiagonal (banded) pattern whose state labels have been scrambled by
// @p label: entry (label[i], label[j]) for |i - j| <= 1. Bandwidth under
// the scrambled labels is large; RCM should recover something near 1.
CsrMatrix shuffled_banded(std::size_t n, const std::vector<std::size_t>& label) {
  std::vector<Triplet> trips;
  for (std::size_t i = 0; i < n; ++i) {
    trips.push_back({label[i], label[i], -2.0 - 0.01 * static_cast<double>(i)});
    if (i + 1 < n) {
      trips.push_back({label[i], label[i + 1], 1.0 + 0.1 * static_cast<double>(i)});
      trips.push_back({label[i + 1], label[i], 0.5 + 0.2 * static_cast<double>(i)});
    }
  }
  return CsrMatrix::from_triplets(n, n, trips);
}

void expect_is_permutation(const std::vector<std::size_t>& perm, std::size_t n) {
  ASSERT_EQ(perm.size(), n);
  std::vector<std::size_t> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(ReorderTest, PermutationHelpersValidateAndRoundTrip) {
  const std::vector<std::size_t> perm = {2, 0, 3, 1};
  const auto inv = invert_permutation(perm);
  for (std::size_t i = 0; i < perm.size(); ++i) EXPECT_EQ(inv[perm[i]], i);

  const std::vector<std::size_t> dup = {0, 1, 1};
  EXPECT_THROW(invert_permutation(dup), std::invalid_argument);
  const std::vector<std::size_t> oob = {0, 1, 5};
  EXPECT_THROW(invert_permutation(oob), std::invalid_argument);
}

TEST(ReorderTest, OrderingsArePermutationsAndReduceBandwidth) {
  const std::size_t n = 64;
  const auto label = stride_shuffle(n, 29, 3);
  const CsrMatrix a = shuffled_banded(n, label);
  const std::size_t before = bandwidth(a);
  ASSERT_GT(before, 8u);  // the shuffle really scattered the band

  const auto rcm = rcm_permutation(a);
  expect_is_permutation(rcm, n);
  const CsrMatrix a_rcm = permute_symmetric(a, rcm);
  EXPECT_LT(bandwidth(a_rcm), before);
  // RCM on a path graph should recover an (almost) tridiagonal band.
  EXPECT_LE(bandwidth(a_rcm), 2u);

  // No relabelling of a path beats bandwidth 1: two off-diagonals a row.
  EXPECT_EQ(bandwidth_lower_bound(a), 1u);
  EXPECT_EQ(bandwidth_lower_bound(a_rcm), 1u);

  // Determinism: same input, same permutation.
  EXPECT_EQ(rcm, rcm_permutation(a));
}

TEST(ReorderTest, BandwidthLowerBoundCountsTheBusiestRow) {
  // Star: row 0 reaches 5 other states, so some state is >= 3 away from it
  // under any labelling; the diagonal never counts.
  std::vector<Triplet> star;
  for (std::size_t c = 0; c < 6; ++c) star.push_back({0, c, 1.0});
  EXPECT_EQ(bandwidth_lower_bound(CsrMatrix::from_triplets(6, 6, star)), 3u);
  EXPECT_EQ(bandwidth_lower_bound(CsrMatrix::identity(4)), 0u);
  EXPECT_EQ(bandwidth(CsrMatrix::identity(4)), 0u);
}

TEST(ReorderTest, PermuteSymmetricRemapsValuesAndPreservesRowOrder) {
  const std::size_t n = 12;
  const auto label = stride_shuffle(n, 5, 1);
  const CsrMatrix a = shuffled_banded(n, label);
  const auto perm = rcm_permutation(a);
  const auto inv = invert_permutation(perm);
  const CsrMatrix b = permute_symmetric(a, perm);

  ASSERT_EQ(b.rows(), n);
  ASSERT_EQ(b.nnz(), a.nnz());
  // Value correctness: B(r, c) == A(perm[r], perm[c]).
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      EXPECT_EQ(b.at(r, c), a.at(perm[r], perm[c])) << r << "," << c;

  // Within-row order preservation: row r of B lists the same VALUES in the
  // same sequence as row perm[r] of A (columns remapped, never re-sorted).
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t src = perm[r];
    const std::size_t len = a.row_ptr()[src + 1] - a.row_ptr()[src];
    ASSERT_EQ(b.row_ptr()[r + 1] - b.row_ptr()[r], len);
    for (std::size_t k = 0; k < len; ++k) {
      EXPECT_EQ(b.values()[b.row_ptr()[r] + k], a.values()[a.row_ptr()[src] + k]);
      EXPECT_EQ(b.col_idx()[b.row_ptr()[r] + k],
                inv[a.col_idx()[a.row_ptr()[src] + k]]);
    }
  }
}

TEST(ReorderTest, FromUnsortedPartsSupportsUnsortedColumns) {
  // 2x3 matrix with row 0 stored as columns {2, 0} — deliberately unsorted.
  std::vector<std::size_t> row_ptr = {0, 2, 3};
  std::vector<std::size_t> col_idx = {2, 0, 1};
  std::vector<double> values = {5.0, 7.0, 11.0};
  const CsrMatrix m =
      CsrMatrix::from_unsorted_parts(2, 3, row_ptr, col_idx, values);
  EXPECT_FALSE(m.columns_sorted());
  EXPECT_EQ(m.at(0, 0), 7.0);
  EXPECT_EQ(m.at(0, 1), 0.0);
  EXPECT_EQ(m.at(0, 2), 5.0);
  EXPECT_EQ(m.at(1, 1), 11.0);

  // Sorted input through the same factory keeps the sorted flag.
  const CsrMatrix s = CsrMatrix::from_unsorted_parts(
      2, 3, {0, 2, 3}, {0, 2, 1}, {7.0, 5.0, 11.0});
  EXPECT_TRUE(s.columns_sorted());

  // Duplicate columns within a row are rejected either way.
  EXPECT_THROW(CsrMatrix::from_unsorted_parts(1, 3, {0, 2}, {2, 2}, {1.0, 2.0}),
               std::invalid_argument);
  // The strict constructor still rejects unsorted columns outright.
  EXPECT_THROW(CsrMatrix(2, 3, {0, 2, 3}, {2, 0, 1}, {5.0, 7.0, 11.0}),
               std::invalid_argument);
}

TEST(ReorderTest, PermutedSpmvRoundTripsBitExactly) {
  const std::size_t n = 48;
  const auto label = stride_shuffle(n, 11, 7);
  const CsrMatrix a = shuffled_banded(n, label);
  const auto perm = rcm_permutation(a);
  const CsrMatrix b = permute_symmetric(a, perm);

  Vec x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = 0.1 + 1.0 / static_cast<double>(i + 1);

  Vec y_ref(n, 0.0);
  a.multiply(x, y_ref);

  // Permute input, multiply with the reordered matrix, un-permute output.
  const Vec x_p = permute_vector(x, perm);
  Vec y_p(n, 0.0);
  b.multiply(x_p, y_p);
  Vec y_back(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) y_back[perm[i]] = y_p[i];

  // Bit-exact, not just close: each row's accumulation chain is unchanged.
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(y_back[i], y_ref[i]) << i;
}

TEST(ReorderTest, UnpermutePanelRowsInvertsRowGather) {
  const std::size_t n = 9, w = 4;
  const auto perm = stride_shuffle(n, 4, 2);  // gcd(4, 9) == 1: a permutation
  Panel p(n, w);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < w; ++j)
      p(i, j) = static_cast<double>(i * 100 + j);

  // Gather rows by perm, then unpermute: must restore the original panel.
  Panel gathered(n, w);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < w; ++j) gathered(i, j) = p(perm[i], j);
  const Panel restored = unpermute_panel_rows(gathered, perm);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < w; ++j) EXPECT_EQ(restored(i, j), p(i, j));
}

// ---------------------------------------------------------------------------
// Solver-level round trip: reordered solves must be bit-identical to the
// unreordered solve — the whole point of the original-row-order contract.
// ---------------------------------------------------------------------------

SecondOrderMrm shuffled_chain_model(std::size_t n) {
  const auto label = stride_shuffle(n, 17, 5);
  std::vector<Triplet> rates;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    rates.push_back({label[i], label[i + 1], 1.0 + 0.25 * static_cast<double>(i)});
    rates.push_back({label[i + 1], label[i], 2.0 + 0.125 * static_cast<double>(i)});
  }
  auto gen = ctmc::Generator::from_rates(n, rates);
  Vec drifts(n), vars(n), initial(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    drifts[label[i]] = static_cast<double>(n - i) * 0.5;
    vars[label[i]] = 0.3 * static_cast<double>(i + 1);
  }
  initial[label[0]] = 0.25;
  initial[label[n / 2]] = 0.75;
  return SecondOrderMrm(std::move(gen), std::move(drifts), std::move(vars),
                        std::move(initial));
}

/// Pure-birth chain (state i moves to i+1 only; the last is absorbing),
/// banded or relabelled by @p label. Every row of Q' (and of each impulse
/// matrix) holds at most two stored entries, and a two-term sum rounds the
/// same in either order, so the relabelled chain's per-state moments are
/// bit-identical to the banded chain's under the relabelling: a reference
/// the sweep computes WITHOUT reordering for a model it DOES reorder.
SecondOrderMrm pure_birth_chain(const std::vector<std::size_t>& label) {
  const std::size_t n = label.size();
  std::vector<Triplet> rates;
  for (std::size_t i = 0; i + 1 < n; ++i)
    rates.push_back({label[i], label[i + 1], 1.0 + 0.25 * static_cast<double>(i)});
  Vec drifts(n), vars(n), initial(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    drifts[label[i]] = static_cast<double>(n - i) * 0.5;
    vars[label[i]] = 0.3 * static_cast<double>(i + 1);
  }
  initial[label[0]] = 1.0;
  return SecondOrderMrm(ctmc::Generator::from_rates(n, rates), std::move(drifts),
                        std::move(vars), std::move(initial));
}

void expect_relabelled_bits(const MomentResult& banded,
                            const MomentResult& shuffled,
                            const std::vector<std::size_t>& label,
                            const char* what) {
  ASSERT_EQ(banded.per_state.size(), shuffled.per_state.size()) << what;
  EXPECT_EQ(banded.truncation_point, shuffled.truncation_point) << what;
  for (std::size_t j = 0; j < banded.per_state.size(); ++j)
    for (std::size_t i = 0; i < label.size(); ++i)
      EXPECT_EQ(shuffled.per_state[j][label[i]], banded.per_state[j][i])
          << what << " moment " << j << " state " << i;
  EXPECT_EQ(banded.stats.reorder, "none") << what;
  EXPECT_EQ(shuffled.stats.reorder, "rcm") << what;
}

TEST(ReorderTest, SolverRoundTripIsBitIdentical) {
  // The sweep reorders the relabelled chain by RCM and permutes its panels
  // back; the banded chain is swept in its own order. Plain (one and three
  // time points), terminal-weighted and impulse solves must agree bit for
  // bit, state by state.
  const std::size_t n = 40;
  std::vector<std::size_t> identity(n);
  std::iota(identity.begin(), identity.end(), std::size_t{0});
  const auto label = stride_shuffle(n, 17, 5);
  const RandomizationMomentSolver banded(pure_birth_chain(identity));
  const RandomizationMomentSolver shuffled(pure_birth_chain(label));

  MomentSolverOptions opts;
  opts.max_moment = 3;
  opts.epsilon = 1e-10;
  const std::vector<double> times = {0.3, 1.1, 2.7};
  const auto ref = banded.solve_multi(times, opts);
  const auto got = shuffled.solve_multi(times, opts);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t ti = 0; ti < ref.size(); ++ti)
    expect_relabelled_bits(ref[ti], got[ti], label, "plain");

  Vec w_banded(n), w_shuffled(n);
  for (std::size_t i = 0; i < n; ++i) {
    w_banded[i] = 0.25 + static_cast<double>(i % 4);
    w_shuffled[label[i]] = w_banded[i];
  }
  expect_relabelled_bits(banded.solve_terminal_weighted(0.9, w_banded, opts),
                         shuffled.solve_terminal_weighted(0.9, w_shuffled, opts),
                         label, "weighted");

  const auto impulse = [&](const RandomizationMomentSolver& s) {
    return core::ImpulseMomentSolver(
               core::SecondOrderImpulseMrm::uniform_impulse(s.model(), 0.4, 0.1))
        .solve(0.8, opts);
  };
  expect_relabelled_bits(impulse(banded), impulse(shuffled), label, "impulse");
}

std::int64_t rcm_runs() { return obs::metric("sweep.rcm").count(); }

TEST(ReorderTest, ReorderStatsReportBandwidthReduction) {
  // The shuffled chain's labelled band is 17 wide; the sweep applies RCM
  // because it recovers a narrower one.
  const RandomizationMomentSolver solver(shuffled_chain_model(32));
  MomentSolverOptions opts;
  opts.max_moment = 4;
  const std::int64_t runs0 = rcm_runs();
  const MomentResult res = solver.solve(1.0, opts);
  EXPECT_EQ(res.stats.reorder, "rcm");
  EXPECT_EQ(res.stats.bandwidth_before, 17u);
  EXPECT_LT(res.stats.bandwidth_after, res.stats.bandwidth_before);
  if (obs::kEnabled) {
    EXPECT_EQ(rcm_runs() - runs0, 1);
  }

  // The impulse solver runs on the same sweep core, so the reorder applies
  // to it too (Q' and every impulse matrix permuted alike).
  const MomentResult imp =
      core::ImpulseMomentSolver(core::SecondOrderImpulseMrm::uniform_impulse(
                                    solver.model(), 0.4, 0.1))
          .solve(1.0, opts);
  EXPECT_EQ(imp.stats.reorder, "rcm");
  EXPECT_EQ(imp.stats.bandwidth_before, res.stats.bandwidth_before);
  EXPECT_EQ(imp.stats.bandwidth_after, res.stats.bandwidth_after);
}

TEST(ReorderTest, NoReorderStatsReportActualBandwidthNotStaleZeros) {
  // The Table-1 multiplexer is tridiagonal: its bandwidth 1 already meets
  // bandwidth_lower_bound, so the sweep skips the RCM pass altogether. The
  // stats still carry the matrix's real bandwidth on both fields (not
  // default-initialized zeros). Regression test: the impulse solver used to
  // leave both fields at 0 on this path.
  const auto model = models::make_onoff_multiplexer(models::table1_params(1.0));
  MomentSolverOptions opts;
  opts.max_moment = 4;
  const std::int64_t runs0 = rcm_runs();

  const MomentResult rand_res =
      RandomizationMomentSolver(model).solve(0.5, opts);
  EXPECT_EQ(rand_res.stats.reorder, "none");
  EXPECT_EQ(rand_res.stats.bandwidth_before, 1u);
  EXPECT_EQ(rand_res.stats.bandwidth_after, rand_res.stats.bandwidth_before);

  const MomentResult imp_res =
      core::ImpulseMomentSolver(
          core::SecondOrderImpulseMrm::uniform_impulse(model, 0.4, 0.1))
          .solve(0.5, opts);
  EXPECT_EQ(imp_res.stats.reorder, "none");
  EXPECT_EQ(imp_res.stats.bandwidth_before, 1u);
  EXPECT_EQ(imp_res.stats.bandwidth_after, imp_res.stats.bandwidth_before);
  EXPECT_EQ(rcm_runs(), runs0) << "RCM ran on a chain it cannot narrow";
}

/// Random walk on a @p side x @p side grid of states, numbered row by row:
/// bandwidth side, above the lower bound 2 (four neighbours a state).
SecondOrderMrm grid_walk(std::size_t side) {
  std::vector<Triplet> rates;
  const auto id = [side](std::size_t r, std::size_t c) { return r * side + c; };
  for (std::size_t r = 0; r < side; ++r)
    for (std::size_t c = 0; c < side; ++c) {
      if (c + 1 < side) {
        rates.push_back({id(r, c), id(r, c + 1), 1.0});
        rates.push_back({id(r, c + 1), id(r, c), 0.5});
      }
      if (r + 1 < side) {
        rates.push_back({id(r, c), id(r + 1, c), 0.75});
        rates.push_back({id(r + 1, c), id(r, c), 1.25});
      }
    }
  const std::size_t n = side * side;
  Vec drifts(n), vars(n, 0.2);
  for (std::size_t i = 0; i < n; ++i) drifts[i] = 0.1 * static_cast<double>(i);
  Vec initial(n, 0.0);
  initial[0] = 1.0;
  return SecondOrderMrm(ctmc::Generator::from_rates(n, rates), std::move(drifts),
                        std::move(vars), std::move(initial));
}

TEST(ReorderTest, RcmThatDoesNotNarrowTheBandIsNotApplied) {
  // The 4x4 grid's band (4) sits above the lower bound (2), so the sweep
  // runs RCM; RCM relabels the states (a Cuthill-McKee order from a corner
  // is not the row-by-row one) but reaches only bandwidth 4 again, so the
  // sweep keeps the model's order.
  const auto model = grid_walk(4);
  const CsrMatrix q = core::scale_model(model).q_prime;
  ASSERT_EQ(bandwidth(q), 4u);
  ASSERT_EQ(bandwidth_lower_bound(q), 2u);
  const auto rcm = rcm_permutation(q);
  ASSERT_FALSE(std::is_sorted(rcm.begin(), rcm.end())) << "RCM relabels";
  ASSERT_EQ(bandwidth(permute_symmetric(q, rcm)), 4u) << "but does not narrow";

  MomentSolverOptions opts;
  opts.max_moment = 3;
  const std::int64_t runs0 = rcm_runs();
  const MomentResult res = RandomizationMomentSolver(model).solve(0.7, opts);
  EXPECT_EQ(res.stats.reorder, "none");
  EXPECT_EQ(res.stats.bandwidth_after, res.stats.bandwidth_before);
  if (obs::kEnabled) {
    EXPECT_EQ(rcm_runs() - runs0, 1);
  }
}

}  // namespace
}  // namespace somrm::linalg
