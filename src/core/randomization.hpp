// somrm/core/randomization.hpp
//
// The paper's headline algorithm (Theorems 3 and 4): randomization-based
// computation of the raw moments of the accumulated reward B(t) of a
// second-order Markov reward model.
//
//   V^(n)(t) = n! d^n sum_{k=0..inf} Pois(k; qt) U^(n)(k)
//   U^(n)(k+1) = R' U^(n-1)(k) + 1/2 S' U^(n-2)(k) + Q' U^(n)(k)
//
// with the sub-stochastic matrices of core/scaling.hpp and the truncation
// point G(epsilon) of Theorem 4. The recursion multiplies only non-negative
// matrices and vectors — no subtractions, hence no cancellation — and each
// iteration costs (m+2) vector-vector products per moment (m = mean
// non-zeros per row of Q'), exactly the complexity the paper reports.
//
// Implementation notes beyond the paper:
//  * The sweep is a fused, row-parallel panel kernel: the iterates
//    U^(0..n)(k) are stored as one contiguous row-major linalg::Panel
//    (P[state][moment]) and each step computes Q'U + R'U¯¹ + ½S'U¯² for all
//    moment orders AND the Poisson-weighted accumulation for all time
//    points in ONE pass over the CSR structure — every matrix entry is
//    loaded once and multiplied against the row's n+1 contiguous doubles,
//    which sit in lane-pack registers (linalg/lanes.hpp) from the dot
//    product to the accumulation, instead of re-streaming the
//    row_ptr/col_idx/values arrays once per moment order
//    (linalg::parallel_for; thread count via SOMRM_NUM_THREADS or
//    linalg::set_num_threads). One row kernel runs every sweep: plain,
//    terminal-weighted and impulse, at every width. Outputs are row-owned
//    and the per-element accumulation order is fixed, so results are
//    bit-identical for every thread count and SIMD level;
//    tests/test_golden_bits.cpp pins them. The same sweep core
//    (core/sweep_core.hpp) runs the impulse solver.
//  * Poisson weights come from per-time-point mode-centered weight tables
//    (prob::poisson_weight_window, one lgamma per time point) and the
//    Theorem-4 tail test is evaluated in log space, so qt ~ 40,000 (the
//    paper's large example) cannot underflow.
//  * Negative drifts are shifted out and the returned moments are mapped
//    back through the binomial expansion (the shift is pathwise exact).
//  * Several accumulation times can share one sweep of the U-recursion: the
//    iterates U^(n)(k) do not depend on t, only the Poisson weights do. This
//    makes the Figure-8 five-point evaluation one pass instead of five.
//  * U^(0)(k) = h for all k because Q' is stochastic; the j = 0 matvec is
//    skipped and V^(0) is exact by construction.
//  * The truncation point is the max of the Theorem-4 G over all requested
//    moment orders 0..n, so every returned moment honours epsilon.
//  * A model whose state numbering scatters neighbours (an externally
//    loaded model, say) is swept in reverse Cuthill–McKee order whenever
//    that strictly narrows Q''s band; the panels are permuted back, so the
//    reorder is invisible in the output bits (linalg/reorder.hpp,
//    SolverStats::reorder).

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/model.hpp"
#include "core/scaling.hpp"
#include "linalg/panel.hpp"
#include "linalg/vec.hpp"
#include "obs/telemetry.hpp"

namespace somrm::core {

struct MomentSolverOptions {
  /// Highest moment order n to compute (all orders 0..n are returned).
  std::size_t max_moment = 3;
  /// Theorem-4 absolute error budget epsilon per state and moment.
  double epsilon = 1e-9;
  /// Scaling of R'/S' — see core/scaling.hpp. kSafe keeps the error bound
  /// valid; kPaper reproduces the constants printed in the paper.
  DriftScalePolicy scale_policy = DriftScalePolicy::kSafe;
  /// Reward offset per unit time: the solver returns moments of
  /// B(t) - center * t (pathwise exact). Centering near E[B(t)]/t yields
  /// near-central high-order moments directly from the subtraction-free
  /// recursion, avoiding the catastrophic cancellation of binomially
  /// converting raw moments — essential when feeding 20+ moments into the
  /// distribution-bound module (Figures 5-7). 0 = plain raw moments.
  double center = 0.0;
};

/// Result of a moment computation at one time point.
struct MomentResult {
  double time = 0.0;
  /// per_state[j][i] = V_i^(j)(t) = E[B(t)^j | Z(0) = i], j = 0..max_moment.
  std::vector<linalg::Vec> per_state;
  /// weighted[j] = pi . V^(j)(t) = E[B(t)^j] under the model's initial
  /// distribution.
  linalg::Vec weighted;
  /// Theorem-4 truncation point actually used.
  std::size_t truncation_point = 0;
  /// Theorem-4 error bound achieved at the truncation point for the highest
  /// moment — the (4 d qt)^n variant for ImpulseMomentSolver — (0 when it
  /// underflows double range).
  double error_bound = 0.0;
  /// Scaling constants for diagnostics (match section 6 / Table 2 notes).
  double q = 0.0;
  double d = 0.0;
  double shift = 0.0;
  /// The centering used: moments are of B(t) - center * time.
  double center = 0.0;
  /// Per-solve telemetry: kernel, Theorem-4 G per moment order, Poisson
  /// window widths, sweep phase timings and throughput. The structural
  /// fields are always filled; timings are zero when the library was built
  /// with -DSOMRM_OBSERVABILITY=OFF. For a multi-time solve every result
  /// carries the shared sweep's stats.
  obs::SolverStats stats;
};

/// Validates solver inputs shared by the randomization solvers, throwing
/// std::invalid_argument with a message naming @p caller and the offending
/// value: the time list must be non-empty, strictly increasing (duplicate
/// or unsorted time points would silently build redundant Poisson weight
/// windows and break the per-time truncation bookkeeping) with every t
/// finite and >= 0, epsilon finite and positive, and center finite. Called
/// up front by solve_multi / solve / solve_terminal_weighted / SolveSession
/// (and the impulse solver) so bad options fail fast instead of surfacing
/// as downstream NaNs.
void validate_solver_inputs(std::span<const double> times,
                            const MomentSolverOptions& options,
                            const char* caller);

/// The retained product of one U-recursion sweep: the Poisson-weighted
/// accumulator panels acc[ti](i, j) = sum_k Pois(k; q t_ti) U^(j)(k)_i in
/// SCALED units (the j! d^j factor, the seed normalization and the drift
/// shift are NOT yet applied), plus every scalar finalize_from_sweep needs
/// to turn them into a MomentResult. The panels are independent of the
/// initial vector pi — pi only enters through the final contraction — so a
/// single retained sweep answers every (pi, moment order <= max_moment)
/// query on its time grid. This is what SolveSession caches.
struct RetainedSweep {
  /// The solve key: time grid and options the sweep was run with.
  std::vector<double> times;
  std::size_t max_moment = 0;
  double epsilon = 0.0;
  double center = 0.0;
  /// Scaling constants of the sweep (see core/scaling.hpp).
  double q = 0.0;
  double d = 0.0;
  double shift = 0.0;
  /// Seed normalization to undo at finalize: w_max for a terminal-weighted
  /// sweep, 1 for the plain sweep (and for the degenerate closed form,
  /// whose panels already hold final values).
  double prefactor = 1.0;
  /// True when the sweep was seeded with terminal weights w (the Jensen
  /// consistency probe of checked builds does not apply then).
  bool terminal_weighted = false;
  /// True for the q == 0 closed form: acc holds the FINAL per-state moments
  /// (Brownian closed form, weights already applied) and finalize only
  /// contracts with pi.
  bool degenerate = false;
  /// Theorem-4 truncation point and achieved error bound per time point
  /// (computed at max_moment; empty for the degenerate closed form).
  std::vector<std::size_t> truncation_points;
  std::vector<double> error_bounds;
  /// One num_states x (max_moment + 1) panel per time point.
  std::vector<linalg::Panel> acc;
  /// Sweep-phase telemetry (scale/truncation/window/sweep timings); finalize
  /// and total timings are filled per query by the callers.
  obs::SolverStats stats;

  std::size_t num_states() const { return acc.empty() ? 0 : acc[0].rows(); }
  /// Approximate heap footprint, used for the SweepCache byte budget.
  std::size_t byte_size() const;
};

/// True when two retained sweeps carry bit-identical solver payloads: time
/// grid, scalars, flags, truncation points, error bounds, and every
/// accumulator panel compare equal BY BIT PATTERN (doubles via memcmp, so
/// NaN payloads compare too) — the snapshot round-trip contract. The
/// sweep-phase SolverStats are excluded: wall-clock telemetry, not solver
/// state, and never consulted by finalize_from_sweep's arithmetic.
bool bit_identical(const RetainedSweep& a, const RetainedSweep& b);

/// Finalizes one (time point, initial vector, moment order) query from a
/// retained sweep: extracts the first @p max_moment + 1 accumulator
/// columns, applies the prefactor * j! d^j factor, undoes the drift shift,
/// and contracts with @p initial. The arithmetic chain is exactly the one
/// solve_multi / solve_terminal_weighted run, so for max_moment ==
/// sweep.max_moment the result is bit-identical to an independent solve;
/// for a lower order it is bit-identical to the independent solve at the
/// SWEEP's max_moment truncated to the first max_moment + 1 entries (the
/// binomial shift transform is lower-triangular, so lower orders do not
/// depend on higher ones). truncation_point / error_bound always report the
/// sweep's max-order values. Throws std::invalid_argument on an
/// out-of-range time index, order > sweep.max_moment, or an initial vector
/// of the wrong size.
MomentResult finalize_from_sweep(const RetainedSweep& sweep,
                                 std::size_t time_index,
                                 std::span<const double> initial,
                                 std::size_t max_moment);

class RandomizationMomentSolver {
 public:
  explicit RandomizationMomentSolver(SecondOrderMrm model);

  /// Moments at a single time point t >= 0.
  MomentResult solve(double t, const MomentSolverOptions& options = {}) const;

  /// Moments at several time points with one shared U-recursion sweep.
  /// Times must be non-negative; results are returned in input order.
  std::vector<MomentResult> solve_multi(
      std::span<const double> times,
      const MomentSolverOptions& options = {}) const;

  /// Terminal-weighted moments: per_state[j][i] = E[ B(t)^j w(Z(t)) |
  /// Z(0)=i ] for an arbitrary non-negative weight vector w over the final
  /// state. Special cases: w = 1 recovers solve(); w = e_k yields the
  /// joint quantity E[B^j ; Z(t)=k], from which conditional moments given
  /// the final state follow by division. Implemented by seeding the
  /// Theorem-3 recursion with U^(0)(0) = w' (w scaled by its max so the
  /// sub-stochastic error bound still applies; the scale is undone on
  /// output). Requires w >= 0 and max w > 0.
  ///
  /// Only centering via options.center is supported here; negative drifts
  /// are handled by the same shift transform as solve().
  MomentResult solve_terminal_weighted(
      double t, std::span<const double> terminal_weights,
      const MomentSolverOptions& options = {}) const;

  /// Runs the U-recursion sweep once over @p times and returns the retained
  /// accumulator panels instead of finalized results — the shareable,
  /// pi-independent part of solve_multi (empty @p terminal_weights) or of
  /// solve_terminal_weighted (non-empty weights, validated like
  /// solve_terminal_weighted). Both solve paths are implemented on top of
  /// this, so finalize_from_sweep(sweep_retained(...)) is bit-identical to
  /// them at every thread count. SolveSession caches the returned value.
  RetainedSweep sweep_retained(
      std::span<const double> times, const MomentSolverOptions& options = {},
      std::span<const double> terminal_weights = {}) const;

  /// Theorem 4: smallest G with
  ///   2 d^n n! (qt)^n sum_{k=G+n+1..inf} Pois(k; qt) < epsilon.
  /// Computed fully in log space. Returns 0 when qt == 0 or d == 0.
  static std::size_t truncation_point(double qt, std::size_t n, double d,
                                      double epsilon);

  const SecondOrderMrm& model() const { return model_; }

 private:
  SecondOrderMrm model_;
};

}  // namespace somrm::core
