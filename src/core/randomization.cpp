#include "core/randomization.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/invariants.hpp"
#include "core/moment_utils.hpp"
#include "core/solver_telemetry.hpp"
#include "core/sweep_core.hpp"
#include "linalg/lanes.hpp"
#include "linalg/panel.hpp"
#include "linalg/parallel.hpp"
#include "linalg/reorder.hpp"
#include "linalg/simd.hpp"
#include "obs/trace.hpp"
#include "prob/normal.hpp"
#include "prob/poisson.hpp"

namespace somrm::core {

namespace {

/// log(2 d^n n! (qt)^n) — the Theorem-4 prefactor in log space.
double log_theorem4_prefactor(double qt, std::size_t n, double d) {
  const double nn = static_cast<double>(n);
  return std::log(2.0) + nn * std::log(d) + prob::log_factorial(n) +
         nn * std::log(qt);
}

/// Theorem-4 tail bound achieved at truncation point @p g for moment order
/// @p n (0 when the tail underflows double range).
double theorem4_error_bound(double qt, std::size_t n, double d,
                            std::size_t g) {
  const double log_bound =
      (n == 0 ? std::log(2.0) : log_theorem4_prefactor(qt, n, d)) +
      prob::log_poisson_tail(qt, g + 1 >= n ? g + 1 - n : 0);
  return std::exp(log_bound);
}

/// A time point whose Poisson weight at the current step k is non-zero.
struct ActiveWeight {
  std::size_t ti;
  double w;
};

/// Minimum rows per parallel range for the step kernels. Each row costs
/// (nnz_row + 4) * n_moments flops, so ranges of ~1k rows amortize the pool
/// hand-off while still splitting four ways at 10k states.
constexpr std::size_t kFusedGrain = 1024;

/// A scaled impulse-moment matrix A~_l with at least one stored entry.
struct ImpulseTerm {
  std::size_t l;
  const linalg::CsrMatrix* mat;
};

/// What one recursion step reads and writes, resolved once per step.
struct StepArgs {
  const ScaledModel* scaled = nullptr;
  /// The A~_l with nnz() > 0, in ascending l (empty for non-impulse sweeps).
  std::span<const ImpulseTerm> impulse{};
  const double* u = nullptr;  // U(k), row-major, width doubles per state
  double* u_next = nullptr;   // U(k+1), same layout
  std::size_t width = 0;      // n + 1
  std::span<const ActiveWeight> active{};
  std::span<double* const> acc{};  // acc panel base per active weight
};

/// Calls f.template operator()<B>() for the runtime lane count (or lane
/// shift) b in 1..8.
template <class F>
void with_lanes(std::size_t b, F&& f) {
  switch (b) {
    case 1: return f.template operator()<1>();
    case 2: return f.template operator()<2>();
    case 3: return f.template operator()<3>();
    case 4: return f.template operator()<4>();
    case 5: return f.template operator()<5>();
    case 6: return f.template operator()<6>();
    case 7: return f.template operator()<7>();
    default: return f.template operator()<8>();
  }
}

/// One lane block of one row of the recursion step: lane c of a
/// Lanes<B> pack holds order j = o + c with o = JLO + c0 (kFirst: c0 == 0),
/// and the row's
///   u_next(i, j) = (Q' u)(i, j) + R'_i u(i, j-1) + 1/2 S'_i u(i, j-2)
///                  + sum_{l=1..j} (A~_l u)(i, j-l)
/// is formed in registers, stored, and accumulated into every active acc
/// panel. A term reading order j - l comes from x + (o - l) when l <= o,
/// and otherwise at lane shift M = l - o from x itself, lanes below M left
/// untouched (the orders j < l the term does not reach). Each order is its
/// own chain and the only value read across lanes is the source rows of u,
/// final for this step, so the lanes vectorize with no cross-lane
/// dependency and every Lanes instantiation gives the same bits. Per
/// element: the Q' dot product in entry order, then + R', then + ½S', then
/// each A~_l in ascending l, summed over the row's entries in its own
/// zeroed pack before the add, then acc += w * value.
template <std::size_t B, std::size_t JLO, bool kFirst, bool kImpulse,
          template <std::size_t> class Lanes>
inline void step_block(const StepArgs& a, std::size_t w, std::size_t i,
                       std::size_t c0) {
  const double* u = a.u;
  const double* ui = u + i * w;
  const std::size_t o = JLO + c0;
  Lanes<B> s;
  a.scaled->q_prime.visit_row(
      i, [&](std::size_t col, double v) { s.add_product(v, u + col * w + o); });
  const double r = a.scaled->r_prime[i];
  const double half_s = 0.5 * a.scaled->s_prime[i];
  if constexpr (kFirst) {
    s.template add_shifted<1 - JLO>(r, ui);
    s.template add_shifted<2 - JLO>(half_s, ui);
  } else {
    s.add_product(r, ui + o - 1);
    s.add_product(half_s, ui + o - 2);
  }
  if constexpr (kImpulse) {
    for (const ImpulseTerm& term : a.impulse) {
      if (term.l <= o) {
        Lanes<B> t;
        term.mat->visit_row(i, [&](std::size_t col, double v) {
          t.add_product(v, u + col * w + (o - term.l));
        });
        s.template add_from<0>(t);
      } else if (term.l - o < B) {
        with_lanes(term.l - o, [&]<std::size_t M>() {
          if constexpr (M < B) {
            Lanes<B> t;
            term.mat->visit_row(i, [&](std::size_t col, double v) {
              t.template add_shifted<M>(v, u + col * w);
            });
            s.template add_from<M>(t);
          }
        });
      } else {
        break;  // ascending l: no later term reaches this block either
      }
    }
  }
  s.store(a.u_next + i * w + o);
  for (std::size_t k = 0; k < a.active.size(); ++k)
    s.accumulate_into(a.active[k].w, a.acc[k] + i * w + o);
}

/// The fused row kernel for rows [row_begin, row_end) of one recursion step
/// over iterated orders JLO..n: one pass over each row's sparse entries and
/// one over the panels, the row's orders in registers throughout.
/// W = n + 1 in 1..8 is a compile-time width, one lane block; W == 0 takes
/// the width from @p args and walks the orders in blocks of 8 lanes, the last
/// block's lane count resolved to a compile-time one per block. kImpulse
/// adds the A~_l stage (impulse sweeps only), so the plain and weighted
/// instantiations carry none of it.
///
/// JLO == 1 (plain and impulse sweeps): column 0 of both panels is the
/// invariant ones column; it is never recomputed and its accumulation is
/// left to run_sweep, which sums the identical per-state chain once per
/// time point. JLO == 0 (terminal-weighted): column 0 iterates too.
template <std::size_t W, std::size_t JLO, bool kImpulse,
          template <std::size_t> class Lanes>
void panel_step_rows(const StepArgs& args, std::size_t row_begin,
                     std::size_t row_end) {
  // A local copy whose address never escapes: the lane stores (may_alias
  // vector types) then cannot force a reload of every field per row.
  const StepArgs a = args;
  if constexpr (W == 0) {
    const std::size_t w = a.width;
    const std::size_t lanes = w - JLO;  // >= 8: the width is at least 9
    for (std::size_t i = row_begin; i < row_end; ++i) {
      step_block<8, JLO, true, kImpulse, Lanes>(a, w, i, 0);
      for (std::size_t c0 = 8; c0 < lanes; c0 += 8)
        with_lanes(std::min<std::size_t>(8, lanes - c0),
                   [&]<std::size_t B>() {
                     step_block<B, JLO, false, kImpulse, Lanes>(a, w, i, c0);
                   });
    }
  } else if constexpr (W > JLO) {  // W == JLO: the n = 0 plain sweep
    for (std::size_t i = row_begin; i < row_end; ++i)
      step_block<W - JLO, JLO, true, kImpulse, Lanes>(a, W, i, 0);
  }
}

#if SOMRM_SIMD_X86
/// The AVX2 instantiation of panel_step_rows. flatten inlines the body, the
/// visit_row callbacks and the lane operations into this one AVX2 function
/// (see linalg/lanes.hpp); run only when the CPU has AVX2.
template <std::size_t W, std::size_t JLO, bool kImpulse>
__attribute__((target("avx2"), flatten)) void panel_step_rows_avx2(
    const StepArgs& a, std::size_t row_begin, std::size_t row_end) {
  panel_step_rows<W, JLO, kImpulse, linalg::Avx2Lanes>(a, row_begin, row_end);
}
#endif

using StepRowsFn = void (*)(const StepArgs&, std::size_t, std::size_t);

/// One (j_lo, impulse) row of kStepRows: entry 0 is the runtime width,
/// entry W the compile-time width W in 1..8.
template <bool kAvx2, std::size_t JLO, bool kImpulse, std::size_t... W>
constexpr std::array<StepRowsFn, sizeof...(W)> step_rows_table(
    std::index_sequence<W...>) {
#if SOMRM_SIMD_X86
  if constexpr (kAvx2) return {&panel_step_rows_avx2<W, JLO, kImpulse>...};
#endif
  return {&panel_step_rows<W, JLO, kImpulse, linalg::ScalarLanes>...};
}

/// Row kernels by [sweep][width <= 8 ? width : 0] for the terminal-weighted
/// (j_lo = 0), plain (j_lo = 1) and impulse (j_lo = 1) sweeps; kAvx2
/// selects the AVX2 instantiations (the scalar ones off x86-64).
template <bool kAvx2>
constexpr std::array<std::array<StepRowsFn, 9>, 3> kStepRows{
    step_rows_table<kAvx2, 0, false>(std::make_index_sequence<9>{}),
    step_rows_table<kAvx2, 1, false>(std::make_index_sequence<9>{}),
    step_rows_table<kAvx2, 1, true>(std::make_index_sequence<9>{})};

/// One row-parallel step of the recursion over the panel layout: the
/// iterates U^(j_lo..n)(k) live in the contiguous row-major panel u
/// (u(i, j) = U^(j)(k)_i) and @p rows forms u_next and folds the
/// Poisson-weighted accumulation acc[ti] += w * u_next into the same
/// per-row pass (panel_step_rows). Rows are owned by one range and the
/// per-element order is fixed, so results are bit-identical at every
/// thread count.
void panel_step(StepRowsFn rows, StepArgs args, linalg::Panel& u,
                linalg::Panel& u_next, std::vector<linalg::Panel>& acc) {
  // Per-weight destination base pointers, resolved once per step.
  std::vector<double*> acc_base(args.active.size());
  for (std::size_t a = 0; a < args.active.size(); ++a)
    acc_base[a] = acc[args.active[a].ti].data();
  args.u = u.data();
  args.u_next = u_next.data();
  args.acc = acc_base;
  linalg::parallel_for(
      u.rows(),
      [&](std::size_t row_begin, std::size_t row_end) {
        rows(args, row_begin, row_end);
      },
      kFusedGrain);
  u.swap(u_next);
}

/// True when the scaled recursion is numerically subtraction-free (all
/// R' >= 0, i.e. shift-mode scaling, and every impulse matrix A~_l >= 0 —
/// odd normal moments of a negative mean break the latter; S' is
/// non-negative by construction), which is when the checked build may
/// assert iterate non-negativity. Only evaluated in checked builds.
bool is_subtraction_free(const ScaledModel& scaled,
                         std::span<const linalg::CsrMatrix> impulse) {
  return check::kChecked &&
         std::all_of(scaled.r_prime.begin(), scaled.r_prime.end(),
                     [](double r) { return r >= 0.0; }) &&
         std::all_of(impulse.begin(), impulse.end(),
                     [](const linalg::CsrMatrix& a) {
                       return a.is_nonnegative(0.0);
                     });
}

/// Scratch for one row: registers at a compile-time size N, heap at N == 0.
template <class T, std::size_t N>
using RowBuf = std::conditional_t<N == 0, std::vector<T>, std::array<T, N>>;

/// finalize_from_sweep's one row-major pass over @p acc into @p out (sized
/// by the caller): per state, v = acc(i, j) * factor[j], the shift
/// transform sum_k coef[j][k] * v_k (kShifted), per_state[j][i] = v and
/// weighted[j] += pi_i * v. Each running sum adds the states left to right
/// like linalg::dot, and -ffp-contract=off keeps every product and sum
/// separately rounded, so the bits equal the column-wise scale, shift and
/// dot passes of an independent solve. W is the compile-time width, so the
/// row, the constants and the n + 1 sums live in registers; W == 0 takes
/// the width from @p out.
template <std::size_t W, bool kShifted>
void finalize_rows(const linalg::Panel& acc, const double* factor_in,
                   const double* coef_in, const double* initial,
                   MomentResult& out) {
  const std::size_t w = W == 0 ? out.weighted.size() : W;
  RowBuf<double, W> factor{}, sums{};
  RowBuf<double, W * W> coef{};
  RowBuf<double*, W> cols{};
  if constexpr (W == 0) {
    factor.resize(w);
    sums.resize(w);
    coef.resize(w * w);
    cols.resize(w);
  }
  std::copy_n(factor_in, w, factor.begin());
  if (kShifted) std::copy_n(coef_in, w * w, coef.begin());
  for (std::size_t j = 0; j < w; ++j) cols[j] = out.per_state[j].data();
  for (std::size_t i = 0; i < acc.rows(); ++i) {
    const double* row = acc.data() + i * acc.width();
    for (std::size_t j = 0; j < w; ++j) {
      double v = row[j] * factor[j];
      if constexpr (kShifted) {
        // Recomputing row[k] * factor[k] (the same rounding each time)
        // beats spilling a scaled-row array the compiler reloads unaligned.
        v = 0.0;
        for (std::size_t k = j + 1; k-- > 0;)
          v += coef[j * w + k] * (row[k] * factor[k]);
      }
      cols[j][i] = v;
      sums[j] += initial[i] * v;
    }
  }
  std::copy(sums.begin(), sums.end(), out.weighted.begin());
}

/// finalize_rows by [shifted][width]: entry W for widths 1..8 (moment
/// orders 0..7), entry 0 for wider panels.
template <bool kShifted, std::size_t... W>
constexpr auto finalize_rows_table(std::index_sequence<W...>) {
  return std::array{&finalize_rows<W, kShifted>...};
}
constexpr std::array kFinalizeRows{
    finalize_rows_table<false>(std::make_index_sequence<9>{}),
    finalize_rows_table<true>(std::make_index_sequence<9>{})};

/// The plain solves' sweep: scale_model, then the shared core with the
/// Theorem-3 recursion. @p terminal_weights empty selects the plain sweep,
/// non-empty the terminal-weighted one.
RetainedSweep run_plain_sweep(const SecondOrderMrm& model,
                              std::span<const double> times,
                              const MomentSolverOptions& options,
                              std::span<const double> terminal_weights,
                              const char* caller) {
  const std::int64_t t0 = obs::now_ns();
  detail::SweepSpec spec;
  spec.scaled = scale_model(model, options.scale_policy, options.center);
  spec.terminal_weights = terminal_weights;
  spec.caller = caller;
  return detail::run_sweep(model, times, options, std::move(spec), t0);
}

/// Validates a terminal-weight vector against the model, throwing with the
/// caller's name (shared by solve_terminal_weighted and sweep_retained).
void validate_terminal_weights(std::span<const double> weights,
                               std::size_t num_states, const char* caller) {
  const auto fail = [caller](const char* what) {
    throw std::invalid_argument(std::string(caller) + ": " + what);
  };
  if (weights.size() != num_states) fail("weight vector size mismatch");
  if (!linalg::is_nonnegative(weights)) fail("weights must be non-negative");
  if (!(linalg::max_elem(weights) > 0.0)) fail("weights must not be all zero");
}

}  // namespace

namespace detail {

TruncationRule theorem4_rule() {
  return {&RandomizationMomentSolver::truncation_point, &theorem4_error_bound};
}

RetainedSweep run_sweep(const SecondOrderMrm& model,
                        std::span<const double> times,
                        const MomentSolverOptions& options, SweepSpec spec,
                        std::int64_t t0) {
  const std::size_t n = options.max_moment;
  const std::size_t num_states = model.num_states();
  const std::span<const double> terminal_weights = spec.terminal_weights;
  const bool weighted = !terminal_weights.empty();
  const double w_max = weighted ? linalg::max_elem(terminal_weights) : 1.0;
  ScaledModel& scaled = spec.scaled;
  std::vector<linalg::CsrMatrix>& impulse = spec.impulse;
  const char* caller = spec.caller;

  RetainedSweep sweep;
  sweep.times.assign(times.begin(), times.end());
  sweep.max_moment = n;
  sweep.epsilon = options.epsilon;
  sweep.center = options.center;
  sweep.q = scaled.q;
  sweep.d = scaled.d;
  sweep.shift = scaled.shift;
  sweep.terminal_weighted = weighted;
  sweep.prefactor = weighted ? w_max : 1.0;

  obs::SolverStats& stats = sweep.stats;
  stats.threads = linalg::num_threads();
  stats.reorder = "none";
  stats.panel_width = n + 1;
  stats.scale_seconds = obs::seconds_between(t0, obs::now_ns());

  // Degenerate chain: no transitions ever happen (hence no impulses
  // either), so conditioned on Z(0) = i the reward is exactly a Brownian
  // motion with (r_i, sigma_i^2) and the moments are the closed-form normal
  // moments (times the terminal weight, which only sees the frozen state
  // Z(t) = Z(0) = i). The panels hold FINAL per-state values; finalize only
  // contracts with pi.
  if (scaled.q == 0.0) {
    sweep.degenerate = true;
    sweep.prefactor = 1.0;
    stats.kernel = "degenerate";
    stats.simd = "none";
    stats.panel_width = 0;
    sweep.acc.assign(times.size(), linalg::Panel(num_states, n + 1, 0.0));
    for (std::size_t ti = 0; ti < times.size(); ++ti) {
      for (std::size_t i = 0; i < num_states; ++i) {
        const auto m = prob::brownian_raw_moments(
            model.drifts()[i] - options.center, model.variances()[i],
            times[ti], n);
        const double wi = weighted ? terminal_weights[i] : 1.0;
        for (std::size_t j = 0; j <= n; ++j) sweep.acc[ti](i, j) = m[j] * wi;
      }
    }
    stats.total_seconds = obs::seconds_between(t0, obs::now_ns());
    return sweep;
  }

  // Bandwidth-reduction reorder (linalg/reorder.hpp): when reverse
  // Cuthill–McKee strictly narrows Q''s band, the sweep runs on the
  // permuted state space — Q', R', S' and every A~_l permuted alike — and
  // the retained panels are permuted back just before return.
  // permute_symmetric preserves every row's stored-entry order, so the
  // arithmetic chain — and hence every output bit — is the same either way;
  // only memory locality changes. No ordering beats bandwidth_lower_bound,
  // so a Q' already at it (the tridiagonal chains) skips the RCM pass.
  std::vector<std::size_t> perm;  // perm[new] = old; empty = no reorder
  stats.bandwidth_before = linalg::bandwidth(scaled.q_prime);
  stats.bandwidth_after = stats.bandwidth_before;
  if (stats.bandwidth_before > linalg::bandwidth_lower_bound(scaled.q_prime)) {
    static obs::Metric& rcm_metric = obs::metric("sweep.rcm");
    const std::int64_t rcm_t0 = obs::now_ns();
    std::vector<std::size_t> rcm = linalg::rcm_permutation(scaled.q_prime);
    linalg::CsrMatrix q_rcm = linalg::permute_symmetric(scaled.q_prime, rcm);
    const std::size_t band = linalg::bandwidth(q_rcm);
    if (band < stats.bandwidth_before) {
      scaled.q_prime = std::move(q_rcm);
      scaled.r_prime = linalg::permute_vector(scaled.r_prime, rcm);
      scaled.s_prime = linalg::permute_vector(scaled.s_prime, rcm);
      for (linalg::CsrMatrix& a : impulse)
        a = linalg::permute_symmetric(a, rcm);
      perm = std::move(rcm);
      stats.reorder = "rcm";
      stats.bandwidth_after = band;
    }
    const std::int64_t rcm_ns = obs::now_ns() - rcm_t0;
    rcm_metric.add(1, rcm_ns);
    stats.scale_seconds += static_cast<double>(rcm_ns) * 1e-9;
  }

  // Truncation per time point: honour epsilon for every moment order 0..n,
  // so take the max of the per-order G values. The per-order maxima over
  // the time points land in stats.truncation_points.
  const std::int64_t trunc_t0 = obs::now_ns();
  std::vector<std::size_t>& trunc = sweep.truncation_points;
  trunc.assign(times.size(), 0);
  sweep.error_bounds.assign(times.size(), 0.0);
  stats.truncation_points.assign(n + 1, 0);
  std::size_t g_max = 0;
  for (std::size_t ti = 0; ti < times.size(); ++ti) {
    const double qt = scaled.q * times[ti];
    std::size_t g = 0;
    for (std::size_t j = 0; j <= n; ++j) {
      const std::size_t gj = spec.rule.point(qt, j, scaled.d, options.epsilon);
      stats.truncation_points[j] = std::max(stats.truncation_points[j], gj);
      g = std::max(g, gj);
    }
    trunc[ti] = g;
    // Theorem 4 applies to the weighted sweep unchanged: the normalized
    // seed w/w_max is <= h, so Lemma 2's majorant still dominates.
    sweep.error_bounds[ti] = spec.rule.bound(qt, n, scaled.d, g);
    if constexpr (check::kChecked) {
      check::check_truncation_bound(
          sweep.error_bounds[ti],
          g > 0 ? spec.rule.bound(qt, n, scaled.d, g - 1)
                : sweep.error_bounds[ti],
          options.epsilon, g, caller);
    }
    g_max = std::max(g_max, g);
  }
  stats.truncation_seconds = obs::seconds_between(trunc_t0, obs::now_ns());
  const bool subtraction_free = is_subtraction_free(scaled, impulse);

  // Per-time-point Poisson weight tables, one lgamma each (mode-centered
  // multiplicative recurrence with left truncation).
  const std::int64_t window_t0 = obs::now_ns();
  std::vector<prob::PoissonWindow> windows(times.size());
  stats.window_widths.assign(times.size(), 0);
  for (std::size_t ti = 0; ti < times.size(); ++ti) {
    const double qt = scaled.q * times[ti];
    if (qt > 0.0) windows[ti] = prob::poisson_weight_window(qt, trunc[ti]);
    stats.window_widths[ti] = windows[ti].weights.size();
    obs::trace_counter("poisson.window_width",
                       static_cast<double>(windows[ti].weights.size()));
  }
  stats.window_seconds = obs::seconds_between(window_t0, obs::now_ns());

  // Section-6-style sweep cost: per step Q' streams against the iterated
  // lanes (the plain sweep's j = 0 column is invariant, j_lo = 1; the
  // weighted seed is not, j_lo = 0) and each impulse matrix A~_l against
  // the n+1-l lanes of its convolution band.
  const std::size_t j_lo = weighted ? 0 : 1;
  std::size_t flops_per_step = 2 * scaled.q_prime.nnz() * (n + 1 - j_lo);
  for (std::size_t l = 1; l <= impulse.size(); ++l)
    flops_per_step += 2 * impulse[l - 1].nnz() * (n + 1 - l);
  stats.sweep_steps = g_max;
  stats.sweep_flops = g_max * flops_per_step;

  // The step kernel is chosen once per sweep from the dispatch level, the
  // sweep kind and the width.
  const std::size_t width = n + 1;
  const linalg::simd::Level level = linalg::simd::active_level();
  const std::size_t sweep_kind = spec.impulse_recursion ? 2 : j_lo;
  const StepRowsFn rows =
      (level == linalg::simd::Level::kAvx2 ? kStepRows<true>
                                           : kStepRows<false>)
          [sweep_kind][width < kStepRows<false>[0].size() ? width : 0];
  std::vector<ImpulseTerm> impulse_terms;
  for (std::size_t l = 1; l <= impulse.size(); ++l)
    if (impulse[l - 1].nnz() > 0)
      impulse_terms.push_back(ImpulseTerm{l, &impulse[l - 1]});
  stats.kernel = spec.impulse_recursion ? "impulse_panel" : "panel";
  stats.simd = linalg::simd::level_name(level);

  linalg::Panel u(num_states, width, 0.0);
  linalg::Panel u_next(num_states, width, 0.0);
  for (std::size_t i = 0; i < num_states; ++i) {
    // Row i of the (possibly permuted) sweep is model state perm[i].
    u(i, 0) = weighted ? terminal_weights[perm.empty() ? i : perm[i]] / w_max
                       : 1.0;
  }
  if (!weighted) u_next.fill_col(0, 1.0);  // invariant column survives swaps
  sweep.acc.assign(times.size(), linalg::Panel(num_states, width, 0.0));
  std::vector<linalg::Panel>& acc = sweep.acc;
  // Plain sweep: acc(i, 0) = 0 + w_0 * 1 + sum_k w_k * 1 is one scalar
  // chain, the same for every state, so it is summed once per time point
  // here and filled at sweep end instead of per state (x * 1.0 == x
  // exactly, so the bits are those of the per-state chain).
  std::vector<double> ones_acc(weighted ? 0 : times.size(), 0.0);

  // k = 0 contribution.
  for (std::size_t ti = 0; ti < times.size(); ++ti) {
    const double qt = scaled.q * times[ti];
    const double w0 = qt > 0.0 ? windows[ti].weight(0) : 1.0;
    if (w0 == 0.0) continue;
    if (!weighted) {
      ones_acc[ti] += w0;
    } else {
      for (std::size_t i = 0; i < num_states; ++i)
        acc[ti](i, 0) += w0 * u(i, 0);
    }
  }

  const std::int64_t sweep_t0 = obs::now_ns();
  const std::int64_t busy0 = parallel_busy_metric().total_ns();
  std::vector<ActiveWeight> active;
  active.reserve(times.size());
  for (std::size_t k = 1; k <= g_max; ++k) {
    active.clear();
    for (std::size_t ti = 0; ti < times.size(); ++ti) {
      if (k > trunc[ti]) continue;
      const double w = windows[ti].weight(k);
      if (w != 0.0) active.push_back(ActiveWeight{ti, w});
    }
    stats.active_weight_sum += active.size();
    if (!weighted)
      for (const ActiveWeight& aw : active) ones_acc[aw.ti] += aw.w;
    const std::int64_t k_t0 = obs::now_ns();
    panel_step(rows,
               StepArgs{.scaled = &scaled,
                        .impulse = impulse_terms,
                        .width = width,
                        .active = active},
               u, u_next, acc);
    if constexpr (check::kChecked)
      check::check_sweep_panel(u, k, j_lo, subtraction_free,
                               /*apply_majorant=*/!spec.impulse_recursion,
                               caller);
    record_sweep_step(k_t0, k, active.size());
  }
  finish_sweep_stats(stats, sweep_t0, busy0);
  for (std::size_t ti = 0; ti < ones_acc.size(); ++ti)
    acc[ti].fill_col(0, ones_acc[ti]);

  if (!perm.empty()) {
    // Back to the model's state order: pure row moves, no arithmetic, so
    // nothing downstream can tell a reordered sweep ran.
    for (linalg::Panel& p : sweep.acc)
      p = linalg::unpermute_panel_rows(p, perm);
  }

  stats.total_seconds = obs::seconds_between(t0, obs::now_ns());
  return sweep;
}

std::vector<MomentResult> finalize_all(RetainedSweep& sweep,
                                       std::span<const double> initial,
                                       std::int64_t t0) {
  const std::int64_t finalize_t0 = obs::now_ns();
  std::vector<MomentResult> results;
  results.reserve(sweep.times.size());
  for (std::size_t ti = 0; ti < sweep.times.size(); ++ti)
    results.push_back(
        finalize_from_sweep(sweep, ti, initial, sweep.max_moment));
  sweep.stats.finalize_seconds =
      obs::seconds_between(finalize_t0, obs::now_ns());
  sweep.stats.total_seconds = obs::seconds_between(t0, obs::now_ns());
  for (MomentResult& r : results) r.stats = sweep.stats;
  return results;
}

}  // namespace detail

void validate_solver_inputs(std::span<const double> times,
                            const MomentSolverOptions& options,
                            const char* caller) {
  const auto fail = [caller](const std::string& what) {
    throw std::invalid_argument(std::string(caller) + ": " + what);
  };
  if (times.empty()) fail("time list must not be empty");
  for (double t : times) {
    if (!(t >= 0.0) || !std::isfinite(t))
      fail("t must be finite and >= 0 (got " + std::to_string(t) + ")");
  }
  for (std::size_t i = 1; i < times.size(); ++i) {
    if (times[i] == times[i - 1])
      fail("duplicate time point (got " + std::to_string(times[i]) +
           " twice); time points must be strictly increasing");
    if (times[i] < times[i - 1])
      fail("time points must be sorted ascending (got " +
           std::to_string(times[i]) + " after " +
           std::to_string(times[i - 1]) + ")");
  }
  if (!(options.epsilon > 0.0) || !std::isfinite(options.epsilon))
    fail("epsilon must be finite and positive (got " +
         std::to_string(options.epsilon) + ")");
  if (!std::isfinite(options.center))
    fail("center must be finite (got " + std::to_string(options.center) +
         ")");
}

RandomizationMomentSolver::RandomizationMomentSolver(SecondOrderMrm model)
    : model_(std::move(model)) {}

std::size_t RandomizationMomentSolver::truncation_point(double qt,
                                                        std::size_t n,
                                                        double d,
                                                        double epsilon) {
  if (!(epsilon > 0.0))
    throw std::invalid_argument("truncation_point: epsilon must be positive");
  if (qt < 0.0) throw std::invalid_argument("truncation_point: negative qt");
  if (qt == 0.0) return 0;
  if (d == 0.0 && n > 0) return 0;  // all higher moments are exactly zero

  // Lemma 2 gives U^(n)(k) <= 2 k!/(k-n)!, so the truncation error is
  //   n! d^n sum_{k>G} Pois(k;qt) U^(n)(k)
  //     <= 2 n! d^n (qt)^n sum_{m >= G+1-n} Pois(m; qt)
  // (substituting m = k - n; the paper prints the tail from G+n+1, which is
  // an index-shift slip in the appendix — see DESIGN.md). Condition:
  // log_tail(G + 1 - n) < log(eps) - log_prefactor; for n == 0 the
  // prefactor is just log 2.
  const double log_prefactor =
      n == 0 ? std::log(2.0) : log_theorem4_prefactor(qt, n, d);
  const double log_target = std::log(epsilon) - log_prefactor;

  // poisson_truncation_point returns the smallest K with tail(K+1) < bound;
  // we need the smallest G with tail(G + 1 - n) < bound, i.e. G = K + n.
  const std::size_t k = prob::poisson_truncation_point(qt, log_target);
  return k + n;
}

MomentResult RandomizationMomentSolver::solve(
    double t, const MomentSolverOptions& options) const {
  const double times[] = {t};
  return solve_multi(times, options).front();
}

MomentResult RandomizationMomentSolver::solve_terminal_weighted(
    double t, std::span<const double> terminal_weights,
    const MomentSolverOptions& options) const {
  validate_terminal_weights(terminal_weights, model_.num_states(),
                            "solve_terminal_weighted");
  const double time_list[] = {t};
  validate_solver_inputs(time_list, options, "solve_terminal_weighted");

  const std::int64_t total_t0 = obs::now_ns();
  obs::TraceScope solve_scope("solve_terminal_weighted", "solver");

  RetainedSweep sweep = run_plain_sweep(model_, time_list, options,
                                        terminal_weights,
                                        "solve_terminal_weighted");
  return detail::finalize_all(sweep, model_.initial(), total_t0).front();
}

RetainedSweep RandomizationMomentSolver::sweep_retained(
    std::span<const double> times, const MomentSolverOptions& options,
    std::span<const double> terminal_weights) const {
  if (!terminal_weights.empty())
    validate_terminal_weights(terminal_weights, model_.num_states(),
                              "sweep_retained");
  validate_solver_inputs(times, options, "sweep_retained");
  return run_plain_sweep(model_, times, options, terminal_weights,
                         "sweep_retained");
}

bool bit_identical(const RetainedSweep& a, const RetainedSweep& b) {
  const auto doubles_equal = [](std::span<const double> x,
                                std::span<const double> y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
  const auto scalar_equal = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  if (!doubles_equal(a.times, b.times)) return false;
  if (a.max_moment != b.max_moment) return false;
  if (!scalar_equal(a.epsilon, b.epsilon) || !scalar_equal(a.center, b.center))
    return false;
  if (!scalar_equal(a.q, b.q) || !scalar_equal(a.d, b.d) ||
      !scalar_equal(a.shift, b.shift) ||
      !scalar_equal(a.prefactor, b.prefactor))
    return false;
  if (a.terminal_weighted != b.terminal_weighted ||
      a.degenerate != b.degenerate)
    return false;
  if (a.truncation_points != b.truncation_points) return false;
  if (!doubles_equal(a.error_bounds, b.error_bounds)) return false;
  if (a.acc.size() != b.acc.size()) return false;
  for (std::size_t t = 0; t < a.acc.size(); ++t) {
    const linalg::Panel& pa = a.acc[t];
    const linalg::Panel& pb = b.acc[t];
    if (pa.rows() != pb.rows() || pa.width() != pb.width()) return false;
    if (!doubles_equal(pa.span(), pb.span())) return false;
  }
  return true;
}

std::size_t RetainedSweep::byte_size() const {
  std::size_t bytes = sizeof(RetainedSweep);
  bytes += times.capacity() * sizeof(double);
  bytes += truncation_points.capacity() * sizeof(std::size_t);
  bytes += error_bounds.capacity() * sizeof(double);
  bytes += stats.truncation_points.capacity() * sizeof(std::size_t);
  bytes += stats.window_widths.capacity() * sizeof(std::size_t);
  for (const linalg::Panel& p : acc)
    bytes += p.rows() * p.width() * sizeof(double) + sizeof(linalg::Panel);
  return bytes;
}

MomentResult finalize_from_sweep(const RetainedSweep& sweep,
                                 std::size_t time_index,
                                 std::span<const double> initial,
                                 std::size_t max_moment) {
  if (time_index >= sweep.times.size())
    throw std::invalid_argument(
        "finalize_from_sweep: time index " + std::to_string(time_index) +
        " out of range (sweep holds " + std::to_string(sweep.times.size()) +
        " time points)");
  if (max_moment > sweep.max_moment)
    throw std::invalid_argument(
        "finalize_from_sweep: moment order " + std::to_string(max_moment) +
        " exceeds the sweep's max_moment " +
        std::to_string(sweep.max_moment));
  if (initial.size() != sweep.num_states())
    throw std::invalid_argument(
        "finalize_from_sweep: initial vector size mismatch (got " +
        std::to_string(initial.size()) + ", sweep has " +
        std::to_string(sweep.num_states()) + " states)");

  const std::size_t width = max_moment + 1;
  const std::size_t num_states = sweep.num_states();
  const linalg::Panel& acc = sweep.acc[time_index];
  MomentResult out;
  out.time = sweep.times[time_index];
  out.q = sweep.q;
  out.d = sweep.d;
  out.shift = sweep.shift;
  out.center = sweep.center;
  out.stats = sweep.stats;
  if (!sweep.degenerate) {
    out.truncation_point = sweep.truncation_points[time_index];
    out.error_bound = sweep.error_bounds[time_index];
  }

  // The degenerate closed form's panels already hold final values (factor
  // 1, and x * 1.0 == x exactly). Every other sweep is scaled by
  // factor_j = prefactor * j! d^j (prefactor is w_max for a
  // terminal-weighted sweep, undoing the seed normalization) and, under a
  // drift shift, mapped back per state through B(t) = B_check(t) + shift * t
  // with shift_raw_moments' coefficients C(j, k) * delta^(j-k) — the same
  // products in the same order.
  const bool shifted = !sweep.degenerate && sweep.shift != 0.0;
  std::vector<double> factor(width, 1.0);
  for (std::size_t j = 0; j < width && !sweep.degenerate; ++j)
    factor[j] = j == 0 ? sweep.prefactor
                       : factor[j - 1] * (static_cast<double>(j) * sweep.d);
  std::vector<double> coef(shifted ? width * width : 0);
  if (shifted) {
    const double delta = sweep.shift * out.time;
    for (std::size_t j = 0; j < width; ++j) {
      double delta_pow = 1.0;
      for (std::size_t k = j + 1; k-- > 0;) {
        coef[j * width + k] = binomial_coefficient(j, k) * delta_pow;
        delta_pow *= delta;
      }
    }
  }

  out.per_state.assign(width, {});
  for (linalg::Vec& col : out.per_state) col.resize(num_states);
  out.weighted.resize(width);
  kFinalizeRows[shifted][width < kFinalizeRows[0].size() ? width : 0](
      acc, factor.data(), coef.data(), initial.data(), out);

  if constexpr (check::kChecked) {
    if (!sweep.degenerate && !sweep.terminal_weighted && width >= 3) {
      // Cauchy-Schwarz V2 >= V1^2 holds for the plain solve only: weighted
      // output is E[B^j w(Z(t))]. The truncation error is epsilon per
      // moment in scaled units; the prefactor and the shift amplify it.
      const double delta = std::abs(sweep.shift) * out.time;
      const double eff_eps = sweep.epsilon * std::max(sweep.prefactor, 1.0) *
                             (1.0 + delta) * (1.0 + delta);
      check::check_moment_consistency(out.per_state[1], out.per_state[2],
                                      eff_eps, "finalize_from_sweep");
    }
  }
  return out;
}

std::vector<MomentResult> RandomizationMomentSolver::solve_multi(
    std::span<const double> times, const MomentSolverOptions& options) const {
  validate_solver_inputs(times, options, "solve_multi");

  const std::int64_t total_t0 = obs::now_ns();
  obs::TraceScope solve_scope("solve_multi", "solver", "times",
                              static_cast<double>(times.size()));

  RetainedSweep sweep =
      run_plain_sweep(model_, times, options, {}, "solve_multi");
  return detail::finalize_all(sweep, model_.initial(), total_t0);
}

}  // namespace somrm::core
