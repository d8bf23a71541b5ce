#include "core/impulse_randomization.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/invariants.hpp"
#include "core/moment_utils.hpp"
#include "core/scaling.hpp"
#include "core/solver_telemetry.hpp"
#include "linalg/panel.hpp"
#include "linalg/parallel.hpp"
#include "linalg/reorder.hpp"
#include "linalg/sellcs.hpp"
#include "linalg/simd.hpp"
#include "obs/trace.hpp"
#include "prob/normal.hpp"
#include "prob/poisson.hpp"

namespace somrm::core {

namespace {

/// Builds the scaled impulse-moment matrices A~_j = A_j / (q d^j j!) for
/// j = 1..n, where (A_j)_ik = q_ik * mu_j(m_ik, w_ik) on off-diagonal
/// transitions with a non-zero impulse.
std::vector<linalg::CsrMatrix> build_impulse_matrices(
    const SecondOrderImpulseMrm& model, std::size_t n, double q, double d) {
  const std::size_t ns = model.num_states();
  const auto& qm = model.base().generator().matrix();
  const auto& row_ptr = qm.row_ptr();
  const auto& col_idx = qm.col_idx();
  const auto& values = qm.values();

  std::vector<linalg::CsrBuilder> builders;
  builders.reserve(n);
  for (std::size_t j = 0; j < n; ++j) builders.emplace_back(ns, ns);

  double inv_dj_fact = 1.0;  // 1 / (d^j j!) built incrementally
  std::vector<double> scale(n + 1, 0.0);
  for (std::size_t j = 1; j <= n; ++j) {
    inv_dj_fact /= d * static_cast<double>(j);
    scale[j] = inv_dj_fact / q;
  }

  for (std::size_t r = 0; r < ns; ++r) {
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const std::size_t c = col_idx[k];
      if (c == r || values[k] <= 0.0) continue;
      const double m = model.impulse_mean().at(r, c);
      const double w = model.impulse_var().at(r, c);
      if (m == 0.0 && w == 0.0) continue;
      const auto mu = prob::normal_raw_moments(m, w, n);
      for (std::size_t j = 1; j <= n; ++j) {
        const double v = values[k] * mu[j] * scale[j];
        if (v != 0.0) builders[j - 1].add(r, c, v);
      }
    }
  }

  std::vector<linalg::CsrMatrix> out;
  out.reserve(n);
  for (auto& b : builders) out.push_back(std::move(b).build());
  return out;
}

/// A time point whose Poisson weight at the current step k is non-zero.
struct ActiveWeight {
  std::size_t ti;
  double w;
};

/// One impulse panel sweep step, templated over the storage Q' streams from
/// (CsrMatrix or SellCsMatrix — both expose the same multiply_panel_rows
/// row-range contract). The impulse matrices stay CSR: their convolution
/// bands shrink with l, so padding them buys no streaming regularity. Per
/// element the arithmetic order is independent of Matrix, so CSR and
/// SELL-C-σ runs are bit-identical at every thread count.
template <class Matrix>
void impulse_panel_step(const Matrix& qmat, const ScaledModel& scaled,
                        const std::vector<linalg::CsrMatrix>& impulse_mats,
                        std::size_t n, linalg::Panel& u, linalg::Panel& u_next,
                        std::span<const ActiveWeight> active,
                        std::vector<linalg::Panel>& acc) {
  const std::size_t num_states = qmat.rows();
  const std::size_t width = n + 1;
  linalg::parallel_for(
      num_states,
      [&](std::size_t row_begin, std::size_t row_end) {
        if (n >= 1)
          qmat.multiply_panel_rows(u, u_next, row_begin, row_end,
                                   /*src_col=*/1,
                                   /*dst_col=*/1, n,
                                   /*accumulate=*/false);
        for (std::size_t i = row_begin; i < row_end; ++i) {
          const double* ui = u.row_data(i);
          double* oi = u_next.row_data(i);
          const double r = scaled.r_prime[i];
          for (std::size_t j = 1; j <= n; ++j) oi[j] += r * ui[j - 1];
          const double s = 0.5 * scaled.s_prime[i];
          for (std::size_t j = 2; j <= n; ++j) oi[j] += s * ui[j - 2];
        }
        // Impulse convolution in ascending l: element (i, j) receives
        // its A~_1 .. A~_j contributions in exactly the legacy order,
        // each computed in its own accumulator before the add.
        for (std::size_t l = 1; l <= n; ++l) {
          const linalg::CsrMatrix& a = impulse_mats[l - 1];
          if (a.nnz() == 0) continue;
          a.multiply_panel_rows(u, u_next, row_begin, row_end,
                                /*src_col=*/0, /*dst_col=*/l,
                                width - l, /*accumulate=*/true);
        }
        // Poisson-weighted accumulation: one contiguous slab axpy per
        // active time point (the j = 0 lane reads the invariant ones
        // column, the value the legacy kernel takes from u[0]).
        const std::size_t lo = row_begin * width;
        const std::size_t len = (row_end - row_begin) * width;
        for (const ActiveWeight& aw : active)
          linalg::axpy(aw.w, u_next.span().subspan(lo, len),
                       acc[aw.ti].span().subspan(lo, len));
      },
      /*grain=*/1024);
}

/// One impulse fused-vectors sweep step, templated over the Q' storage via
/// its visit_row hook (same seam as randomization.cpp's
/// fused_recursion_step). Arithmetic order per element is storage-invariant.
template <class Matrix>
void impulse_fused_step(const Matrix& qmat, const ScaledModel& scaled,
                        const std::vector<linalg::CsrMatrix>& impulse_mats,
                        std::size_t n, std::vector<linalg::Vec>& u,
                        std::vector<linalg::Vec>& u_next,
                        std::span<const ActiveWeight> active,
                        std::vector<std::vector<linalg::Vec>>& acc) {
  const std::size_t num_states = qmat.rows();
  linalg::parallel_for(
      num_states,
      [&](std::size_t row_begin, std::size_t row_end) {
        // Stage-wise streaming loops per range (see randomization.cpp's
        // fused_recursion_step): vectorizable, and per element the
        // arithmetic order matches the scalar original exactly.
        for (std::size_t j = n; j >= 1; --j) {
          const linalg::Vec& uj = u[j];
          linalg::Vec& out = u_next[j];
          for (std::size_t i = row_begin; i < row_end; ++i) {
            double s = 0.0;
            qmat.visit_row(
                i, [&](std::size_t col, double v) { s += v * uj[col]; });
            out[i] = s;
          }
          const linalg::Vec& lower1 = u[j - 1];
          for (std::size_t i = row_begin; i < row_end; ++i)
            out[i] += scaled.r_prime[i] * lower1[i];
          if (j >= 2) {
            const linalg::Vec& lower2 = u[j - 2];
            for (std::size_t i = row_begin; i < row_end; ++i)
              out[i] += 0.5 * scaled.s_prime[i] * lower2[i];
          }
          // Impulse convolution: + sum_{l=1..j} A~_l U^(j-l).
          for (std::size_t l = 1; l <= j; ++l) {
            const linalg::CsrMatrix& a = impulse_mats[l - 1];
            if (a.nnz() == 0) continue;
            const linalg::Vec& lower = u[j - l];
            for (std::size_t i = row_begin; i < row_end; ++i) {
              double imp = 0.0;
              a.visit_row(i, [&](std::size_t col, double v) {
                imp += v * lower[col];
              });
              out[i] += imp;
            }
          }
        }
        // axpy keeps the weight in a register (by-value parameter); an
        // in-loop aw.w read can alias the acc stores and kills
        // vectorization.
        const std::size_t len = row_end - row_begin;
        for (const ActiveWeight& aw : active) {
          linalg::axpy(
              aw.w, std::span<const double>(u[0]).subspan(row_begin, len),
              std::span<double>(acc[aw.ti][0]).subspan(row_begin, len));
          for (std::size_t j = 1; j <= n; ++j) {
            linalg::axpy(
                aw.w,
                std::span<const double>(u_next[j]).subspan(row_begin, len),
                std::span<double>(acc[aw.ti][j]).subspan(row_begin, len));
          }
        }
      },
      /*grain=*/1024);
}

}  // namespace

ImpulseMomentSolver::ImpulseMomentSolver(SecondOrderImpulseMrm model)
    : model_(std::move(model)) {}

std::size_t ImpulseMomentSolver::truncation_point(double qt, std::size_t n,
                                                  double d, double epsilon) {
  if (!(epsilon > 0.0))
    throw std::invalid_argument("truncation_point: epsilon must be positive");
  if (qt < 0.0) throw std::invalid_argument("truncation_point: negative qt");
  if (qt == 0.0) return 0;
  if (d == 0.0 && n > 0) return 0;

  const double nn = static_cast<double>(n);
  const double log_prefactor =
      n == 0 ? std::log(2.0)
             : nn * (std::log(4.0) + std::log(d) + std::log(qt));
  const double log_target = std::log(epsilon) - log_prefactor;
  const std::size_t k = prob::poisson_truncation_point(qt, log_target);
  // Bound needs G >= 2n (the k^n <= 2^n k!/(k-n)! step).
  return std::max(k + n, 2 * n);
}

MomentResult ImpulseMomentSolver::solve(
    double t, const MomentSolverOptions& options) const {
  const double times[] = {t};
  return solve_multi(times, options).front();
}

std::vector<MomentResult> ImpulseMomentSolver::solve_multi(
    std::span<const double> times, const MomentSolverOptions& options) const {
  validate_solver_inputs(times, options, "ImpulseMomentSolver::solve_multi");

  const std::int64_t total_t0 = obs::now_ns();
  obs::TraceScope solve_scope("impulse.solve_multi", "solver", "times",
                              static_cast<double>(times.size()));

  const std::size_t n = options.max_moment;
  const std::size_t num_states = model_.num_states();
  const SecondOrderMrm& base = model_.base();

  // Base scaling (drift shift / centering exactly as the plain solver),
  // then enlarge d for the impulse bound: d >= max |m| + sqrt(max w * n).
  ScaledModel scaled =
      scale_model(base, options.scale_policy, options.center);
  if (scaled.q > 0.0) {
    const double d_impulse =
        model_.max_abs_impulse_mean() +
        std::sqrt(model_.max_impulse_variance() * static_cast<double>(
                                                      std::max<std::size_t>(
                                                          n, 1)));
    if (d_impulse > scaled.d) {
      // Rebuild R'/S' with the larger d (scale_model exposes no d override;
      // rescale in place: R' ~ 1/d, S' ~ 1/d^2).
      const double ratio = scaled.d > 0.0 ? scaled.d / d_impulse : 0.0;
      if (scaled.d > 0.0) {
        for (double& v : scaled.r_prime) v *= ratio;
        for (double& v : scaled.s_prime) v *= ratio * ratio;
      } else {
        // Base rewards were all zero; populate R'/S' directly.
        const double qd = scaled.q * d_impulse;
        const double qd2 = qd * d_impulse;
        for (std::size_t i = 0; i < num_states; ++i) {
          scaled.r_prime[i] =
              (base.drifts()[i] - options.center - scaled.shift) / qd;
          scaled.s_prime[i] = base.variances()[i] / qd2;
        }
      }
      scaled.d = d_impulse;
    }
  }
  // Re-probe after the impulse d-enlargement: growing d only shrinks the
  // R'/S' diagonals, so the Lemma-2 bounds must still hold under kSafe.
  check::check_scaled_model(
      scaled,
      /*enforce_reward_bounds=*/options.scale_policy == DriftScalePolicy::kSafe,
      "ImpulseMomentSolver::solve_multi");

  obs::SolverStats stats;
  stats.threads = linalg::num_threads();
  stats.reorder = "none";  // the impulse solver has no reorder stage
  stats.storage =
      options.storage == StorageFormat::kSellCs ? "sellcs" : "csr";
  stats.panel_width = n + 1;
  stats.scale_seconds = obs::seconds_between(total_t0, obs::now_ns());

  std::vector<MomentResult> results(times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    results[i].time = times[i];
    results[i].q = scaled.q;
    results[i].d = scaled.d;
    results[i].shift = scaled.shift;
    results[i].center = options.center;
  }

  // Degenerate chain: no transitions, hence no impulses either.
  if (scaled.q == 0.0) {
    stats.kernel = "degenerate";
    stats.simd = "none";
    stats.storage = "none";  // the closed form builds no sparse matrix
    stats.panel_width = 0;
    for (std::size_t ti = 0; ti < times.size(); ++ti) {
      MomentResult& out = results[ti];
      out.per_state.assign(n + 1, linalg::Vec(num_states, 0.0));
      for (std::size_t i = 0; i < num_states; ++i) {
        const auto m = prob::brownian_raw_moments(
            base.drifts()[i] - options.center, base.variances()[i],
            times[ti], n);
        for (std::size_t j = 0; j <= n; ++j) out.per_state[j][i] = m[j];
      }
      out.weighted.resize(n + 1);
      for (std::size_t j = 0; j <= n; ++j)
        out.weighted[j] = linalg::dot(base.initial(), out.per_state[j]);
    }
    stats.total_seconds = obs::seconds_between(total_t0, obs::now_ns());
    for (MomentResult& r : results) r.stats = stats;
    return results;
  }

  // No reorder stage here, but the bandwidth fields must still reflect the
  // matrix that actually streamed — equal values, not stale zeros.
  stats.bandwidth_before = linalg::bandwidth(scaled.q_prime);
  stats.bandwidth_after = stats.bandwidth_before;

  std::vector<linalg::CsrMatrix> impulse_mats =
      n > 0 ? build_impulse_matrices(model_, n, scaled.q, scaled.d)
            : std::vector<linalg::CsrMatrix>{};

  // Optional SELL-C-σ storage for Q' (linalg/sellcs.hpp): σ-sort rows by
  // descending length and apply the SAME permutation to every sweep operand
  // — including each impulse matrix, whose row partition must match Q's —
  // then un-permute the accumulated panels before finalize. Entry order
  // within each row is preserved throughout (permute_symmetric remaps
  // without re-sorting), so outputs are bit-identical to CSR storage.
  std::vector<std::size_t> perm;  // perm[new] = old; empty = no permutation
  linalg::SellCsMatrix sell;
  const bool use_sell = options.storage == StorageFormat::kSellCs;
  if (use_sell) {
    const std::int64_t sell_t0 = obs::now_ns();
    std::vector<std::size_t> sigma_perm =
        linalg::SellCsMatrix::sigma_sort_permutation(
            scaled.q_prime, linalg::SellCsMatrix::kDefaultSigma);
    if (!linalg::is_identity_permutation(sigma_perm)) {
      scaled.q_prime = linalg::permute_symmetric(scaled.q_prime, sigma_perm);
      scaled.r_prime = linalg::permute_vector(scaled.r_prime, sigma_perm);
      scaled.s_prime = linalg::permute_vector(scaled.s_prime, sigma_perm);
      for (linalg::CsrMatrix& a : impulse_mats)
        a = linalg::permute_symmetric(a, sigma_perm);
      perm = std::move(sigma_perm);
    }
    sell = linalg::SellCsMatrix::from_csr(scaled.q_prime,
                                          linalg::SellCsMatrix::kDefaultChunk);
    stats.padding_ratio = sell.padding_ratio();
    stats.chunk_occupancy = sell.chunk_occupancy();
    stats.scale_seconds += obs::seconds_between(sell_t0, obs::now_ns());
  }
  // Iterate non-negativity only holds when every operand of the recursion
  // is non-negative: shift-mode R' plus non-negative impulse-moment
  // matrices (odd normal moments with negative mean break the latter).
  const bool subtraction_free =
      check::kChecked &&
      std::all_of(scaled.r_prime.begin(), scaled.r_prime.end(),
                  [](double r) { return r >= 0.0; }) &&
      std::all_of(impulse_mats.begin(), impulse_mats.end(),
                  [](const linalg::CsrMatrix& a) {
                    return a.is_nonnegative(0.0);
                  });

  const std::int64_t trunc_t0 = obs::now_ns();
  std::vector<std::size_t> trunc(times.size(), 0);
  std::size_t g_max = 0;
  stats.truncation_points.assign(n + 1, 0);
  for (std::size_t ti = 0; ti < times.size(); ++ti) {
    const double qt = scaled.q * times[ti];
    std::size_t g = 0;
    for (std::size_t j = 0; j <= n; ++j) {
      const std::size_t gj = truncation_point(qt, j, scaled.d, options.epsilon);
      stats.truncation_points[j] = std::max(stats.truncation_points[j], gj);
      g = std::max(g, gj);
    }
    trunc[ti] = g;
    results[ti].truncation_point = g;
    if constexpr (check::kChecked) {
      // Theorem-4 analogue with the impulse prefactor (4 d qt)^n: the
      // realized tail bound must be monotone in G and below epsilon at the
      // chosen G.
      const auto impulse_bound = [&](std::size_t gg) {
        const double nn = static_cast<double>(n);
        const double log_prefactor =
            n == 0 ? std::log(2.0)
                   : nn * (std::log(4.0) + std::log(scaled.d) + std::log(qt));
        return std::exp(log_prefactor +
                        prob::log_poisson_tail(
                            qt, gg + 1 >= n ? gg + 1 - n : 0));
      };
      if (qt > 0.0) {
        const double bound_g = impulse_bound(g);
        check::check_truncation_bound(
            bound_g, g > 0 ? impulse_bound(g - 1) : bound_g, options.epsilon,
            g, "ImpulseMomentSolver::solve_multi");
      }
    }
    g_max = std::max(g_max, g);
  }
  stats.truncation_seconds = obs::seconds_between(trunc_t0, obs::now_ns());

  // Per-time-point Poisson weight tables (one lgamma each) instead of one
  // lgamma-based pmf per (k, time point) pair in the sweep.
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

  // Section-6-style sweep cost: per step Q' streams against the n iterated
  // lanes (j = 1..n; the j = 0 ones column is invariant) and each impulse
  // matrix A~_l against the n+1-l lanes of its convolution band.
  stats.sweep_steps = g_max;
  std::size_t flops_per_step = 2 * scaled.q_prime.nnz() * n;
  for (std::size_t l = 1; l <= n && !impulse_mats.empty(); ++l)
    flops_per_step += 2 * impulse_mats[l - 1].nnz() * (n + 1 - l);
  stats.sweep_flops = g_max * flops_per_step;

  std::vector<ActiveWeight> active;
  active.reserve(times.size());

  // Panel path (default): the iterates U^(0..n)(k) live in one contiguous
  // row-major panel and each sweep step streams Q' and every A~_l ONCE,
  // multiplying each matrix entry against contiguous panel doubles, instead
  // of once per moment order. Per element the arithmetic order (Q' dot
  // product, R', ½S', then the impulse convolution in ascending l, then the
  // weighted accumulation) matches the kFusedVectors kernel exactly, so
  // results are bit-identical to it at every thread count.
  if (options.kernel == SweepKernel::kPanel) {
    stats.kernel = "impulse_panel";
    // Its SpMMs (multiply_panel_rows) dispatch on the active level.
    stats.simd = linalg::simd::level_name(linalg::simd::active_level());
    linalg::Panel u(num_states, n + 1, 0.0);
    linalg::Panel u_next(num_states, n + 1, 0.0);
    u.fill_col(0, 1.0);
    u_next.fill_col(0, 1.0);  // invariant ones column survives the swaps
    std::vector<linalg::Panel> acc(times.size(),
                                   linalg::Panel(num_states, n + 1, 0.0));

    for (std::size_t ti = 0; ti < times.size(); ++ti) {
      const double qt = scaled.q * times[ti];
      const double w0 = qt > 0.0 ? windows[ti].weight(0) : 1.0;
      if (w0 != 0.0)
        for (std::size_t i = 0; i < num_states; ++i)
          acc[ti](i, 0) += w0 * u(i, 0);
    }

    const std::int64_t sweep_t0 = obs::now_ns();
    const std::int64_t busy0 = detail::parallel_busy_metric().total_ns();
    for (std::size_t k = 1; k <= g_max; ++k) {
      active.clear();
      for (std::size_t ti = 0; ti < times.size(); ++ti) {
        if (k > trunc[ti]) continue;
        const double w = windows[ti].weight(k);
        if (w != 0.0) active.push_back(ActiveWeight{ti, w});
      }
      stats.active_weight_sum += active.size();
      const std::int64_t k_t0 = obs::now_ns();
      if (use_sell)
        impulse_panel_step(sell, scaled, impulse_mats, n, u, u_next, active,
                           acc);
      else
        impulse_panel_step(scaled.q_prime, scaled, impulse_mats, n, u, u_next,
                           active, acc);
      detail::record_sweep_step(k_t0, k, active.size());
      u.swap(u_next);
      if constexpr (check::kChecked)
        check::check_sweep_panel(u, k, /*j_lo=*/1, subtraction_free,
                                 /*apply_majorant=*/false,
                                 "ImpulseMomentSolver::solve_multi");
    }
    detail::finish_sweep_stats(stats, sweep_t0, busy0);

    const std::int64_t finalize_t0 = obs::now_ns();
    if (!perm.empty()) {
      // Back to the model's state order before the pi contraction: pure row
      // moves, no arithmetic, so the σ-sort cannot change a single bit.
      for (linalg::Panel& p : acc) p = linalg::unpermute_panel_rows(p, perm);
    }
    for (std::size_t ti = 0; ti < times.size(); ++ti) {
      MomentResult& out = results[ti];
      std::vector<linalg::Vec> sums(n + 1);
      for (std::size_t j = 0; j <= n; ++j) sums[j] = acc[ti].col(j);
      double factor = 1.0;
      for (std::size_t j = 0; j <= n; ++j) {
        if (j > 0) factor *= static_cast<double>(j) * scaled.d;
        linalg::scale(factor, sums[j]);
      }
      if (scaled.shift == 0.0) {
        out.per_state = std::move(sums);
      } else {
        out.per_state.assign(n + 1, linalg::Vec(num_states, 0.0));
        const double delta = scaled.shift * times[ti];
        std::vector<double> raw(n + 1);
        for (std::size_t i = 0; i < num_states; ++i) {
          for (std::size_t j = 0; j <= n; ++j) raw[j] = sums[j][i];
          const auto back = shift_raw_moments(raw, delta);
          for (std::size_t j = 0; j <= n; ++j) out.per_state[j][i] = back[j];
        }
      }
      out.weighted.resize(n + 1);
      for (std::size_t j = 0; j <= n; ++j)
        out.weighted[j] = linalg::dot(base.initial(), out.per_state[j]);
      if constexpr (check::kChecked) {
        if (n >= 2) {
          const double delta = std::abs(scaled.shift) * times[ti];
          check::check_moment_consistency(
              out.per_state[1], out.per_state[2],
              options.epsilon * (1.0 + delta) * (1.0 + delta),
              "ImpulseMomentSolver::solve_multi");
        }
      }
    }
    stats.finalize_seconds = obs::seconds_between(finalize_t0, obs::now_ns());
    stats.total_seconds = obs::seconds_between(total_t0, obs::now_ns());
    for (MomentResult& r : results) r.stats = stats;
    return results;
  }

  stats.kernel = "impulse_fused_vectors";
  stats.simd = "scalar";  // visit_row loops, no vector dispatch
  std::vector<linalg::Vec> u(n + 1, linalg::zeros(num_states));
  u[0] = linalg::ones(num_states);
  std::vector<linalg::Vec> u_next(n + 1, linalg::zeros(num_states));
  std::vector<std::vector<linalg::Vec>> acc(
      times.size(), std::vector<linalg::Vec>(n + 1, linalg::zeros(num_states)));

  for (std::size_t ti = 0; ti < times.size(); ++ti) {
    const double qt = scaled.q * times[ti];
    const double w0 = qt > 0.0 ? windows[ti].weight(0) : 1.0;
    if (w0 != 0.0) linalg::axpy(w0, u[0], acc[ti][0]);
  }

  const std::int64_t sweep_t0 = obs::now_ns();
  const std::int64_t busy0 = detail::parallel_busy_metric().total_ns();
  for (std::size_t k = 1; k <= g_max; ++k) {
    active.clear();
    for (std::size_t ti = 0; ti < times.size(); ++ti) {
      if (k > trunc[ti]) continue;
      const double w = windows[ti].weight(k);
      if (w != 0.0) active.push_back(ActiveWeight{ti, w});
    }
    stats.active_weight_sum += active.size();
    const std::int64_t k_t0 = obs::now_ns();

    // Fused, row-parallel generalized recursion step: the rate/variance
    // terms, the impulse convolution sum_{l=1..j} A~_l U^(j-l), and the
    // Poisson-weighted accumulation all happen in one pass per row. Every
    // write is row-owned, so results are bit-identical for any thread count.
    if (use_sell)
      impulse_fused_step(sell, scaled, impulse_mats, n, u, u_next, active,
                         acc);
    else
      impulse_fused_step(scaled.q_prime, scaled, impulse_mats, n, u, u_next,
                         active, acc);
    detail::record_sweep_step(k_t0, k, active.size());
    for (std::size_t j = 1; j <= n; ++j) std::swap(u[j], u_next[j]);
    if constexpr (check::kChecked) {
      for (std::size_t j = 1; j <= n; ++j)
        check::check_sweep_column(u[j], k, j, subtraction_free,
                                  /*apply_majorant=*/false,
                                  "ImpulseMomentSolver::solve_multi");
    }
  }
  detail::finish_sweep_stats(stats, sweep_t0, busy0);

  const std::int64_t finalize_t0 = obs::now_ns();
  if (!perm.empty()) {
    // Back to the model's state order before the pi contraction: a pure
    // gather through the inverse permutation, no arithmetic.
    const std::vector<std::size_t> inv = linalg::invert_permutation(perm);
    for (std::vector<linalg::Vec>& panel : acc)
      for (linalg::Vec& v : panel) v = linalg::permute_vector(v, inv);
  }
  for (std::size_t ti = 0; ti < times.size(); ++ti) {
    MomentResult& out = results[ti];
    double factor = 1.0;
    for (std::size_t j = 0; j <= n; ++j) {
      if (j > 0) factor *= static_cast<double>(j) * scaled.d;
      linalg::scale(factor, acc[ti][j]);
    }
    if (scaled.shift == 0.0) {
      out.per_state = std::move(acc[ti]);
    } else {
      out.per_state.assign(n + 1, linalg::Vec(num_states, 0.0));
      const double delta = scaled.shift * times[ti];
      std::vector<double> raw(n + 1);
      for (std::size_t i = 0; i < num_states; ++i) {
        for (std::size_t j = 0; j <= n; ++j) raw[j] = acc[ti][j][i];
        const auto back = shift_raw_moments(raw, delta);
        for (std::size_t j = 0; j <= n; ++j) out.per_state[j][i] = back[j];
      }
    }
    out.weighted.resize(n + 1);
    for (std::size_t j = 0; j <= n; ++j)
      out.weighted[j] = linalg::dot(base.initial(), out.per_state[j]);
    if constexpr (check::kChecked) {
      if (n >= 2) {
        const double delta = std::abs(scaled.shift) * times[ti];
        check::check_moment_consistency(
            out.per_state[1], out.per_state[2],
            options.epsilon * (1.0 + delta) * (1.0 + delta),
            "ImpulseMomentSolver::solve_multi");
      }
    }
  }
  stats.finalize_seconds = obs::seconds_between(finalize_t0, obs::now_ns());
  stats.total_seconds = obs::seconds_between(total_t0, obs::now_ns());
  for (MomentResult& r : results) r.stats = stats;
  return results;
}

}  // namespace somrm::core
