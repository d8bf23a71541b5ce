#include "core/impulse_randomization.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/invariants.hpp"
#include "core/scaling.hpp"
#include "core/sweep_core.hpp"
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

/// log of the impulse bound's prefactor (4 d qt)^n (log 2 at n = 0).
double log_impulse_prefactor(double qt, std::size_t n, double d) {
  const double nn = static_cast<double>(n);
  return n == 0 ? std::log(2.0)
                : nn * (std::log(4.0) + std::log(d) + std::log(qt));
}

/// The impulse tail bound achieved at truncation point @p g:
/// (4 d qt)^n * sum_{k >= g+1-n} Pois(k; qt) (0 when it underflows).
double impulse_error_bound(double qt, std::size_t n, double d, std::size_t g) {
  return std::exp(log_impulse_prefactor(qt, n, d) +
                  prob::log_poisson_tail(qt, g + 1 >= n ? g + 1 - n : 0));
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

  const double log_prefactor = log_impulse_prefactor(qt, n, d);
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

  detail::SweepSpec spec;
  spec.impulse_recursion = true;
  spec.rule = {&ImpulseMomentSolver::truncation_point, &impulse_error_bound};
  spec.caller = "ImpulseMomentSolver::solve_multi";
  // No transitions (q == 0) means no impulses either: the core's closed
  // form needs no A~_l.
  if (scaled.q > 0.0)
    spec.impulse = build_impulse_matrices(model_, n, scaled.q, scaled.d);
  spec.scaled = std::move(scaled);
  RetainedSweep sweep =
      detail::run_sweep(base, times, options, std::move(spec), total_t0);
  return detail::finalize_all(sweep, base.initial(), total_t0);
}

}  // namespace somrm::core
