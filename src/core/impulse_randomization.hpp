// somrm/core/impulse_randomization.hpp
//
// Randomization moment solver for second-order MRMs with normal impulse
// rewards — the extension sketched (but not developed) in the paper's
// introduction. Derivation, following the paper's own route:
//
// The transform equation gains a per-transition factor
// phi_ik(v) = e^{-v m_ik + v^2 w_ik / 2}:
//
//   d/dt b*(t,v) = ( -vR + v^2/2 S ) b*(t,v) + Q_phi(v) b*(t,v),
//   (Q_phi)_ik = q_ik phi_ik(v)  (i != k),   (Q_phi)_ii = q_ii.
//
// Differentiating n times at v = 0 (phi^(j)(0) = (-1)^j mu_j where mu_j is
// the j-th raw moment of N(m_ik, w_ik)) extends Theorem 2 with impulse
// convolution terms:
//
//   d/dt V^(n) = Q V^(n) + n R V^(n-1) + 1/2 n(n-1) S V^(n-2)
//                + sum_{j=1..n} C(n,j) A_j V^(n-j),
//   (A_j)_ik = q_ik mu_j(m_ik, w_ik)  (i != k, zero diagonal),
//
// and Theorem 3 becomes, with A~_j = A_j / (q d^j j!),
//
//   U^(n)(k+1) = Q' U^(n)(k) + R' U^(n-1)(k) + 1/2 S' U^(n-2)(k)
//                + sum_{j=1..n} A~_j U^(n-j)(k).
//
// Error bound (generalizing Theorem 4): choose d so that additionally
// d >= max_ik ( |m_ik| + sqrt(w_ik * n) ); then by Minkowski
// E|N(m,w)|^j <= d^j for j <= n, every |A~_j| has row sums <= 1/j!, and the
// scalar majorant recursion has generating function (x + x^2/2 + e^x)^k,
// coefficientwise dominated by e^{2kx}. Hence |U^(n)(k)| <= (2k)^n / n! and
//
//   |error| <= (4 d qt)^n * sum_{k >= G+1-n} Pois(k; qt)   (for G >= 2n),
//
// the same Poisson-tail shape as Theorem 4 with prefactor (4 d qt)^n.
//
// Implementation: the solver builds its scaled model (enlarged d) and the
// A~_l, then runs the shared sweep core (core/sweep_core.hpp) — the plain
// recursion's step plus one convolution stage — so truncation, Poisson
// windows, the RCM reorder, telemetry and finalize are the plain
// solver's. MomentResult::error_bound reports the bound above at G.

#pragma once

#include <span>
#include <vector>

#include "core/impulse_model.hpp"
#include "core/randomization.hpp"  // MomentSolverOptions, MomentResult

namespace somrm::core {

class ImpulseMomentSolver {
 public:
  explicit ImpulseMomentSolver(SecondOrderImpulseMrm model);

  /// Same contract as RandomizationMomentSolver::solve; the `center` option
  /// offsets the rate reward only (impulses are time-instantaneous and are
  /// never shifted). Negative impulse means are handled directly — the
  /// recursion then contains signed terms, but the majorant error bound
  /// above stays valid.
  MomentResult solve(double t, const MomentSolverOptions& options = {}) const;

  std::vector<MomentResult> solve_multi(
      std::span<const double> times,
      const MomentSolverOptions& options = {}) const;

  /// Generalized Theorem-4 truncation point with the (4 d qt)^n prefactor.
  static std::size_t truncation_point(double qt, std::size_t n, double d,
                                      double epsilon);

  const SecondOrderImpulseMrm& model() const { return model_; }

 private:
  SecondOrderImpulseMrm model_;
};

}  // namespace somrm::core
