// somrm/core/sweep_core.hpp
//
// The one U-recursion sweep behind every randomization solver: the plain
// and terminal-weighted solves of RandomizationMomentSolver and the impulse
// solve of ImpulseMomentSolver. Each solver builds its scaled model (and,
// for impulses, the scaled impulse-moment matrices A~_l) and hands them to
// run_sweep, which owns truncation, Poisson windows, the RCM reorder
// decision, the steps, the unpermute and the sweep telemetry. The
// solvers differ only in what SweepSpec says:
//
//  * the step: the impulse recursion adds one stage, sum_l A~_l U^(n-l) in
//    ascending l, after the ½S' term and before the weighted accumulation;
//  * the truncation rule: Theorem 4's, or the impulse (4 d qt)^n variant;
//  * the checked-build probes: the impulse recursion obeys no Lemma-2
//    majorant, and is subtraction-free only when every A~_l >= 0.
//
// Not part of the public API — include only from src/core/*.cpp.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/model.hpp"
#include "core/randomization.hpp"
#include "core/scaling.hpp"
#include "linalg/csr.hpp"

namespace somrm::core::detail {

/// A Theorem-4-style truncation rule: G(epsilon) for moment order n, and
/// the tail bound the truncation achieves at a given G (0 when it
/// underflows double range).
struct TruncationRule {
  std::size_t (*point)(double qt, std::size_t n, double d, double epsilon);
  double (*bound)(double qt, std::size_t n, double d, std::size_t g);
};

/// Theorem 4's rule, the plain and terminal-weighted solves' truncation.
TruncationRule theorem4_rule();

/// What one sweep runs beyond the model and the solver options.
struct SweepSpec {
  /// The scaled model the recursion runs on, in the model's state order.
  ScaledModel scaled;
  /// Non-empty: the terminal-weighted sweep, seeded with w / max w (every
  /// column iterates). Empty: the plain sweep, whose column 0 is the
  /// invariant all-ones vector.
  std::span<const double> terminal_weights;
  /// The impulse recursion (core/impulse_randomization.hpp): every step
  /// adds A~_1..A~_n, given here in the model's state order (empty for
  /// n = 0), inside the same fused row kernel as the plain step, reports
  /// kernel "impulse_panel", and skips the Lemma-2 majorant probe.
  bool impulse_recursion = false;
  std::vector<linalg::CsrMatrix> impulse;
  TruncationRule rule = theorem4_rule();
  /// Names the solve in checked-build probe messages.
  const char* caller = "";
};

/// Runs one U-recursion sweep over @p times and returns the retained
/// accumulator panels in the model's state order. @p t0 is the solve's
/// start (obs::now_ns), so stats.scale_seconds covers the caller's scaling.
/// Inputs must already be validated.
RetainedSweep run_sweep(const SecondOrderMrm& model,
                        std::span<const double> times,
                        const MomentSolverOptions& options, SweepSpec spec,
                        std::int64_t t0);

/// finalize_from_sweep at every time point, at the sweep's max order, with
/// @p initial; every result carries the sweep's stats with the finalize and
/// total timings (from @p t0) stamped in.
std::vector<MomentResult> finalize_all(RetainedSweep& sweep,
                                       std::span<const double> initial,
                                       std::int64_t t0);

}  // namespace somrm::core::detail
