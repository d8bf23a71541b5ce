// Ablation — cost of the impulse extension.
//
// The paper argues second-order analysis costs practically the same as
// first-order; this harness extends the claim to impulse rewards: per
// iteration the impulse solver adds, inside the same fused row pass as the
// Q' dot product, one pass over each row of every non-zero impulse matrix
// A~_l (summed into the row's orders while they sit in registers), so
// impulses on every transition add per-iteration work in proportion to the
// impulse matrices' entries but leave G and the asymptotics unchanged.

#include <cstdio>

#include "bench_common.hpp"
#include "core/first_order.hpp"
#include "core/impulse_randomization.hpp"
#include "models/birth_death.hpp"

int main(int argc, char** argv) {
  using namespace somrm;

  bench::print_header("Ablation: impulse-extension overhead",
                      "same birth-death chain, growing solver generality");

  const std::size_t states = bench::arg_size(argc, argv, "--states", 20000);
  const double t = bench::arg_double(argc, argv, "--time", 1.0);
  const std::size_t repeats = bench::arg_size(argc, argv, "--repeats", 5);

  const auto chain = models::make_birth_death_mrm(
      states, [](std::size_t) { return 3.0; }, [](std::size_t) { return 4.0; },
      [states](std::size_t i) { return static_cast<double>(states - i); },
      [](std::size_t i) { return 0.5 * static_cast<double>(i); });

  core::MomentSolverOptions opts;
  opts.epsilon = 1e-9;

  const double reps = static_cast<double>(repeats);
  const auto time_it = [&](auto&& fn) {
    bench::Stopwatch sw;
    double checksum = 0.0;
    for (std::size_t r = 0; r < repeats; ++r) checksum += fn();
    return std::pair<double, double>(sw.seconds() / reps, checksum / reps);
  };

  // First-order (variances dropped).
  const core::FirstOrderMrm fo(chain.generator(), chain.drifts(),
                               chain.initial());
  const core::FirstOrderMomentSolver fo_solver(fo);
  const auto [fo_time, fo_sum] =
      time_it([&] { return fo_solver.solve(t, opts).weighted[1]; });

  // Second-order.
  const core::RandomizationMomentSolver so_solver(chain);
  const auto [so_time, so_sum] =
      time_it([&] { return so_solver.solve(t, opts).weighted[1]; });

  // Second-order + deterministic impulses on every transition.
  const auto imp_det =
      core::SecondOrderImpulseMrm::uniform_impulse(chain, 0.1, 0.0);
  const core::ImpulseMomentSolver imp_det_solver(imp_det);
  const auto [det_time, det_sum] =
      time_it([&] { return imp_det_solver.solve(t, opts).weighted[1]; });

  // Second-order + normal impulses on every transition.
  const auto imp_rand =
      core::SecondOrderImpulseMrm::uniform_impulse(chain, 0.1, 0.05);
  const core::ImpulseMomentSolver imp_rand_solver(imp_rand);
  const auto [rand_time, rand_sum] =
      time_it([&] { return imp_rand_solver.solve(t, opts).weighted[1]; });

  bench::print_row({"solver", "mean_seconds", "relative", "E[B(t)]"});
  bench::print_row({"first_order", bench::fmt(fo_time, 4), "1.00",
                    bench::fmt(fo_sum, 8)});
  bench::print_row({"second_order", bench::fmt(so_time, 4),
                    bench::fmt(so_time / fo_time, 3),
                    bench::fmt(so_sum, 8)});
  bench::print_row({"impulse_deterministic", bench::fmt(det_time, 4),
                    bench::fmt(det_time / fo_time, 3),
                    bench::fmt(det_sum, 8)});
  bench::print_row({"impulse_normal", bench::fmt(rand_time, 4),
                    bench::fmt(rand_time / fo_time, 3),
                    bench::fmt(rand_sum, 8)});

  std::printf("# %zu states, t = %g, eps = %g, %zu repeats per row\n", states,
              t, opts.epsilon, repeats);
  return 0;
}
