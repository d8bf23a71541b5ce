// perfbench/src/solve.cpp — the solve_50k workload.
//
// Cold RandomizationMomentSolver::solve_multi calls of the Table-2 ON-OFF
// model with N = 50,000 sources: at one thread until --seconds of solving
// have passed and at least kMinSolves ran, then once at the library's
// default thread count. A query of this workload is one solve answering the
// whole time grid: cpu_ms_per_query is the median CPU time of the 1-thread
// solves, p50_ms their median latency and qps the grid points one answers
// per second. The first result is checked against the closed-form mean and
// the Theorem-4 budget, and every later one must equal it bit for bit.
//
// The timed solves run at one thread because on a shared host the
// default-thread sweep, which meets at a barrier every step, waits for
// whichever of its threads the hypervisor descheduled: on a 4-vCPU VM,
// 4-thread solves read 3.7-16.5 s from one run to the next while 1-thread
// solves read 11.3-14.1 s. The default-thread solve is the per-layer
// solve_s (with linalg.scaling_eff).
//
// The session cache, the serving engine and snapshots are bypassed; the
// engine.*, cache.* and generator metrics read 0.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "linalg/parallel.hpp"
#include "bench.hpp"
#include "models/onoff.hpp"

namespace perfbench {

namespace {

using somrm::core::MomentResult;
using somrm::core::RandomizationMomentSolver;

constexpr std::size_t kSources = 50000;
constexpr std::size_t kMinSolves = 2;

/// E[B(t) | Z(0) = i] of the ON-OFF model: C t minus r times the expected
/// integral of the number of ON sources, which from i ON relaxes to its
/// stationary mean N beta / lambda at rate lambda = alpha + beta.
double closed_form_mean(std::size_t i, double t) {
  const auto p = somrm::models::table2_params();
  const double lambda = p.on_rate + p.off_rate;
  const double decay = (1.0 - std::exp(-lambda * t)) / lambda;
  const double stationary = static_cast<double>(kSources) * p.off_rate / lambda;
  const double on_integral =
      static_cast<double>(i) * decay + stationary * (t - decay);
  return static_cast<double>(kSources) * t - p.peak_rate * on_integral;
}

/// Checks the mean oracle and the error budget on one solve's results.
void check_solve(const std::vector<MomentResult>& results, Report& report) {
  constexpr double kUnit = std::numeric_limits<double>::epsilon() / 2;
  double worst = 0.0;  // largest error as a share of its tolerance
  for (const MomentResult& r : results) {
    if (!(r.error_bound <= kEpsilon))
      report.fail("error bound " + std::to_string(r.error_bound) +
                  " above epsilon at t = " + std::to_string(r.time));
    // Rounding: every term of the recursion is non-negative, so each of the
    // G steps adds a relative error of about one unit in the last place per
    // product of a row (m + 2 = 5 here) and per accumulation; 16 units per
    // step leaves a factor of two of margin over that count.
    const double rounding = 16.0 * static_cast<double>(r.truncation_point) * kUnit;
    const auto& mean = r.per_state[1];
    for (std::size_t i = 0; i < mean.size(); ++i) {
      const double exact = closed_form_mean(i, r.time);
      const double tol = r.error_bound + rounding * std::abs(exact);
      worst = std::max(worst, std::abs(mean[i] - exact) / tol);
    }
  }
  if (!(worst <= 1.0))
    report.fail("mean off the closed form by " + std::to_string(worst) +
                " times its tolerance");
  std::printf("# solve_50k: mean oracle, worst error = %.3g of tolerance\n",
              worst);
}

/// Every solve must reproduce the first 1-thread solve bit for bit.
void check_same(const std::vector<MomentResult>& res,
                const std::vector<MomentResult>& first, std::size_t threads,
                Report& report) {
  for (std::size_t t = 0; t < res.size(); ++t)
    if (!same_bits(res[t], first[t], /*per_state=*/true))
      report.fail("solve at " + std::to_string(threads) +
                  " threads differs from the first 1-thread solve at t = " +
                  std::to_string(res[t].time));
}

}  // namespace

void run_solve_50k(const Args& args, Report& report, bool layers) {
  Span wl("solve_50k", 0);
  std::unique_ptr<RandomizationMomentSolver> solver;
  const auto setup =
      timed_calls("setup", wl.id(), kSetupReps, kSetupSeconds, [&] {
        solver.reset();
        solver =
            std::make_unique<RandomizationMomentSolver>(make_model(kSources));
      });
  report.set("setup_s", setup.median(), "s");
  const auto opts = solver_options();

  // 1-thread solves, every one of them in the median; the first is the
  // reference every later solve, at any thread count, must reproduce bit
  // for bit.
  std::vector<MomentResult> first;
  std::vector<double> one, one_cpu;  // wall s, CPU ms
  double total = 0.0;
  somrm::linalg::set_num_threads(1);
  while (one.size() < kMinSolves || total < args.seconds) {
    Span s("solve_1t", wl.id());
    const std::int64_t cpu0 = process_cpu_ns();
    const std::int64_t t0 = now_ns();
    auto res = solver->solve_multi(time_grid(), opts);
    one.push_back(ns_to_s(now_ns() - t0));
    one_cpu.push_back(ns_to_ms(process_cpu_ns() - cpu0));
    total += one.back();
    if (first.empty())
      first = std::move(res);
    else
      check_same(res, first, 1, report);
  }
  somrm::linalg::set_num_threads(0);
  check_solve(first, report);
  double default_s = 0.0;
  {
    Span s("solve", wl.id());
    const std::int64_t t0 = now_ns();
    auto res = solver->solve_multi(time_grid(), opts);
    default_s = ns_to_s(now_ns() - t0);
    check_same(res, first, somrm::linalg::num_threads(), report);
  }
  report.attempted += one.size() + 1;
  std::printf("# solve_50k: 1-thread solves");
  for (std::size_t i = 0; i < one.size(); ++i)
    std::printf(" %.3f s (%.3f CPU s)", one[i], one_cpu[i] * 1e-3);
  std::printf("; %zu-thread solve %.3f s\n", somrm::linalg::num_threads(),
              default_s);

  const double latency = median(one);
  report.set("p50_ms", latency * 1e3, "ms");
  report.set("p99_ms", quantile(one, 0.99) * 1e3, "ms");
  report.set("qps", static_cast<double>(time_grid().size()) / latency, "1/s");
  report.set("cpu_ms_per_query", median(one_cpu), "ms");
  report.set("solve_1t_s", latency, "s");
  report.set("solve_s", default_s, "s");
  // No session, cache, engine or load generator on this path.
  const std::pair<const char*, const char*> unexercised[] = {
      {"cache.hit_ratio", "ratio"}, {"cache.misses", "count"},
      {"cache.coalesced", "count"}, {"cache.evictions", "count"},
      {"cache.mb", "MB"}, {"engine.queue_ms_p50", "ms"},
      {"engine.queue_ms_p99", "ms"}, {"engine.service_ms_p50", "ms"},
      {"engine.batch_mean", "queries"}, {"engine.batches", "count"},
      {"engine.rejected", "count"}, {"engine.hit_ms_p50", "ms"},
      {"engine.miss_ms_p50", "ms"}, {"engine.coalesced_ms_p50", "ms"},
      {"gen.lag_ms_p99", "ms"}, {"openloop.backlog_growth", "queries"},
      {"openloop.invalid_windows", "count"}, {"class.plain_ms_p50", "ms"},
      {"class.weighted_ms_p50", "ms"}};
  for (const auto& [name, unit] : unexercised) report.set(name, 0.0, unit);

  if (layers) run_layer_rungs(solver->model(), args, report, wl.id());
  report.set("peak_rss_mb", peak_rss_mib(), "MiB");
}

}  // namespace perfbench
