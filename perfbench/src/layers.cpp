// perfbench/src/layers.cpp — per-layer rungs, each timed around one public
// library call on the workload's model.
//
// Bytes moved are computed from array sizes (labelled "computed"), never
// measured, and no share of a bandwidth roofline is reported: the sweep's
// working set (core.working_set_mb) fits in the last-level cache of the
// hosts this runs on, so a DRAM-bandwidth bound would not apply to it.

#include <cstdio>
#include <filesystem>
#include <memory>

#include "bench.hpp"
#include "core/scaling.hpp"
#include "core/solve_session.hpp"
#include "linalg/panel.hpp"
#include "linalg/parallel.hpp"
#include "prob/poisson.hpp"
#include "prob/rng.hpp"
#include "serve/snapshot.hpp"

namespace perfbench {

using somrm::core::RandomizationMomentSolver;

namespace {

template <typename Call>
double median_seconds(const char* name, std::uint64_t parent,
                      std::size_t min_reps, double min_seconds, Call&& call) {
  return timed_calls(name, parent, min_reps, min_seconds, call).median();
}

}  // namespace

void run_layer_rungs(const somrm::core::SecondOrderMrm& model,
                     const Args& args, Report& report, std::uint64_t parent) {
  Span rungs("layer_rungs", parent);
  const auto opts = solver_options();
  const std::size_t n = model.num_states();
  const std::size_t width = kMaxMoment + 1;
  const auto& grid = time_grid();

  // -- linalg: one SpMM of the scaled Q' against a width-(n+1) panel at one
  // thread, and the cost of an empty parallel_for (the sweep's per-step
  // fork/join) at the default thread count.
  const somrm::core::ScaledModel scaled = somrm::core::scale_model(model);
  const auto& qp = scaled.q_prime;
  somrm::linalg::Panel x(n, width), y(n, width);
  somrm::prob::Rng rng(sub_seed(args.seed, 7));
  for (double& v : x.span()) v = rng.uniform01();
  somrm::linalg::set_num_threads(1);
  const double spmm_s = median_seconds("linalg.multiply_panel", rungs.id(), 20,
                                       0.2, [&] { qp.multiply_panel(x, y); });
  somrm::linalg::set_num_threads(0);
  const double flops = 2.0 * static_cast<double>(qp.nnz() * width);
  const double csr_bytes = static_cast<double>(
      qp.nnz() * (sizeof(double) + sizeof(std::size_t)) +
      (qp.rows() + 1) * sizeof(std::size_t));
  const double panel_bytes = static_cast<double>(n * width * sizeof(double));
  const double spmm_bytes = csr_bytes + 2 * panel_bytes;  // read X, write Y
  report.set("linalg.spmm_ms", spmm_s * 1e3, "ms");
  report.set("linalg.spmm_gflops", flops / spmm_s * 1e-9, "GFLOP/s");
  report.set("linalg.bytes_per_spmm", spmm_bytes, "B-computed");
  report.set("linalg.flops_per_byte", flops / spmm_bytes, "FLOP/B-computed");
  const double pfor_s =
      median_seconds("linalg.parallel_for", rungs.id(), 2000, 0.05, [&] {
        somrm::linalg::parallel_for(n, [](std::size_t, std::size_t) {});
      });
  report.set("linalg.pfor_us", pfor_s * 1e6, "us");

  // -- prob: Theorem-4 truncation points and Poisson weight windows for the
  // time grid, as the sweep's set-up computes them.
  std::vector<std::size_t> trunc(grid.size());
  const double trunc_s = median_seconds("prob.truncation_point", rungs.id(),
                                        20, 0.02, [&] {
    for (std::size_t t = 0; t < grid.size(); ++t) {
      trunc[t] = 0;
      for (std::size_t j = 0; j <= kMaxMoment; ++j)
        trunc[t] = std::max(trunc[t], RandomizationMomentSolver::truncation_point(
                                          scaled.q * grid[t], j, scaled.d,
                                          opts.epsilon));
    }
  });
  report.set("prob.trunc_ms", trunc_s * 1e3, "ms");
  const double window_s = median_seconds("prob.poisson_weight_window",
                                         rungs.id(), 20, 0.02, [&] {
    for (std::size_t t = 0; t < grid.size(); ++t)
      somrm::prob::poisson_weight_window(scaled.q * grid[t], trunc[t]);
  });
  report.set("prob.window_ms", window_s * 1e3, "ms");

  // -- core: one retained sweep at the default thread count and a finalize.
  const RandomizationMomentSolver solver(model);
  somrm::core::RetainedSweep sweep;
  {
    Span s("core.sweep_retained", rungs.id());
    const std::int64_t t0 = now_ns();
    sweep = solver.sweep_retained(grid, opts);
    report.set("core.sweep_s", ns_to_s(now_ns() - t0), "s");
  }
  report.set("core.sweep_steps", static_cast<double>(sweep.stats.sweep_steps),
             "steps");
  report.set("core.sweep_gflops", sweep.stats.effective_gflops, "GFLOP/s");
  report.set("core.load_imbalance", sweep.stats.load_imbalance, "ratio");
  report.set("core.retained_mb", static_cast<double>(sweep.byte_size()) / 1e6,
             "MB");
  // Arrays one sweep step touches: Q', the drift and variance diagonals,
  // the current and next iterate panels and one accumulator per time point.
  const double working_set =
      csr_bytes + 2.0 * static_cast<double>(n * sizeof(double)) +
      (2.0 + static_cast<double>(grid.size())) * panel_bytes;
  report.set("core.working_set_mb", working_set / 1e6, "MB-computed");
  const auto llc = static_cast<double>(llc_bytes());
  report.set("core.working_set_llc", llc > 0 ? working_set / llc : 0.0,
             "ratio");

  const auto pi = make_initials(sub_seed(args.seed, 8), 1, n).front();
  const std::size_t last = grid.size() - 1;
  somrm::core::MomentResult direct;
  const double finalize_s = median_seconds("core.finalize_from_sweep",
                                           rungs.id(), 15, 0.05, [&] {
    direct = somrm::core::finalize_from_sweep(sweep, last, pi, kMaxMoment);
  });
  report.set("core.finalize_ms", finalize_s * 1e3, "ms");

  // -- session: a hit on a cache seeded with that sweep.
  auto cache = std::make_shared<somrm::core::SweepCache>();
  const somrm::core::SolveSession session(model, grid, opts, cache);
  cache->insert(session.sweep_key({}),
                std::make_shared<const somrm::core::RetainedSweep>(sweep));
  somrm::core::SessionQuery q;
  q.time_index = last;
  q.initial = pi;
  somrm::core::MomentResult hit;
  const double hit_s = median_seconds("session.query", rungs.id(), 15, 0.05,
                                      [&] { hit = session.query(q); });
  report.set("session.hit_ms", hit_s * 1e3, "ms");
  if (cache->stats().misses != 0 || !same_bits(hit, direct, true))
    report.fail("session hit differs from finalize_from_sweep");
  std::size_t result_bytes = sizeof(hit) + hit.weighted.size() * sizeof(double);
  for (const auto& v : hit.per_state) result_bytes += v.size() * sizeof(double);
  result_bytes += (hit.stats.truncation_points.size() +
                   hit.stats.window_widths.size()) * sizeof(std::size_t);
  report.set("session.result_kb", static_cast<double>(result_bytes) / 1024.0,
             "KiB");

  // -- snapshot: save that cache and load it into a fresh one.
  const std::string path =
      (std::filesystem::path(args.scratch_dir) /
       ("rung-" + std::to_string(args.seed) + ".snap")).string();
  const double save_s = median_seconds("snapshot.save", rungs.id(), 3, 0.0, [&] {
    somrm::serve::save_snapshot(*cache, path);
  });
  const double mb = static_cast<double>(std::filesystem::file_size(path)) / 1e6;
  std::shared_ptr<somrm::core::SweepCache> loaded;
  const double load_s = median_seconds("snapshot.load", rungs.id(), 3, 0.0, [&] {
    loaded = std::make_shared<somrm::core::SweepCache>();
    somrm::serve::load_snapshot(*loaded, path);
  });
  std::filesystem::remove(path);
  const auto entries = loaded->entries_snapshot();
  if (entries.size() != 1 ||
      !somrm::core::bit_identical(*entries.front().second, sweep))
    report.fail("snapshot round trip changed the retained sweep");
  report.set("snapshot.save_s", save_s, "s");
  report.set("snapshot.load_s", load_s, "s");
  report.set("snapshot.mb", mb, "MB");
  report.set("snapshot.load_mbps", mb / load_s, "MB/s");
  report.attempted += 1;
}

}  // namespace perfbench
