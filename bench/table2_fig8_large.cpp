// Table 2 / Figure 8 — the large model: C = N = 200,000 ON-OFF sources
// (200,001 states), sigma^2 = 10, first three moments of the accumulated
// reward at t = 0.01..0.05.
//
// Paper reference points (2.4 GHz PC, 2003): q = 800,000; at t = 0.05 and
// epsilon = 1e-9 the iteration count was G = 41,588 (with the paper's d and
// the misprinted tail index; the corrected bound lands within a few hundred
// of that); the 5 time points took 3 hours because each was solved
// separately. This implementation shares one U-sweep across all 5 points —
// the iterates U^(n)(k) do not depend on t — so the whole figure costs one
// G_max-length sweep.
//
// Flags: --states N (default 200000), --epsilon, --moments,
// --threads t1,t2,... (solver thread counts to sweep; default: the current
// linalg::num_threads() only). Every thread count runs the full multi-time
// solve and emits one BenchRecord, so
//   table2_fig8_large --states 50000 --threads 1,2,4,8,16
// produces a complete scaling curve in one invocation (see EXPERIMENTS.md).
// The moment table is printed once, from the first thread count: results
// are bit-identical across thread counts, which the run asserts (exit 1 on
// a divergence).
// --json <path> writes the machine-readable BenchRecords (--json-append
// <path> merges into an existing snapshot instead — how the ON/OFF
// observability pair lands in one BENCH_PR3.json), --stats 1 prints the
// solver telemetry summary (obs::report) after the table, and
// --metrics-out <path> dumps the cumulative obs registry (Prometheus
// text, or JSON when the path ends in .json).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/scaling.hpp"
#include "linalg/parallel.hpp"
#include "models/onoff.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"

int main(int argc, char** argv) {
  using namespace somrm;

  bench::print_header("Table 2 / Figure 8",
                      "large ON-OFF model: moments at t = 0.01..0.05");

  models::OnOffMultiplexerParams params = models::table2_params();
  params.num_sources = bench::arg_size(argc, argv, "--states", 200000);
  params.capacity = static_cast<double>(params.num_sources);
  const double eps = bench::arg_double(argc, argv, "--epsilon", 1e-9);
  const std::size_t n = bench::arg_size(argc, argv, "--moments", 3);

  bench::Stopwatch sw_build;
  const auto model = models::make_onoff_multiplexer(params);
  const auto scaled = core::scale_model(model);
  std::printf("# N = %zu sources (%zu states), q = %s, d = %s, build %.2f s\n",
              params.num_sources, model.num_states(),
              bench::fmt(scaled.q, 8).c_str(), bench::fmt(scaled.d, 8).c_str(),
              sw_build.seconds());

  const std::vector<double> times{0.01, 0.02, 0.03, 0.04, 0.05};
  const std::vector<std::size_t> thread_counts = bench::arg_size_list(
      argc, argv, "--threads", {somrm::linalg::num_threads()});

  const std::string append_path =
      bench::arg_string(argc, argv, "--json-append", "");
  bench::JsonWriter writer(
      !append_path.empty() ? append_path
                           : bench::arg_string(argc, argv, "--json", ""),
      /*append=*/!append_path.empty());

  const core::RandomizationMomentSolver solver(model);
  std::vector<core::MomentResult> reference;  // first combination's results

  core::MomentSolverOptions opts;
  opts.max_moment = n;
  opts.epsilon = eps;
  for (const std::size_t threads : thread_counts) {
    somrm::linalg::set_num_threads(threads);

    bench::Stopwatch sw;
    auto results = solver.solve_multi(times, opts);
    const double seconds = sw.seconds();

    if (reference.empty()) {
      bench::print_row({"t", "qt", "G", "moment1", "moment2", "moment3"});
      for (const auto& r : results)
        bench::print_row({bench::fmt(r.time, 4), bench::fmt(r.q * r.time, 8),
                          std::to_string(r.truncation_point),
                          bench::fmt(r.weighted[1], 10),
                          bench::fmt(r.weighted[2], 10),
                          bench::fmt(n >= 3 ? r.weighted[3] : 0.0, 10)});

      const double m = model.generator().matrix().mean_row_nnz();
      std::printf("# all %zu time points from ONE shared sweep of G_max = "
                  "%zu iterations\n",
                  times.size(), results.back().truncation_point);
      std::printf("# paper: G = 41,588 at eps = 1e-9 (t = 0.05), 3 h for 5 "
                  "separate solves on 2003 hardware\n");
      std::printf("# per-iteration cost: (%0.1f + 2) vector ops x %zu "
                  "states x %zu moment vectors (matches the section-6 "
                  "count)\n",
                  m, model.num_states(), n + 1);
      std::printf("# kernel,simd,threads,wall_s,sweep_s,gflops\n");
    } else {
      // The whole sweep must be bit-identical to the first thread count —
      // that is the SIMD/threading determinism contract.
      for (std::size_t ti = 0; ti < results.size(); ++ti)
        for (std::size_t j = 0; j <= n; ++j)
          if (results[ti].weighted[j] != reference[ti].weighted[j]) {
            std::fprintf(stderr,
                         "table2_fig8_large: %zu threads diverged from the "
                         "first run (t=%g, moment %zu)\n",
                         threads, results[ti].time, j);
            return 1;
          }
    }

    const auto& stats = results.back().stats;
    std::printf("# %s,%s,%zu,%.4f,%.4f,%.3f\n", stats.kernel.c_str(),
                stats.simd.c_str(), threads, seconds, stats.sweep_seconds,
                stats.effective_gflops);

    if (bench::arg_size(argc, argv, "--stats", 0) != 0)
      std::printf("%s", obs::report(stats).c_str());

    bench::BenchRecord record{};
    record.bench = "table2_fig8_large[" + stats.kernel + "]";
    record.states = model.num_states();
    record.threads = threads;
    record.wall_s = seconds;
    record.moments = n;
    bench::fill_from_stats(record, stats);
    record.threads = threads;  // requested count, even past the host cores
    writer.add(std::move(record));

    if (reference.empty()) reference = std::move(results);
  }
  somrm::linalg::set_num_threads(0);

  writer.write();

  const std::string metrics_out =
      bench::arg_string(argc, argv, "--metrics-out", "");
  if (!metrics_out.empty()) {
    obs::set_metrics_path(metrics_out);
    obs::write_metrics();
  }
  return 0;
}
