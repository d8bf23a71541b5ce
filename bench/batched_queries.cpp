// Batched serving benchmark: many queries against ONE model, answered by a
// core::SolveSession (one shared U-sweep + cheap per-query finalize)
// versus the same queries as independent RandomizationMomentSolver solves
// (one full sweep each). The session results must be BIT-IDENTICAL to the
// independent ones — the retained-accumulator path is the same arithmetic
// — so this harness verifies exact equality and exits non-zero on any
// mismatch before reporting the speedup.
//
// Query mix: --queries Q initial vectors pi_0..pi_{Q-1} (deterministically
// generated, all distinct), cycling over the session's 5-point time grid,
// all at the session's max moment order. This is the ROADMAP's heavy
// multi-user traffic shape: same model, different users, different pi.
//
// Flags: --states N (ON-OFF sources, default 50000), --queries Q (default
// 64), --moments n (default 4), --epsilon,
// --skip-independent 1 (session path only — for quick cache-stat runs),
// --json <path> / --json-append <path> for BenchRecords
// (batched_queries_independent + batched_queries_session, the latter
// carrying the session cache counters and the per-query latency_p50_ms /
// latency_p99_ms / qps fields from the SessionReport), --stats 1 for the
// telemetry summary of the last session query, --metrics-out <path> to
// dump the cumulative obs registry (Prometheus text, or JSON when the
// path ends in .json).

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "core/scaling.hpp"
#include "core/solve_session.hpp"
#include "linalg/parallel.hpp"
#include "linalg/vec.hpp"
#include "models/onoff.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "prob/rng.hpp"

namespace {

/// Q distinct initial distributions over num_states states, deterministic
/// across runs (fixed-seed engine): strictly positive uniform weights
/// normalized to sum to 1.
std::vector<somrm::linalg::Vec> make_initials(std::size_t q,
                                              std::size_t num_states) {
  somrm::prob::Rng rng(20260806);
  std::vector<somrm::linalg::Vec> out;
  out.reserve(q);
  for (std::size_t i = 0; i < q; ++i) {
    somrm::linalg::Vec pi(num_states, 0.0);
    for (std::size_t s = 0; s < num_states; ++s)
      pi[s] = rng.uniform01() + 1e-6;
    somrm::linalg::normalize_probability(pi);
    out.push_back(std::move(pi));
  }
  return out;
}

bool bit_identical(const somrm::core::MomentResult& a,
                   const somrm::core::MomentResult& b) {
  if (a.weighted.size() != b.weighted.size()) return false;
  for (std::size_t j = 0; j < a.weighted.size(); ++j)
    if (a.weighted[j] != b.weighted[j]) return false;
  if (a.per_state.size() != b.per_state.size()) return false;
  for (std::size_t j = 0; j < a.per_state.size(); ++j)
    for (std::size_t i = 0; i < a.per_state[j].size(); ++i)
      if (a.per_state[j][i] != b.per_state[j][i]) return false;
  return a.truncation_point == b.truncation_point &&
         a.error_bound == b.error_bound;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace somrm;

  bench::print_header(
      "batched_queries",
      "SolveSession batch vs independent solves: one shared sweep, many pi");

  models::OnOffMultiplexerParams params = models::table2_params();
  params.num_sources = bench::arg_size(argc, argv, "--states", 50000);
  params.capacity = static_cast<double>(params.num_sources);
  const std::size_t num_queries = bench::arg_size(argc, argv, "--queries", 64);
  const double eps = bench::arg_double(argc, argv, "--epsilon", 1e-9);
  const std::size_t n = bench::arg_size(argc, argv, "--moments", 4);
  const bool skip_independent =
      bench::arg_size(argc, argv, "--skip-independent", 0) != 0;
  if (num_queries == 0) {
    std::fprintf(stderr, "--queries must be >= 1\n");
    return 2;
  }

  bench::Stopwatch sw_build;
  const auto model = models::make_onoff_multiplexer(params);
  const auto scaled = core::scale_model(model);
  std::printf("# N = %zu sources (%zu states), q = %s, build %.2f s\n",
              params.num_sources, model.num_states(),
              bench::fmt(scaled.q, 8).c_str(), sw_build.seconds());

  const std::vector<double> times{0.01, 0.02, 0.03, 0.04, 0.05};
  core::MomentSolverOptions opts;
  opts.max_moment = n;
  opts.epsilon = eps;

  const auto initials = make_initials(num_queries, model.num_states());
  std::vector<core::SessionQuery> queries(num_queries);
  for (std::size_t i = 0; i < num_queries; ++i) {
    queries[i].time_index = i % times.size();
    queries[i].initial = initials[i];
  }

  // Session path: one sweep (cache miss) + Q cheap finalizes.
  const auto cache = std::make_shared<core::SweepCache>();
  const core::SolveSession session(model, times, opts, cache);
  bench::Stopwatch sw_session;
  const auto batch = session.query_batch(queries);
  const double session_s = sw_session.seconds();
  const core::SweepCacheStats cs = session.cache_stats();
  const core::SessionReport sr = session.report();
  const double latency_p50_ms =
      static_cast<double>(sr.latency_p50_ns) * 1e-6;
  const double latency_p99_ms =
      static_cast<double>(sr.latency_p99_ns) * 1e-6;
  const double qps =
      session_s > 0.0 ? static_cast<double>(num_queries) / session_s : 0.0;
  std::printf("# session: %zu queries in %.3f s (%.2f ms/query); cache: "
              "%zu hits, %zu misses, %zu evictions, %zu coalesced\n",
              num_queries, session_s,
              1e3 * session_s / static_cast<double>(num_queries), cs.hits,
              cs.misses, cs.evictions, cs.coalesced);
  std::printf("# latency: p50 %.3f ms, p99 %.3f ms; throughput %.1f q/s\n",
              latency_p50_ms, latency_p99_ms, qps);

  // Independent path: one full solve per query, each with its own pi.
  double independent_s = 0.0;
  bool identical = true;
  if (!skip_independent) {
    bench::Stopwatch sw_ind;
    for (std::size_t i = 0; i < num_queries; ++i) {
      const core::RandomizationMomentSolver solver(
          model.with_initial(initials[i]));
      const auto reference = solver.solve(times[queries[i].time_index], opts);
      if (!bit_identical(reference, batch[i])) {
        identical = false;
        std::printf("# MISMATCH at query %zu (t = %g)\n", i,
                    times[queries[i].time_index]);
      }
    }
    independent_s = sw_ind.seconds();
    std::printf("# independent: %zu solves in %.3f s; speedup %.1fx; "
                "bit-identical: %s\n",
                num_queries, independent_s, independent_s / session_s,
                identical ? "yes" : "NO");
  }

  bench::print_row({"mode", "queries", "wall_s", "ms_per_query"});
  bench::print_row({"session", std::to_string(num_queries),
                    bench::fmt(session_s, 6),
                    bench::fmt(1e3 * session_s /
                                   static_cast<double>(num_queries), 6)});
  if (!skip_independent)
    bench::print_row({"independent", std::to_string(num_queries),
                      bench::fmt(independent_s, 6),
                      bench::fmt(1e3 * independent_s /
                                     static_cast<double>(num_queries), 6)});

  if (bench::arg_size(argc, argv, "--stats", 0) != 0)
    std::printf("%s", obs::report(batch.back().stats).c_str());

  const std::string append_path =
      bench::arg_string(argc, argv, "--json-append", "");
  bench::JsonWriter writer(
      !append_path.empty() ? append_path
                           : bench::arg_string(argc, argv, "--json", ""),
      /*append=*/!append_path.empty());
  bench::BenchRecord session_rec{};
  session_rec.bench = "batched_queries_session[panel]";
  session_rec.states = model.num_states();
  session_rec.threads = linalg::num_threads();
  session_rec.wall_s = session_s;
  session_rec.moments = n;
  bench::fill_from_stats(session_rec, batch.back().stats);
  session_rec.latency_p50_ms = latency_p50_ms;
  session_rec.latency_p99_ms = latency_p99_ms;
  session_rec.qps = qps;
  writer.add(std::move(session_rec));
  if (!skip_independent) {
    bench::BenchRecord ind_rec{};
    ind_rec.bench = "batched_queries_independent[panel]";
    ind_rec.states = model.num_states();
    ind_rec.threads = linalg::num_threads();
    ind_rec.wall_s = independent_s;
    ind_rec.moments = n;
    ind_rec.kernel = batch.back().stats.kernel;
    writer.add(std::move(ind_rec));
  }
  writer.write();

  const std::string metrics_out =
      bench::arg_string(argc, argv, "--metrics-out", "");
  if (!metrics_out.empty()) {
    obs::set_metrics_path(metrics_out);
    obs::write_metrics();
  }

  if (!identical) {
    std::printf("# FAILED: session batch is not bit-identical to "
                "independent solves\n");
    return 1;
  }
  return 0;
}
