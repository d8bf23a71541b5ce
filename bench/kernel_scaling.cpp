// Kernel microbenchmarks (google-benchmark) substantiating the section-6
// complexity claims:
//  * the iteration step costs (m+2) vector-vector products per moment
//    (m = mean non-zeros per generator row) => linear in the state count,
//  * second-order analysis costs practically the same as first-order,
//  * G grows like qt (plus an O(sqrt(qt)) spread),
//  * a multi-time solve shares one sweep instead of paying per time point.

// Flags beyond google-benchmark's own: `--json <path>` writes every run as
// a machine-readable BenchRecord via bench_common's JsonWriter;
// `--json-append <path>` merges the runs into an existing snapshot instead
// of replacing it (see EXPERIMENTS.md); `--threads t1,t2,...` selects the
// solver thread counts BM_SolveVsThreads sweeps (default 1,2,4 — pass
// `--threads 1,2,4,8,16` for the full scaling curve).

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/first_order.hpp"
#include "core/randomization.hpp"
#include "linalg/csr.hpp"
#include "linalg/parallel.hpp"
#include "models/birth_death.hpp"

namespace {

using namespace somrm;

core::SecondOrderMrm make_chain(std::size_t states, double sigma2) {
  return models::make_birth_death_mrm(
      states, [](std::size_t) { return 3.0; }, [](std::size_t) { return 4.0; },
      [states](std::size_t i) {
        return static_cast<double>(states - i);
      },
      [sigma2](std::size_t i) {
        return sigma2 * static_cast<double>(i);
      });
}

// Solve time vs state count at fixed qt: should scale linearly.
void BM_SolveVsStates(benchmark::State& state) {
  const auto states = static_cast<std::size_t>(state.range(0));
  const core::RandomizationMomentSolver solver(make_chain(states, 1.0));
  core::MomentSolverOptions opts;
  opts.epsilon = 1e-9;
  for (auto _ : state) {
    auto res = solver.solve(1.0, opts);
    benchmark::DoNotOptimize(res.weighted.data());
  }
  state.counters["states"] = static_cast<double>(states);
  state.counters["moments"] = 3.0;  // MomentSolverOptions default
}
BENCHMARK(BM_SolveVsStates)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

// Second-order vs first-order cost on the same chain (the paper's headline
// cost claim). Both compute 3 moments at the same epsilon.
void BM_SecondOrder(benchmark::State& state) {
  const core::RandomizationMomentSolver solver(make_chain(4096, 1.0));
  core::MomentSolverOptions opts;
  opts.epsilon = 1e-9;
  for (auto _ : state) {
    auto res = solver.solve(1.0, opts);
    benchmark::DoNotOptimize(res.weighted.data());
  }
}
BENCHMARK(BM_SecondOrder);

void BM_FirstOrder(benchmark::State& state) {
  const auto chain = make_chain(4096, 0.0);
  const core::FirstOrderMrm fo(chain.generator(), chain.drifts(),
                               chain.initial());
  const core::FirstOrderMomentSolver solver(fo);
  core::MomentSolverOptions opts;
  opts.epsilon = 1e-9;
  for (auto _ : state) {
    auto res = solver.solve(1.0, opts);
    benchmark::DoNotOptimize(res.weighted.data());
  }
}
BENCHMARK(BM_FirstOrder);

// Moment-order sweep: cost is linear in the number of moment vectors.
void BM_SolveVsMomentOrder(benchmark::State& state) {
  const core::RandomizationMomentSolver solver(make_chain(4096, 1.0));
  core::MomentSolverOptions opts;
  opts.max_moment = static_cast<std::size_t>(state.range(0));
  opts.epsilon = 1e-9;
  for (auto _ : state) {
    auto res = solver.solve(1.0, opts);
    benchmark::DoNotOptimize(res.weighted.data());
  }
  state.counters["states"] = 4096.0;
  state.counters["moments"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SolveVsMomentOrder)->Arg(1)->Arg(3)->Arg(7)->Arg(15);

// One multi-time sweep vs five independent solves.
void BM_MultiTimeSharedSweep(benchmark::State& state) {
  const core::RandomizationMomentSolver solver(make_chain(2048, 1.0));
  core::MomentSolverOptions opts;
  opts.epsilon = 1e-9;
  const std::vector<double> times{0.2, 0.4, 0.6, 0.8, 1.0};
  for (auto _ : state) {
    auto res = solver.solve_multi(times, opts);
    benchmark::DoNotOptimize(res.data());
  }
}
BENCHMARK(BM_MultiTimeSharedSweep);

void BM_MultiTimeSeparateSolves(benchmark::State& state) {
  const core::RandomizationMomentSolver solver(make_chain(2048, 1.0));
  core::MomentSolverOptions opts;
  opts.epsilon = 1e-9;
  const std::vector<double> times{0.2, 0.4, 0.6, 0.8, 1.0};
  for (auto _ : state) {
    for (double t : times) {
      auto res = solver.solve(t, opts);
      benchmark::DoNotOptimize(res.weighted.data());
    }
  }
}
BENCHMARK(BM_MultiTimeSeparateSolves);

// Thread-count sweep over the fused randomization sweep. Args are
// (threads, states); the interesting comparison is wall time at fixed N as
// threads grow — on a multi-core host the N >= 10,000 rows should show the
// near-linear row-parallel speedup, while N = 1024 stays below the grain
// and runs inline regardless. Results are bit-identical across the sweep
// (deterministic partition, row-owned writes), so only time varies.
// Registered dynamically in main() so `--threads 1,2,4,8,16` picks the
// sweep points.
void BM_SolveVsThreads(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  const auto states = static_cast<std::size_t>(state.range(1));
  const core::RandomizationMomentSolver solver(make_chain(states, 1.0));
  core::MomentSolverOptions opts;
  opts.epsilon = 1e-9;
  linalg::set_num_threads(threads);
  for (auto _ : state) {
    auto res = solver.solve(1.0, opts);
    benchmark::DoNotOptimize(res.weighted.data());
  }
  linalg::set_num_threads(0);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["states"] = static_cast<double>(states);
}

// The panel sweep kernel, single-threaded. Args: (states, max_moment);
// (50000, 4) is the Table-2-scale configuration.
void BM_SweepPanel(benchmark::State& state) {
  const auto states = static_cast<std::size_t>(state.range(0));
  const auto moments = static_cast<std::size_t>(state.range(1));
  const core::RandomizationMomentSolver solver(make_chain(states, 1.0));
  core::MomentSolverOptions opts;
  opts.max_moment = moments;
  opts.epsilon = 1e-9;
  linalg::set_num_threads(1);
  for (auto _ : state) {
    auto res = solver.solve(20.0, opts);
    benchmark::DoNotOptimize(res.weighted.data());
  }
  linalg::set_num_threads(0);
  state.counters["states"] = static_cast<double>(states);
  state.counters["threads"] = 1.0;
  state.counters["moments"] = static_cast<double>(moments);
}
BENCHMARK(BM_SweepPanel)
    ->Args({512, 2})
    ->Args({50000, 4})
    ->Unit(benchmark::kMillisecond);

// G growth vs qt: not a timing — report G as a counter (iterations are a
// single truncation-point computation, which is itself worth timing since
// it runs a Poisson tail search).
void BM_TruncationPoint(benchmark::State& state) {
  const double qt = static_cast<double>(state.range(0));
  std::size_t g = 0;
  for (auto _ : state) {
    g = core::RandomizationMomentSolver::truncation_point(qt, 3, 0.5, 1e-9);
    benchmark::DoNotOptimize(g);
  }
  state.counters["G"] = static_cast<double>(g);
  state.counters["G_over_qt"] = static_cast<double>(g) / qt;
}
BENCHMARK(BM_TruncationPoint)->Arg(100)->Arg(1000)->Arg(10000)->Arg(40000);

// Console output as usual, plus a {bench, states, threads, wall_s, moments}
// record per run into the shared JsonWriter when --json was given.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCapturingReporter(bench::JsonWriter& writer)
      : writer_(writer) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const auto counter = [&run](const char* name) -> std::size_t {
        const auto it = run.counters.find(name);
        return it == run.counters.end()
                   ? 0
                   : static_cast<std::size_t>(it->second.value);
      };
      bench::BenchRecord rec;
      rec.bench = run.benchmark_name();
      rec.states = counter("states");
      rec.threads = counter("threads");
      rec.moments = counter("moments");
      rec.wall_s = run.iterations > 0
                       ? run.real_accumulated_time /
                             static_cast<double>(run.iterations)
                       : run.real_accumulated_time;
      writer_.add(std::move(rec));
    }
  }

 private:
  bench::JsonWriter& writer_;
};

}  // namespace

int main(int argc, char** argv) {
  // Pull out --json / --json-append / --threads before
  // benchmark::Initialize, which rejects flags it does not know.
  const std::string json_path =
      somrm::bench::arg_string(argc, argv, "--json", "");
  const std::string json_append_path =
      somrm::bench::arg_string(argc, argv, "--json-append", "");
  const std::vector<std::size_t> thread_list =
      somrm::bench::arg_size_list(argc, argv, "--threads", {1, 2, 4});
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg(argv[i]);
    if ((arg == "--json" || arg == "--json-append" || arg == "--threads") &&
        i + 1 < argc) {
      ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data()))
    return 1;

  for (const std::size_t t : thread_list)
    for (const std::size_t n : {1024, 10000, 40000})
      benchmark::RegisterBenchmark("BM_SolveVsThreads", BM_SolveVsThreads)
          ->Args({static_cast<std::int64_t>(t), static_cast<std::int64_t>(n)})
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime();

  somrm::bench::JsonWriter writer(
      !json_append_path.empty() ? json_append_path : json_path,
      /*append=*/!json_append_path.empty());
  JsonCapturingReporter reporter(writer);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  writer.write();
  benchmark::Shutdown();
  return 0;
}
