// Shared helpers for the figure/table reproduction harnesses: consistent
// table printing, wall-clock timing, simple CLI flag parsing, and the
// centered-moment + bound pipeline used by Figures 5-7.

#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "bounds/moment_bounds.hpp"
#include "core/model.hpp"
#include "core/randomization.hpp"
#include "obs/telemetry.hpp"

namespace somrm::bench {

/// Prints a banner naming the experiment and the paper artifact it
/// regenerates.
void print_header(const std::string& artifact, const std::string& summary);

/// Prints a row of columns separated by commas (CSV-ish, pasteable into
/// any plotting tool).
void print_row(const std::vector<std::string>& cells);

/// Formats a double with enough digits for plotting.
std::string fmt(double v, int precision = 8);

/// Wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Looks up "--name value" in argv; returns fallback when the flag is
/// absent. Throws std::invalid_argument (naming the flag) when the flag is
/// present without a value — including in the last argv slot — or, for the
/// numeric variants, when the value does not parse completely as a number
/// (arg_size additionally rejects negatives). Malformed CLI input must
/// abort the bench, not silently run a default-sized measurement.
double arg_double(int argc, char** argv, const std::string& name,
                  double fallback);
std::size_t arg_size(int argc, char** argv, const std::string& name,
                     std::size_t fallback);
std::string arg_string(int argc, char** argv, const std::string& name,
                       const std::string& fallback);

/// Parses "--name v1,v2,..." as a comma-separated list of non-negative
/// integers (e.g. `--threads 1,2,4,8,16`). Returns fallback when the flag
/// is absent; throws std::invalid_argument (naming the flag) for an empty
/// list or any element that fails arg_size's rules.
std::vector<std::size_t> arg_size_list(int argc, char** argv,
                                       const std::string& name,
                                       std::vector<std::size_t> fallback);

/// Escapes a string for embedding inside a JSON string literal: quote,
/// backslash, and control characters (\b \f \n \r \t, \u00XX otherwise).
std::string json_escape(const std::string& s);

/// Git commit the binary was built from (SOMRM_GIT_SHA compile definition,
/// injected by bench/CMakeLists.txt; "unknown" when not a git checkout).
std::string git_sha();

/// One machine-readable benchmark measurement. Every harness that supports
/// `--json <path>` emits records of this shape so perf trajectories can be
/// tracked across PRs (see BENCH_PR2.json / BENCH_PR3.json for the
/// committed snapshots). The telemetry fields (kernel, truncation_point,
/// sweep_s, spmv_gflops, load_imbalance) come from the solver's
/// obs::SolverStats via fill_from_stats(); the timing-derived ones stay
/// zero when the library was built with -DSOMRM_OBSERVABILITY=OFF.
struct BenchRecord {
  std::string bench;        ///< benchmark / case name
  std::size_t states = 0;   ///< model size (0 when not applicable)
  std::size_t threads = 0;  ///< solver thread count used
  double wall_s = 0.0;      ///< wall-clock seconds (per iteration)
  std::size_t moments = 0;  ///< max moment order (0 when not applicable)
  std::string git_sha;      ///< commit of the binary (bench::git_sha())
  std::string kernel;       ///< sweep kernel that ran ("" when no solve)
  std::string simd;         ///< SIMD dispatch level ("" when no solve)
  bool observability = somrm::obs::kEnabled;  ///< telemetry compiled in?
  std::size_t truncation_point = 0;  ///< Theorem-4 G_max of the sweep
  double sweep_s = 0.0;              ///< U-recursion sweep seconds
  double spmv_gflops = 0.0;          ///< effective sweep GFLOP/s
  double load_imbalance = 0.0;       ///< 1 - busy/(threads * sweep wall)
  // SolveSession sweep-cache counters (batched_queries bench; all zero for
  // benches that solve directly without a session cache).
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_evictions = 0;
  std::size_t cache_coalesced = 0;
  // Per-query latency distribution and throughput (batched_queries; zero
  // for single-solve benches). Quantiles are the EXACT order statistics of
  // the SessionReport's per-query records — the fields ROADMAP item 2's
  // traffic-replay bench gates on via bench_diff --latency-tol.
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double qps = 0.0;  ///< queries / wall second for the measured phase
  /// Client threads driving the serving engine (traffic_replay; 0 for
  /// benches without a client side). Part of the bench_diff identity key:
  /// latency/qps at 1 client and at 32 clients are different experiments.
  std::size_t clients = 0;
};

/// Copies the solver-telemetry fields of @p stats into @p record (kernel,
/// threads, truncation point, sweep seconds, effective GFLOP/s, load
/// imbalance). Leaves the bench identity fields alone.
void fill_from_stats(BenchRecord& record, const obs::SolverStats& stats);

/// Collects BenchRecords and writes them as a JSON array of objects.
/// A writer built with an empty path is disabled: add() and write() become
/// no-ops, so call sites need no branching on whether --json was given.
/// With append = true (the `--json-append` flag), write() merges the new
/// records into an existing JSON array at the path instead of replacing it
/// — that is how ON/OFF overhead pairs land in one BENCH_PR3.json.
class JsonWriter {
 public:
  explicit JsonWriter(std::string path, bool append = false)
      : path_(std::move(path)), append_(append) {}

  bool enabled() const { return !path_.empty(); }
  void add(BenchRecord record);

  /// Writes all collected records to the path, durably: the merged array
  /// goes to "<path>.tmp" first and is renamed into place, so an existing
  /// snapshot is never truncated before its replacement is complete.
  /// String fields are JSON-escaped. Throws std::runtime_error when the
  /// temp file cannot be opened/written/renamed (or, in append mode, when
  /// the existing file is not a JSON array).
  void write() const;

 private:
  std::string path_;
  bool append_ = false;
  std::vector<BenchRecord> records_;
};

/// The Figures 5-7 pipeline: mean solve, centered high-order solve, and a
/// MomentBounder over the centered moments. bounds_at() takes x in original
/// reward units.
class CenteredBoundPipeline {
 public:
  /// @param num_moments highest moment order fed to the bounder (the paper
  /// used 23); epsilon is the Theorem-4 budget for the centered solve.
  CenteredBoundPipeline(const core::SecondOrderMrm& model, double t,
                        std::size_t num_moments, double epsilon);

  double mean() const { return mean_; }
  double stddev() const;
  std::size_t rule_size() const { return bounder_.rule_size(); }
  std::size_t truncation_point() const { return truncation_point_; }

  bounds::CdfBounds bounds_at(double x) const {
    return bounder_.bounds_at(x - mean_);
  }

 private:
  double mean_ = 0.0;
  double t_ = 0.0;
  std::size_t truncation_point_ = 0;
  linalg::Vec centered_moments_;
  bounds::MomentBounder bounder_;
};

}  // namespace somrm::bench
