// somrm/obs/telemetry.hpp
//
// Solver telemetry: named counters with scoped timers, per-thread
// accumulation, and the SolverStats struct embedded in MomentResult.
//
// Design constraints (see DESIGN.md §7):
//  * Instrumented code must stay bit-identical: telemetry never touches the
//    numeric data flow — it only reads clocks and bumps integer cells — and
//    all merged quantities are integer sums, which commute, so the merged
//    totals are deterministic regardless of which thread ran which range.
//  * TSan-clean: every cell a thread writes is its own (thread_local arena,
//    one cell per metric), stored as relaxed atomics so the merging reader
//    needs no handshake with the owning thread.
//  * Compiled out entirely under -DSOMRM_OBSERVABILITY=OFF: the whole API
//    collapses to inline no-ops (now_ns() returns 0, Metric::add() is
//    empty), so call sites need no #if and the optimizer deletes them.
//
// Usage in a hot loop:
//
//   static somrm::obs::Metric& m = somrm::obs::metric("sweep.step");
//   const std::int64_t t0 = somrm::obs::now_ns();
//   ... work ...
//   m.add(1, somrm::obs::now_ns() - t0);
//
// The function-local static makes the name lookup once; add() is two
// relaxed fetch_adds on cells owned by the calling thread.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#ifndef SOMRM_OBSERVABILITY
#define SOMRM_OBSERVABILITY 1
#endif

namespace somrm::obs {

/// True when the library was built with telemetry collection compiled in.
constexpr bool kEnabled = SOMRM_OBSERVABILITY != 0;

/// Per-solve statistics embedded in core::MomentResult (and the impulse
/// result). The structural fields (kernel, truncation_points, window
/// widths, sweep_steps) are byproducts of the solve and are filled even in
/// SOMRM_OBSERVABILITY=OFF builds; the timing/throughput fields require
/// telemetry and stay zero when it is compiled out.
///
/// Mapping to the paper's Theorem-4 quantities: truncation_points[j] is
/// G(epsilon) for moment order j (the max over the requested time points),
/// sweep_steps is the G_max actually iterated (the shared multi-time
/// sweep's length), and window_widths[ti] is the number of Poisson weights
/// Pois(k; q t_i) above DBL_MIN — the k-range that actually contributes to
/// V^(n)(t_i).
struct SolverStats {
  /// Sweep kernel that ran: "panel", "impulse_panel", or "degenerate"
  /// (q == 0 closed form).
  std::string kernel;
  /// SIMD level the sweep's step kernel actually ran at: "scalar" or
  /// "avx2" (linalg::simd), or "none" for the degenerate q == 0 closed
  /// form. Bit-exact either way — this records speed, not values.
  std::string simd;
  /// Bandwidth-reduction reorder the sweep applied at setup: "rcm" when
  /// the reverse Cuthill-McKee ordering strictly narrowed Q''s band, else
  /// "none". Outputs are permuted back, so this records locality, not
  /// values.
  std::string reorder;
  /// CSR bandwidth of Q' in the model's order and in the order the sweep
  /// ran (equal when reorder is "none").
  std::size_t bandwidth_before = 0;
  std::size_t bandwidth_after = 0;
  /// Panel width n+1 streamed per CSR pass (0 for the degenerate path).
  std::size_t panel_width = 0;
  /// linalg::num_threads() at solve time.
  std::size_t threads = 0;
  /// Theorem-4 G(epsilon) per moment order 0..n (max over time points).
  std::vector<std::size_t> truncation_points;
  /// Poisson weight-window width per requested time point.
  std::vector<std::size_t> window_widths;
  /// U-recursion steps executed (== G_max of the shared sweep).
  std::size_t sweep_steps = 0;
  /// Sum over steps of the number of active (time point, weight) pairs.
  std::size_t active_weight_sum = 0;
  /// Floating-point ops in the sweep's CSR dot products: 2 * stored
  /// entries * panel lanes, summed over steps (diagonal and accumulation
  /// terms excluded — this is the SpMM traffic the paper's section-6 cost
  /// model counts).
  std::size_t sweep_flops = 0;

  // -- timing (zero when SOMRM_OBSERVABILITY=OFF) --
  double scale_seconds = 0.0;       ///< model scaling / matrix build
  double truncation_seconds = 0.0;  ///< Theorem-4 G search
  double window_seconds = 0.0;      ///< Poisson weight-window build
  double sweep_seconds = 0.0;       ///< the U-recursion sweep itself
  double finalize_seconds = 0.0;    ///< unscale + shift + pi-weighting
  double total_seconds = 0.0;       ///< whole solve call
  /// 2 * sweep_flops / sweep_seconds, in GFLOP/s (0 when untimed).
  double effective_gflops = 0.0;
  /// Worker busy-seconds inside the sweep's parallel regions.
  double busy_seconds = 0.0;
  /// 1 - busy / (threads * sweep wall): 0 = perfectly balanced, -> 1 when
  /// most worker capacity idles (includes serial portions of the sweep).
  double load_imbalance = 0.0;

  // -- batched-serving cache (filled by core::SolveSession queries with the
  //    session cache's cumulative totals at query time; all zero for direct
  //    solver calls, which never touch a cache) --
  std::size_t cache_hits = 0;       ///< queries served from a retained sweep
  std::size_t cache_misses = 0;     ///< queries that ran a fresh sweep
  std::size_t cache_evictions = 0;  ///< sweeps dropped by the LRU byte budget
  std::size_t cache_coalesced = 0;  ///< misses that joined an in-flight sweep
  /// Cache footprint currently exceeds its byte budget (a single retained
  /// sweep larger than the whole budget — eviction never drops the MRU
  /// entry, so the overshoot is permanent until the entry ages out).
  bool cache_over_budget = false;
};

/// One merged metric as returned by snapshot().
struct MetricSample {
  std::string name;
  std::int64_t count = 0;     ///< sum of add() counts across threads
  std::int64_t total_ns = 0;  ///< sum of add() durations across threads
  double seconds() const { return static_cast<double>(total_ns) * 1e-9; }
};

/// One gauge as returned by gauge_snapshot().
struct GaugeSample {
  std::string name;
  std::int64_t value = 0;  ///< last value set()
};

#if SOMRM_OBSERVABILITY

/// A named counter/timer pair. Handles are stable for the process lifetime;
/// add() touches only cells owned by the calling thread.
class Metric {
 public:
  /// Adds @p count occurrences and @p ns nanoseconds to this thread's cell.
  void add(std::int64_t count, std::int64_t ns = 0);

  /// Merged totals across all threads (live and retired). Safe to call
  /// concurrently with add(); the value is a momentary relaxed snapshot.
  std::int64_t count() const;
  std::int64_t total_ns() const;

 private:
  friend Metric& metric(std::string_view name);
  explicit Metric(std::size_t id) : id_(id) {}
  std::size_t id_;
};

/// Finds or creates the metric named @p name. Throws std::length_error past
/// the fixed registry capacity (64 metrics). Cache the reference in a
/// function-local static at hot call sites.
Metric& metric(std::string_view name);

/// Monotonic nanoseconds since process start (0 when telemetry is off).
std::int64_t now_ns();

/// RAII timer: adds one count plus the elapsed nanoseconds on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Metric& m) : metric_(m), start_(now_ns()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() { metric_.add(1, now_ns() - start_); }

 private:
  Metric& metric_;
  std::int64_t start_;
};

/// A named point-in-time gauge (memory footprints, cache occupancy).
/// Unlike Metric, a gauge is a single process-wide cell holding the LAST
/// value set — samples overwrite, they do not accumulate — so it models
/// "current level" quantities that have no meaningful cross-thread sum.
/// set()/value() are one relaxed atomic store/load.
class Gauge {
 public:
  void set(std::int64_t value);
  std::int64_t value() const;

 private:
  friend Gauge& gauge(std::string_view name);
  explicit Gauge(std::size_t id) : id_(id) {}
  std::size_t id_;
};

/// Finds or creates the gauge named @p name. Throws std::length_error past
/// the fixed registry capacity (32 gauges).
Gauge& gauge(std::string_view name);

/// Merged totals of every registered metric, sorted by name (deterministic
/// presentation regardless of registration order).
std::vector<MetricSample> snapshot();

/// Every registered gauge with its last-set value, sorted by name.
std::vector<GaugeSample> gauge_snapshot();

/// Zeros every metric cell. Only meaningful between solves (concurrent
/// add() calls may survive the reset).
void reset_metrics();

#else  // SOMRM_OBSERVABILITY == 0: the whole surface is an inline no-op.

class Metric {
 public:
  void add(std::int64_t, std::int64_t = 0) {}
  std::int64_t count() const { return 0; }
  std::int64_t total_ns() const { return 0; }
};

inline Metric& metric(std::string_view) {
  static Metric dummy;
  return dummy;
}

class Gauge {
 public:
  void set(std::int64_t) {}
  std::int64_t value() const { return 0; }
};

inline Gauge& gauge(std::string_view) {
  static Gauge dummy;
  return dummy;
}

inline std::int64_t now_ns() { return 0; }

class ScopedTimer {
 public:
  explicit ScopedTimer(Metric&) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
};

inline std::vector<MetricSample> snapshot() { return {}; }
inline std::vector<GaugeSample> gauge_snapshot() { return {}; }
inline void reset_metrics() {}

#endif  // SOMRM_OBSERVABILITY

/// Seconds between two now_ns() readings (0 when telemetry is off).
inline double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Human-readable per-solve summary (phase times, Theorem-4 quantities,
/// kernel throughput). Works in OFF builds too — timing lines then show
/// the structural fields only.
std::string report(const SolverStats& stats);

/// Human-readable dump of the cumulative registry (empty-bodied in OFF
/// builds). Rendered from the SAME obs::metrics_snapshot() the Prometheus
/// and JSON exporters consume (obs/export.hpp, where this is defined), so
/// the human and machine views cannot drift. Includes gauges, histogram
/// quantiles, and derived SpMV throughput when the spmv.* metrics are
/// present.
std::string report();

}  // namespace somrm::obs
