// perfbench/src/loadgen.hpp
//
// Single-threaded load generator over serve::ServeEngine. Queries are drawn
// from a pool of distinct queries whose reference answers were computed
// beforehand by a synchronous SolveSession::query_batch on an independent
// session and cache; every completion is checked bit for bit against its
// reference on the engine worker that delivers it, after its completion
// time has been taken.
//
// Two shapes:
//  * closed_loop — at most `window` queries outstanding; the next query is
//    sent when one completes. Gives capacity (queries per second) and the
//    CPU time the engine spent per completed query.
//  * open_loop — queries are due on a fixed schedule at `rate`, whatever
//    the engine does; each is timed from its due time, not its send time.
//    The phase is cut into kWindows windows; a window in which the
//    generator ran late (lag p99 above kMaxLagMs, or a tenth of the
//    window's latency p99 if that is larger: the process did not get the
//    CPU, so the window measures the host, not the engine), the hypervisor
//    stole more than kMaxStealShare of the CPU, or the backlog grew (by
//    more than kMaxBacklogGrowth) is flagged invalid. The latency quantiles
//    use a fixed number of windows, kUsedWindows: valid ones first, then
//    the least stolen. A fixed count keeps the estimator the same from run
//    to run; leaving out every invalid window made it jump between "clean
//    windows" and "all windows" as the host's steal came and went.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "bench.hpp"
#include "serve/engine.hpp"

namespace perfbench {

/// The distinct queries a workload draws from, and their reference answers.
/// A query is (time index, moment order, initial vector, weight class);
/// the SessionQuery is built at send time so the pool holds each vector
/// once. Per-state reference moments depend only on (class, time), so they
/// are kept once per pair, at the session's max order.
struct QueryPool {
  struct Spec {
    std::size_t time_index = 0;
    std::size_t order = 0;
    std::size_t initial = 0;
    std::size_t cls = 0;
  };
  std::vector<somrm::linalg::Vec> initials;
  /// Terminal-weight vector per class; an empty vector is the plain solve.
  std::vector<somrm::linalg::Vec> classes;
  /// Class-major, then time, order (kMaxMoment, kMaxMoment - 1), initial.
  std::vector<Spec> specs;
  /// Per spec, without per-state moments.
  std::vector<somrm::core::MomentResult> reference;
  /// per_state[cls * times + time_index] at kMaxMoment.
  std::vector<std::vector<somrm::linalg::Vec>> per_state;

  QueryPool(std::vector<somrm::linalg::Vec> initials_in,
            std::vector<somrm::linalg::Vec> classes_in);
  std::size_t size() const { return specs.size(); }
  /// Queries per class.
  std::size_t class_size() const { return specs.size() / classes.size(); }
  somrm::core::SessionQuery query(std::size_t i) const;
  /// Answers classes [first, last) with synchronous query_batch calls on
  /// @p session, one (class, time, order) group at a time.
  void build_reference(const somrm::core::SolveSession& session,
                       std::size_t first, std::size_t last);
  /// True when @p got matches spec @p i bit for bit (per-state moments too
  /// when @p full).
  bool check(std::size_t i, const somrm::core::MomentResult& got,
             bool full) const;
};

/// One sent query, filled by the generator (due/send) and by the engine
/// callback (the rest).
struct Completion {
  std::size_t seq = 0;
  std::size_t pool_index = 0;
  std::int64_t due_ns = 0;
  std::int64_t send_ns = 0;
  std::int64_t done_ns = 0;
  std::int64_t queue_ns = 0;  ///< ServeResult::queue_ns
  std::int64_t total_ns = 0;  ///< ServeResult::total_ns
  std::size_t batch = 0;
  somrm::core::SweepCache::Outcome outcome =
      somrm::core::SweepCache::Outcome::kHit;
  std::uint64_t span_id = 0;
  bool rejected = false;
  bool error = false;
  bool mismatch = false;
};

/// Open-loop validity and latency of one open_loop() phase.
struct OpenLoopResult {
  /// Medians over the windows used of each window's latency p50 and p99
  /// (due -> completion): a typical window, which one stalled window cannot
  /// move.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double pooled_p99_ms = 0.0;  ///< p99 of all latencies of those windows
  std::size_t samples = 0;     ///< ... and how many there were
  double lag_ms_p99 = 0.0;         ///< send - due over the whole phase
  double max_backlog_growth = 0.0; ///< worst window's backlog growth
  std::size_t invalid_windows = 0;
  std::vector<bool> window_valid;         ///< per window
  std::vector<double> window_lag_ms_p99;  ///< per window
  std::vector<double> window_growth;      ///< per window
  std::vector<double> window_steal;       ///< per window, share stolen
  std::vector<double> window_p99_ms;      ///< per window, due -> completion
  std::size_t first = 0;  ///< completions [first, last) belong to the phase
  std::size_t last = 0;
};

class LoadGen {
 public:
  /// A window is invalid when the generator's send lag p99 exceeds the
  /// larger of kMaxLagMs and kMaxLagShare of the window's latency p99: the
  /// generator ran late against the tail it measures.
  static constexpr double kMaxLagMs = 1.0;
  static constexpr double kMaxLagShare = 0.1;
  /// ... or when the outstanding count grew by more than this across it.
  static constexpr std::int64_t kMaxBacklogGrowth = 32;
  /// Windows per open-loop phase, and how many of them the latency
  /// quantiles use.
  static constexpr std::size_t kWindows = 10;
  static constexpr std::size_t kUsedWindows = kWindows / 2;
  /// Share of a closed loop left out of its completion rate.
  static constexpr double kWarmupShare = 0.2;
  static constexpr std::int64_t kCpuSliceNs = 500'000'000;
  /// Every k-th completion also compares all per-state moments.
  static constexpr std::size_t kFullCheckEvery = 32;

  LoadGen(somrm::serve::ServeEngine& engine, const QueryPool& pool,
          std::function<std::size_t()> next_index, std::uint64_t span_parent);
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;
  ~LoadGen();

  /// Completions per second over the phase after a warm-up of
  /// kWarmupShare of it (a cold engine's first sweeps), and, per
  /// kCpuSliceNs slice of the same span, the CPU time of every thread but
  /// the generator's (the engine's workers and the sweep pool) per
  /// completion in that slice. A median over slices leaves out the bursts
  /// in which the host slowed the VM's cores.
  struct ClosedLoopResult {
    double qps = 0.0;
    std::vector<double> cpu_ms_per_query;
  };
  ClosedLoopResult closed_loop(double seconds, std::size_t window);
  OpenLoopResult open_loop(double seconds, double rate);
  /// Waits until every sent query has completed.
  void drain();

  const std::deque<Completion>& completions() const { return recs_; }
  std::size_t rejected() const;
  std::size_t errors() const;
  std::size_t mismatches() const;

 private:
  /// Draws the next query, builds it, waits until @p due_ns (0: send now)
  /// and submits it. Building first keeps the copy of its vectors off the
  /// schedule.
  void submit_one(std::int64_t due_ns);
  void on_done(Completion& c, somrm::serve::ServeResult&& r,
               const std::exception_ptr& error);
  std::int64_t outstanding() const;

  somrm::serve::ServeEngine& engine_;
  const QueryPool& pool_;
  std::function<std::size_t()> next_index_;
  std::uint64_t span_parent_;
  std::deque<Completion> recs_;  // appended by the generator thread only

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::int64_t outstanding_ = 0;  // guarded by mutex_
};

/// Engine-layer metrics over completions [first, last): engine.queue_ms_p50
/// / _p99, engine.service_ms_p50, engine.batch_mean and the total latency
/// split by cache outcome (engine.hit_ms_p50 / miss_ms_p50 /
/// coalesced_ms_p50; 0 when no completion had that outcome).
void report_engine_layer(const std::deque<Completion>& recs, std::size_t first,
                         std::size_t last, Report& report);

/// cache.* metrics from the session cache's cumulative stats.
void report_cache_layer(const somrm::core::SweepCacheStats& stats,
                        Report& report);

}  // namespace perfbench
