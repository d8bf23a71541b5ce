// somrm/serve/engine.hpp
//
// Concurrent serving executor over core::SolveSession.
//
// SolveSession made multi-query serving cheap (one sweep per distinct
// terminal-weight vector, finalize-only queries after that) but left the
// caller to do the batching: a client thread calling query() pays the full
// sweep latency alone on a cold key, and concurrent clients only meet at
// the SweepCache's coalescing, AFTER each has resolved its own sweep. The
// ServeEngine closes that gap at the front door:
//
//  * Admission control — submit() prepares the query synchronously
//    (SolveSession::prepare: std::invalid_argument on exactly query()'s
//    checks, then the sweep key is hashed once) and then either accepts
//    it into a bounded queue or rejects it with a typed RejectedError. It
//    NEVER blocks the client on a full queue; backpressure is the
//    caller's policy, not a hidden stall.
//  * Key-grouped batching — queued queries are grouped by their sweep-cache
//    key (SolveSession::sweep_key — the content-hash base_key plus the
//    weights hash), i.e. BEFORE any sweep runs. A group leader lingers up
//    to a short batching window for same-key stragglers, then answers the
//    group's prepared queries in order with SolveSession::query, which
//    neither revalidates nor rehashes them. Same-key groups that land on
//    different workers still coalesce at the SweepCache, so splitting is a
//    throughput wrinkle, never a correctness one — results stay
//    bit-identical to a synchronous query_batch.
//  * Streaming results — each query is delivered as soon as it is
//    answered, and released before the next is finalized, so a worker
//    holds one MomentResult at a time whatever the group size. Each
//    submit() returns a std::future (or feeds a callback) carrying the
//    MomentResult, the session's QueryRecord attribution for this query,
//    and the engine-side queue/total timings. Timings are measured with
//    steady_clock directly, so they are real even in
//    SOMRM_OBSERVABILITY=OFF builds.
//  * Warm restarts — with a snapshot_path, construction reloads the sweep
//    cache from disk (serve/snapshot.hpp) and save_snapshot() persists it,
//    so a restarted server's first queries are cache hits.
//
// Telemetry: serve.submitted / serve.rejected / serve.batch /
// serve.queue_ns metrics, a serve.queue.depth gauge, and a per-batch
// worker tick that resamples mem.peak_rss_bytes and session.cache.bytes so
// a long hit-only run exports live values (the stale-gauge fix).

#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/solve_session.hpp"
#include "support/thread_annotations.hpp"

namespace somrm::serve {

/// Why a submit() was refused admission.
enum class RejectReason : std::uint8_t {
  kQueueFull = 0,  ///< pending queue at max_queue; retry later or shed load
  kStopped = 1,    ///< engine is stopping / stopped; no new work accepted
};

/// Typed admission-control rejection thrown by submit(). Distinct from
/// std::invalid_argument (a malformed query) — a rejected query is well
/// formed and may be retried once the queue drains.
class RejectedError : public std::runtime_error {
 public:
  RejectedError(RejectReason reason, const std::string& message)
      : std::runtime_error(message), reason_(reason) {}

  RejectReason reason() const { return reason_; }

 private:
  RejectReason reason_;
};

struct ServeEngineOptions {
  /// Worker threads executing groups. 0 = manual mode: nothing executes
  /// until drain_one() is called, which unit tests use to pin grouping and
  /// admission behaviour deterministically.
  std::size_t num_workers = 2;
  /// Pending-queue bound; submit() beyond it throws RejectedError
  /// (kQueueFull) instead of blocking.
  std::size_t max_queue = 1024;
  /// How long a group leader lingers for same-key stragglers before
  /// executing, in nanoseconds. 0 = execute immediately with whatever is
  /// already queued. Stopping flushes early.
  std::int64_t batch_window_ns = 200'000;
  /// Largest group gathered under one sweep key.
  std::size_t max_batch = 256;
  /// Sweep-cache snapshot file: loaded on construction (missing file =
  /// cold start), written by save_snapshot(). Empty = no persistence.
  std::string snapshot_path;
};

/// One completed query as streamed back to the submitting client.
struct ServeResult {
  core::MomentResult result;
  /// The session's attribution record for THIS query (same content as the
  /// SessionReport ring entry) — cache outcome, sweep key, finalize time.
  core::QueryRecord record;
  std::int64_t queue_ns = 0;   ///< submit -> group execution start
  std::int64_t total_ns = 0;   ///< submit -> this query answered (latency)
  std::size_t batch_size = 0;  ///< size of the group this query rode in
};

/// Monotonic counters + current depth, as of stats().
struct ServeEngineStats {
  std::uint64_t submitted = 0;            ///< accepted into the queue
  std::uint64_t rejected_queue_full = 0;  ///< refused: queue at max_queue
  std::uint64_t rejected_stopped = 0;     ///< refused: engine stopping
  std::uint64_t completed = 0;            ///< results delivered
  std::uint64_t failed = 0;               ///< completions with an exception
  std::uint64_t batches = 0;              ///< groups executed
  std::size_t largest_batch = 0;          ///< biggest group so far
  std::size_t queue_depth = 0;            ///< pending right now
};

/// Result sink for the callback flavour of submit(). Exactly one of
/// (result, error) is meaningful: error == nullptr on success. Invoked on
/// a worker thread; must not throw (a throwing callback is swallowed and
/// counted in ServeEngineStats::failed).
using ServeCallback =
    std::function<void(ServeResult&&, std::exception_ptr error)>;

class ServeEngine {
 public:
  /// Starts options.num_workers worker threads and, when
  /// options.snapshot_path names an existing snapshot, warms the session's
  /// sweep cache from it (SnapshotError propagates — a corrupt snapshot is
  /// a refused start, not a silent cold one).
  explicit ServeEngine(std::shared_ptr<const core::SolveSession> session,
                       ServeEngineOptions options = {});

  /// stop()s and joins.
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Prepares @p query (SolveSession::prepare; throws
  /// std::invalid_argument like SolveSession::query) and enqueues it.
  /// Throws RejectedError when the queue is full or the engine is
  /// stopping — never blocks. The future carries the result or the
  /// exception answering it threw (once a query of a group fails, the
  /// group's later queries carry the same exception).
  std::future<ServeResult> submit(core::SessionQuery query)
      SOMRM_EXCLUDES(mutex_);

  /// Callback flavour: @p callback fires on a worker thread when the query
  /// completes (or fails). Admission errors still throw synchronously.
  void submit(core::SessionQuery query, ServeCallback callback)
      SOMRM_EXCLUDES(mutex_);

  /// Manual-mode pump: pops one key group (no batching-window wait) and
  /// executes it on the calling thread. Returns false when the queue was
  /// empty. Usable whatever num_workers is, but intended for 0.
  bool drain_one() SOMRM_EXCLUDES(mutex_);

  /// Stops accepting work, drains everything already accepted (workers
  /// finish their queues; in manual mode the queue is drained inline),
  /// joins the workers. Idempotent; called by the destructor.
  void stop() SOMRM_EXCLUDES(mutex_);

  ServeEngineStats stats() const SOMRM_EXCLUDES(mutex_);

  /// Persists the session's sweep cache to options.snapshot_path
  /// (atomically; see serve/snapshot.hpp). Returns the entry count.
  /// Throws std::logic_error when no snapshot_path was configured.
  std::size_t save_snapshot() const;

  const std::shared_ptr<const core::SolveSession>& session() const {
    return session_;
  }
  const ServeEngineOptions& options() const { return options_; }

 private:
  /// One accepted query waiting for (or riding in) a group.
  struct Pending {
    /// Validated and keyed at admission; its sweep_key() is the grouping
    /// identity. Released once its query has been answered and delivered.
    core::PreparedQuery prepared;
    std::int64_t enqueue_ns = 0;
    bool use_callback = false;
    std::promise<ServeResult> promise;
    ServeCallback callback;
  };

  void enqueue(Pending&& p) SOMRM_EXCLUDES(mutex_);
  void worker_loop() SOMRM_EXCLUDES(mutex_);
  /// Splices queued entries matching @p key onto @p group (up to
  /// max_batch). Caller holds mutex_.
  void gather_same_key_locked(const std::string& key,
                              std::list<Pending>& group)
      SOMRM_REQUIRES(mutex_);
  /// Answers one group query by query, delivering each completion before
  /// the next query is finalized.
  void run_group(std::list<Pending> group) SOMRM_EXCLUDES(mutex_);

  std::shared_ptr<const core::SolveSession> session_;
  ServeEngineOptions options_;

  mutable support::Mutex mutex_;
  support::CondVar cv_;
  std::list<Pending> queue_ SOMRM_GUARDED_BY(mutex_);
  bool stopping_ SOMRM_GUARDED_BY(mutex_) = false;
  ServeEngineStats counters_ SOMRM_GUARDED_BY(mutex_);

  // Started in the constructor, joined under join_mutex_ by stop() (which
  // may be called concurrently; the second caller waits, then finds the
  // threads unjoinable).
  support::Mutex join_mutex_;
  std::vector<std::thread> workers_ SOMRM_GUARDED_BY(join_mutex_);
};

}  // namespace somrm::serve
