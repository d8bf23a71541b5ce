// somrm/core/solve_session.hpp
//
// Batched multi-query serving on top of the randomization solver.
//
// Theorem 3's iterates U^(n)(k) depend only on the scaled model
// (Q', R', S') — not on the time point, the initial vector pi, or the
// moment order requested. randomization.hpp already shares one sweep across
// a time grid; this layer shares it across QUERIES: a SolveSession runs the
// fused panel sweep once per (model, time grid, epsilon, max moment,
// terminal-weight vector) key, retains the Poisson-weighted accumulator
// panels (core::RetainedSweep), and answers each query by the cheap
// finalize_from_sweep contraction — O(N * (n+1)) per query instead of a
// full O(G * nnz * n) sweep.
//
// What shares a sweep, and what does not:
//  * Different initial vectors pi — ALWAYS share. The retained panels are
//    pi-independent; pi enters only through the final dot products.
//  * Different moment orders <= the session max — share. The recursion and
//    the binomial shift transform are lower-triangular in the order, so the
//    low-order slice of the max-order sweep is bit-identical to it.
//  * Different terminal-weight vectors w — one sweep PER DISTINCT w. The
//    weighted recursion seeds U^(0)(0) = w/w_max, so the iterates
//    themselves depend on w; answering arbitrary w from one retained sweep
//    would require retaining the full N x N iterate history. Distinct w
//    sweeps are cached by content hash, and every pi / order query against
//    the same w shares that sweep.
//
// The SweepCache is thread-safe and keyed by a content hash of the model
// (generator CSR + drifts + variances; NOT the initial vector, so models
// differing only in pi share entries) plus the serialized solve key. It
// holds an LRU list under a byte budget and coalesces concurrent misses on
// the same key: the first caller computes, everyone else blocks on a
// shared future and receives the same retained sweep. Telemetry:
// session.cache.{hit,miss,evict,coalesced} counters and a
// session.query.finalize timer (obs::metric), plus cumulative cache totals
// in every returned MomentResult's SolverStats.

#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/randomization.hpp"
#include "support/thread_annotations.hpp"

namespace somrm::core {

/// Monotonic counters and occupancy of one SweepCache. Counters are
/// cumulative over the cache's lifetime; entries/bytes are current.
struct SweepCacheStats {
  std::size_t hits = 0;        ///< lookups served from a retained sweep
  std::size_t misses = 0;      ///< lookups that computed a fresh sweep
  std::size_t evictions = 0;   ///< entries dropped by the LRU byte budget
  std::size_t coalesced = 0;   ///< misses that joined an in-flight compute
  std::size_t entries = 0;     ///< retained sweeps currently held
  std::size_t bytes = 0;       ///< current footprint (RetainedSweep::byte_size)
  std::size_t byte_budget = 0; ///< eviction threshold
  /// True while bytes > byte_budget. Eviction never drops the most
  /// recently used entry, so one sweep larger than the whole budget is
  /// retained with the cache permanently over budget — this flag is how
  /// that state is surfaced (obs::report appends "over budget" to the
  /// session-cache line) instead of bytes silently exceeding byte_budget.
  bool over_budget = false;
};

/// Thread-safe keyed store of retained sweeps with LRU eviction under a
/// byte budget and request coalescing. Keys are opaque strings (SolveSession
/// derives them from content hashes); values are immutable shared sweeps,
/// so an entry evicted while a query still holds it stays valid for that
/// query. The newest entry is never evicted, so a single sweep larger than
/// the budget still caches (and evicts everything else).
class SweepCache {
 public:
  /// Default byte budget: 256 MiB of retained panels.
  static constexpr std::size_t kDefaultByteBudget =
      std::size_t{256} * 1024 * 1024;

  explicit SweepCache(std::size_t byte_budget = kDefaultByteBudget);

  using EntryPtr = std::shared_ptr<const RetainedSweep>;

  /// How one get_or_compute lookup was served — the per-query attribution
  /// SolveSession records into its SessionReport.
  enum class Outcome : std::uint8_t {
    kHit = 0,        ///< served from a retained sweep
    kMiss = 1,       ///< this caller computed a fresh sweep
    kCoalesced = 2,  ///< joined another caller's in-flight compute
  };

  /// Returns the cached sweep for @p key, computing it via @p compute on a
  /// miss. Concurrent misses on the same key are coalesced: exactly one
  /// caller runs @p compute, the rest block on its result. If compute
  /// throws, every coalesced caller sees the exception and the key is left
  /// uncached (a later call retries). When @p outcome is non-null it
  /// receives how THIS lookup was served.
  EntryPtr get_or_compute(const std::string& key,
                          const std::function<RetainedSweep()>& compute,
                          Outcome* outcome = nullptr) SOMRM_EXCLUDES(mutex_);

  SweepCacheStats stats() const SOMRM_EXCLUDES(mutex_);
  std::size_t byte_budget() const SOMRM_EXCLUDES(mutex_);
  /// Adjusts the budget, evicting LRU entries if the cache now overflows.
  void set_byte_budget(std::size_t bytes) SOMRM_EXCLUDES(mutex_);
  /// Drops every cached entry (does not reset the cumulative counters).
  void clear() SOMRM_EXCLUDES(mutex_);

  /// Seeds @p key with an already-computed sweep (snapshot restore). Counts
  /// as neither hit nor miss; an existing entry for @p key wins (the
  /// restore never clobbers fresher state) and the LRU budget applies as
  /// usual, so inserting in reverse-LRU order reproduces the saved
  /// recency. Returns false when the key was already present (or @p value
  /// is null) and nothing was inserted.
  bool insert(const std::string& key, EntryPtr value) SOMRM_EXCLUDES(mutex_);

  /// Current entries, most recently used first (snapshot save). The
  /// EntryPtrs share ownership, so the caller may serialize them after the
  /// cache has moved on.
  std::vector<std::pair<std::string, EntryPtr>> entries_snapshot() const
      SOMRM_EXCLUDES(mutex_);

  /// Process-wide default cache, shared by sessions that are not given one.
  static const std::shared_ptr<SweepCache>& global();

 private:
  struct Slot {
    EntryPtr value;
    std::size_t bytes = 0;
    std::list<std::string>::iterator lru_it;
  };

  /// Evicts LRU entries until the footprint fits the budget, keeping at
  /// least the most recently used entry. Caller holds mutex_.
  void evict_locked() SOMRM_REQUIRES(mutex_);

  mutable support::Mutex mutex_;
  std::size_t byte_budget_ SOMRM_GUARDED_BY(mutex_);
  std::size_t bytes_ SOMRM_GUARDED_BY(mutex_) = 0;
  // front = most recently used
  std::list<std::string> lru_ SOMRM_GUARDED_BY(mutex_);
  std::map<std::string, Slot> entries_ SOMRM_GUARDED_BY(mutex_);
  std::map<std::string, std::shared_future<EntryPtr>> inflight_
      SOMRM_GUARDED_BY(mutex_);
  // hits/misses/evictions/coalesced only
  SweepCacheStats counters_ SOMRM_GUARDED_BY(mutex_);
};

/// Per-query span recorded by SolveSession::query/query_batch — the "which
/// query was slow, why, and what did it cost" attribution unit. Query IDs
/// are PROCESS-WIDE monotonically increasing (a single atomic counter), so
/// IDs from concurrent sessions interleave but never collide, and the same
/// IDs appear as "query_id" args on the session.query trace events.
struct QueryRecord {
  std::uint64_t query_id = 0;   ///< process-wide monotonic, starts at 1
  std::size_t time_index = 0;   ///< the query's time-grid index
  std::size_t max_moment = 0;   ///< resolved moment order (session max
                                ///< substituted for kSessionMax)
  std::int64_t latency_ns = 0;  ///< lookup + finalize wall time, after
                                ///< validation and key (0 in OFF builds)
  std::int64_t finalize_ns = 0; ///< finalize_from_sweep portion
  SweepCache::Outcome cache_outcome = SweepCache::Outcome::kHit;
  std::string sweep_key;        ///< full cache key of the sweep that served it
};

/// Point-in-time report of one session's query history: the retained
/// per-query records (most recent kMaxQueryRecords; older ones counted in
/// dropped_records), EXACT latency quantiles over those records (sorted
/// order statistics of latency_ns, not histogram-bucket approximations),
/// and the cache's cumulative stats at report time. Works in
/// SOMRM_OBSERVABILITY=OFF builds too — records and attribution are real
/// session state, only the ns timings collapse to zero there.
struct SessionReport {
  std::uint64_t queries = 0;          ///< total answered by this session
  std::size_t dropped_records = 0;    ///< records evicted by the ring cap
  std::vector<QueryRecord> records;   ///< ascending query order
  SweepCacheStats cache;              ///< cache stats at report time
  // Exact order-statistic quantiles of records' latency_ns (rank
  // ceil(q*n), 1-based). Zero when no records are retained.
  std::int64_t latency_p50_ns = 0;
  std::int64_t latency_p90_ns = 0;
  std::int64_t latency_p99_ns = 0;
  std::int64_t latency_p999_ns = 0;
};

/// One query against a SolveSession: a time point of the session grid, a
/// moment order up to the session max, and optionally a custom initial
/// vector and/or a terminal-weight vector.
struct SessionQuery {
  /// Sentinel for max_moment: use the session's max.
  static constexpr std::size_t kSessionMax = static_cast<std::size_t>(-1);

  /// Index into the session's time grid.
  std::size_t time_index = 0;
  /// Highest moment order to return (<= the session's max_moment).
  std::size_t max_moment = kSessionMax;
  /// Initial distribution pi; empty = the model's own. Validated like
  /// SecondOrderMrm's (non-negative up to -1e-12, sums to 1 within 1e-9).
  linalg::Vec initial;
  /// Terminal weights w for the solve_terminal_weighted path; empty = the
  /// plain solve. Must be non-negative with max > 0.
  linalg::Vec terminal_weights;
};

/// A SessionQuery validated and keyed once by SolveSession::prepare: the
/// resolved moment order and the sweep-cache key ride along, so answering
/// it repeats neither the validation nor the O(N) weight hash. Bound to
/// the session that prepared it; any other session refuses it with
/// std::invalid_argument. A default-constructed PreparedQuery belongs to
/// no session.
class PreparedQuery {
 public:
  PreparedQuery() = default;

  const SessionQuery& query() const { return query_; }
  /// The moment order answered (session max substituted for kSessionMax).
  std::size_t order() const { return order_; }
  /// SolveSession::sweep_key of the query's terminal weights.
  const std::string& sweep_key() const { return sweep_key_; }

 private:
  friend class SolveSession;
  SessionQuery query_;
  std::size_t order_ = 0;
  std::string sweep_key_;
  std::uint64_t session_id_ = 0;  ///< 0 = prepared by no session
};

/// A batched query engine over one model and one time grid: the sweep runs
/// (at most) once per distinct terminal-weight vector and is shared by
/// every query. Results are bit-identical to the corresponding independent
/// RandomizationMomentSolver::solve / solve_multi / solve_terminal_weighted
/// call at the session's max_moment — a query with a lower order returns
/// exactly the first order+1 entries of that call's output (see
/// finalize_from_sweep). Sessions are cheap; the expensive state lives in
/// the (shareable) SweepCache. const and thread-safe: concurrent query()
/// calls coalesce on the cache.
class SolveSession {
 public:
  /// @p times must be strictly increasing (validate_solver_inputs);
  /// @p cache nullptr selects SweepCache::global().
  SolveSession(SecondOrderMrm model, std::vector<double> times,
               MomentSolverOptions options = {},
               std::shared_ptr<SweepCache> cache = nullptr);

  /// Validates @p q — time index, moment order, initial vector, terminal
  /// weights — throwing std::invalid_argument on the first violation, then
  /// resolves its order and computes its sweep_key. Lets a serving frontier
  /// reject bad queries at admission and hand the worker a query that
  /// needs neither check nor hash again.
  PreparedQuery prepare(SessionQuery q) const;

  /// Answers one prepared query: a cache lookup on its stored key and one
  /// finalize_from_sweep pass. Throws std::invalid_argument when @p q was
  /// prepared by another session. The returned stats carry the sweep-phase
  /// timings of the retained sweep, THIS query's finalize/total timings,
  /// and the cache's cumulative counters at query time. When @p record is
  /// non-null it receives this query's QueryRecord (the same one pushed
  /// into the session ring) — the serving engine attaches it to the
  /// streamed result so clients get attribution without racing report().
  MomentResult query(const PreparedQuery& q,
                     QueryRecord* record = nullptr) const;

  /// prepare() then query(): throws std::invalid_argument on a bad time
  /// index, order > max_moment, or an invalid initial / weight vector.
  MomentResult query(const SessionQuery& q,
                     QueryRecord* record = nullptr) const;

  /// Answers a batch in input order; queries sharing a terminal-weight
  /// vector share its sweep. Appends each query's QueryRecord to
  /// @p records (same order as the results) when non-null.
  std::vector<MomentResult> query_batch(
      std::span<const PreparedQuery> queries,
      std::vector<QueryRecord>* records = nullptr) const;
  std::vector<MomentResult> query_batch(
      std::span<const SessionQuery> queries,
      std::vector<QueryRecord>* records = nullptr) const;

  /// Validates @p q exactly as prepare() and query() do, throwing
  /// std::invalid_argument on the first violation.
  void validate_query(const SessionQuery& q) const;

  /// The full sweep-cache key the query's terminal-weight vector maps to:
  /// base_key() + "|plain" (empty weights) or + "|w=<content hash>". Two
  /// queries with equal sweep_key() are served by the same retained sweep,
  /// which is the grouping invariant the serving engine batches on.
  std::string sweep_key(std::span<const double> terminal_weights) const;

  const std::vector<double>& times() const { return times_; }
  const MomentSolverOptions& options() const { return options_; }
  const SecondOrderMrm& model() const { return solver_.model(); }
  const std::shared_ptr<SweepCache>& cache() const { return cache_; }
  SweepCacheStats cache_stats() const { return cache_->stats(); }

  /// Most recent per-query records retained per session; older records are
  /// dropped (and counted) so a long-lived serving session's footprint
  /// stays bounded.
  static constexpr std::size_t kMaxQueryRecords = 4096;

  /// Snapshot of this session's query history with exact latency
  /// quantiles (see SessionReport). Thread-safe against concurrent
  /// query() calls; also refreshes the mem.peak_rss_bytes gauge.
  SessionReport report() const;

  /// The session's cache key prefix: model content hash + solve key. Two
  /// sessions with bitwise-equal model content (initial vector excluded)
  /// and equal solve options share cache entries even across distinct
  /// model/session objects.
  const std::string& base_key() const { return base_key_; }

 private:
  /// Validates @p q and returns its resolved moment order.
  std::size_t resolve_order(const SessionQuery& q) const;
  /// The one answer path behind every query()/query_batch() flavour: @p q
  /// is already validated, @p order resolved and @p key its sweep_key.
  MomentResult answer(const SessionQuery& q, std::size_t order,
                      const std::string& key, QueryRecord* record_out) const;

  std::uint64_t id_ = 0;  ///< process-wide unique; stamps PreparedQuery

  RandomizationMomentSolver solver_;
  std::vector<double> times_;
  MomentSolverOptions options_;
  std::shared_ptr<SweepCache> cache_;
  std::string base_key_;

  // Per-query span ring (query() is const; the history is observability
  // state, not solver state).
  mutable support::Mutex records_mutex_;
  mutable std::deque<QueryRecord> records_ SOMRM_GUARDED_BY(records_mutex_);
  mutable std::uint64_t queries_ SOMRM_GUARDED_BY(records_mutex_) = 0;
  mutable std::size_t dropped_records_ SOMRM_GUARDED_BY(records_mutex_) = 0;
};

}  // namespace somrm::core
