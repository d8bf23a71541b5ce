#include "core/solve_session.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/export.hpp"
#include "obs/histogram.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace somrm::core {

namespace {

/// 128-bit content hash built from two decorrelated 64-bit FNV-1a lanes.
/// Deterministic across runs and platforms of equal endianness; used only
/// as a cache key, so collisions merely alias cache entries and the lanes'
/// independence makes that astronomically unlikely for real models.
class Fnv128 {
 public:
  void update(const void* data, std::size_t bytes) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
      a_ = (a_ ^ p[i]) * kPrime;
      b_ = (b_ ^ p[i]) * kPrime;
    }
  }

  void update_u64(std::uint64_t v) { update(&v, sizeof v); }

  void update_doubles(std::span<const double> xs) {
    update_u64(xs.size());
    if (!xs.empty()) update(xs.data(), xs.size() * sizeof(double));
  }

  void update_sizes(std::span<const std::size_t> xs) {
    update_u64(xs.size());
    for (std::size_t x : xs) update_u64(static_cast<std::uint64_t>(x));
  }

  std::string hex() const {
    char buf[2 * 16 + 1];
    std::snprintf(buf, sizeof buf, "%016llx%016llx",
                  static_cast<unsigned long long>(a_),
                  static_cast<unsigned long long>(b_));
    return buf;
  }

 private:
  static constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::uint64_t a_ = 14695981039346656037ULL;
  // Second lane: offset basis perturbed by a golden-ratio constant so the
  // lanes decorrelate despite sharing the multiplier.
  std::uint64_t b_ = 14695981039346656037ULL ^ 0x9e3779b97f4a7c15ULL;
};

/// Content hash of everything the sweep reads from the model: the generator
/// CSR structure and values, drifts, and variances. The initial vector is
/// deliberately EXCLUDED — the retained panels are pi-independent, so
/// models differing only in pi must share cache entries.
std::string model_fingerprint(const SecondOrderMrm& model) {
  const linalg::CsrMatrix& q = model.generator().matrix();
  Fnv128 h;
  h.update_u64(model.num_states());
  h.update_sizes(q.row_ptr());
  h.update_sizes(q.col_idx());
  h.update_doubles(q.values());
  h.update_doubles(model.drifts());
  h.update_doubles(model.variances());
  return h.hex();
}

std::string weights_hash(std::span<const double> weights) {
  Fnv128 h;
  h.update_doubles(weights);
  return h.hex();
}

/// Serializes the solve key (everything besides the model content and the
/// weights that selects a distinct sweep) into the cache-key string. Doubles
/// go in by bit pattern: 0.1 and 0.1000000000000001 are different sweeps.
std::string solve_key(std::span<const double> times,
                      const MomentSolverOptions& options) {
  Fnv128 h;
  h.update_doubles(times);
  h.update_u64(options.max_moment);
  h.update_doubles(std::span<const double>(&options.epsilon, 1));
  h.update_doubles(std::span<const double>(&options.center, 1));
  h.update_u64(static_cast<std::uint64_t>(options.scale_policy));
  return h.hex();
}

/// Mirrors SecondOrderMrm's initial-vector validation so a session rejects
/// exactly what with_initial would, with a session-flavoured message.
void validate_query_initial(std::span<const double> initial,
                            std::size_t num_states) {
  if (initial.size() != num_states)
    throw std::invalid_argument(
        "SolveSession: query initial vector size mismatch (got " +
        std::to_string(initial.size()) + ", model has " +
        std::to_string(num_states) + " states)");
  double total = 0.0;
  for (double p : initial) {
    if (!std::isfinite(p) || p < -1e-12)
      throw std::invalid_argument(
          "SolveSession: query initial probabilities must be finite and "
          "non-negative");
    total += p;
  }
  if (std::abs(total - 1.0) > 1e-9)
    throw std::invalid_argument(
        "SolveSession: query initial distribution must sum to 1");
}

void validate_query_weights(std::span<const double> weights,
                            std::size_t num_states) {
  if (weights.size() != num_states)
    throw std::invalid_argument(
        "SolveSession: query terminal-weight vector size mismatch (got " +
        std::to_string(weights.size()) + ", model has " +
        std::to_string(num_states) + " states)");
  if (!linalg::is_nonnegative(weights))
    throw std::invalid_argument(
        "SolveSession: query terminal weights must be non-negative");
  if (!(linalg::max_elem(weights) > 0.0))
    throw std::invalid_argument(
        "SolveSession: query terminal weights must not be all zero");
}

obs::Metric& cache_hit_metric() {
  static obs::Metric& m = obs::metric("session.cache.hit");
  return m;
}
obs::Metric& cache_miss_metric() {
  static obs::Metric& m = obs::metric("session.cache.miss");
  return m;
}
obs::Metric& cache_evict_metric() {
  static obs::Metric& m = obs::metric("session.cache.evict");
  return m;
}
obs::Metric& cache_coalesced_metric() {
  static obs::Metric& m = obs::metric("session.cache.coalesced");
  return m;
}

/// Process-wide query-ID source: monotonically increasing across every
/// session so concurrent sessions' IDs interleave but never collide, and a
/// trace's "query_id" args are globally unique within a run.
std::atomic<std::uint64_t> g_next_query_id{0};

/// Process-wide session-ID source: the stamp that binds a PreparedQuery to
/// the session that prepared it (never 0, so a default PreparedQuery
/// matches no session).
std::atomic<std::uint64_t> g_next_session_id{0};

/// query_batch for either query flavour: answers in input order, appending
/// each QueryRecord to @p records when non-null.
template <class Query>
std::vector<MomentResult> answer_each(const SolveSession& session,
                                      std::span<const Query> queries,
                                      std::vector<QueryRecord>* records) {
  std::vector<MomentResult> out;
  out.reserve(queries.size());
  if (records) records->reserve(records->size() + queries.size());
  for (const Query& q : queries) {
    QueryRecord rec;
    out.push_back(session.query(q, records ? &rec : nullptr));
    if (records) records->push_back(std::move(rec));
  }
  return out;
}

/// Exact 1-based rank-ceil(q*n) order statistic of an ASCENDING-sorted
/// latency list (0 for an empty list) — the same quantile convention the
/// bucket histograms use, but at full resolution.
std::int64_t exact_quantile(const std::vector<std::int64_t>& sorted,
                            double q) {
  if (sorted.empty()) return 0;
  const double clamped = std::min(std::max(q, 0.0), 1.0);
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(clamped * static_cast<double>(sorted.size())));
  rank = std::max<std::size_t>(rank, 1);
  rank = std::min(rank, sorted.size());
  return sorted[rank - 1];
}

}  // namespace

SweepCache::SweepCache(std::size_t byte_budget) : byte_budget_(byte_budget) {}

SweepCache::EntryPtr SweepCache::get_or_compute(
    const std::string& key, const std::function<RetainedSweep()>& compute,
    Outcome* outcome) {
  // Three separate lock scopes instead of one relockable guard: the
  // capability analysis (and a reader) can follow each scope branch by
  // branch, and the compute() call is visibly outside every one of them.
  std::promise<EntryPtr> promise;
  std::shared_future<EntryPtr> inflight_fut;
  bool join_inflight = false;
  {
    support::MutexLock lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      ++counters_.hits;
      cache_hit_metric().add(1);
      if (outcome) *outcome = Outcome::kHit;
      return it->second.value;
    }
    auto in = inflight_.find(key);
    if (in != inflight_.end()) {
      // Coalesce: someone is already computing this key. Wait outside the
      // lock; the future's value is the shared sweep (or its exception).
      inflight_fut = in->second;
      join_inflight = true;
      ++counters_.coalesced;
      cache_coalesced_metric().add(1);
      if (outcome) *outcome = Outcome::kCoalesced;
    } else {
      ++counters_.misses;
      cache_miss_metric().add(1);
      if (outcome) *outcome = Outcome::kMiss;
      inflight_.emplace(key, promise.get_future().share());
    }
  }
  if (join_inflight) return inflight_fut.get();

  EntryPtr value;
  try {
    value = std::make_shared<const RetainedSweep>(compute());
  } catch (...) {
    promise.set_exception(std::current_exception());
    {
      support::MutexLock lock(mutex_);
      inflight_.erase(key);
    }
    throw;
  }
  promise.set_value(value);

  support::MutexLock lock(mutex_);
  inflight_.erase(key);
  const std::size_t bytes = value->byte_size();
  lru_.push_front(key);
  entries_[key] = Slot{value, bytes, lru_.begin()};
  bytes_ += bytes;
  evict_locked();
  return value;
}

void SweepCache::evict_locked() {
  bool evicted = false;
  while (bytes_ > byte_budget_ && entries_.size() > 1) {
    const std::string& victim = lru_.back();
    auto it = entries_.find(victim);
    bytes_ -= it->second.bytes;
    entries_.erase(it);
    lru_.pop_back();
    ++counters_.evictions;
    cache_evict_metric().add(1);
    evicted = true;
  }
  // Gauges move the moment memory is released, not at the next cache miss
  // or report() — a long hit-only serving run otherwise exports frozen
  // values that overstate the footprint by every sweep evicted since.
  if constexpr (obs::kEnabled) {
    if (evicted) {
      static obs::Gauge& cache_bytes_gauge = obs::gauge("session.cache.bytes");
      cache_bytes_gauge.set(static_cast<std::int64_t>(bytes_));
      static obs::Gauge& rss_gauge = obs::gauge("mem.peak_rss_bytes");
      rss_gauge.set(obs::peak_rss_bytes());
    }
  }
}

SweepCacheStats SweepCache::stats() const {
  support::MutexLock lock(mutex_);
  SweepCacheStats out = counters_;
  out.entries = entries_.size();
  out.bytes = bytes_;
  out.byte_budget = byte_budget_;
  out.over_budget = bytes_ > byte_budget_;
  return out;
}

std::size_t SweepCache::byte_budget() const {
  support::MutexLock lock(mutex_);
  return byte_budget_;
}

void SweepCache::set_byte_budget(std::size_t bytes) {
  support::MutexLock lock(mutex_);
  byte_budget_ = bytes;
  evict_locked();
}

void SweepCache::clear() {
  support::MutexLock lock(mutex_);
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
}

bool SweepCache::insert(const std::string& key, EntryPtr value) {
  if (!value) return false;
  support::MutexLock lock(mutex_);
  if (entries_.find(key) != entries_.end()) return false;
  const std::size_t bytes = value->byte_size();
  lru_.push_front(key);
  entries_[key] = Slot{std::move(value), bytes, lru_.begin()};
  bytes_ += bytes;
  evict_locked();
  // A restore that immediately evicted its own insertion is possible (the
  // entry stays iff it is MRU and the budget allows); report whether the
  // key is actually resident now.
  return entries_.find(key) != entries_.end();
}

std::vector<std::pair<std::string, SweepCache::EntryPtr>>
SweepCache::entries_snapshot() const {
  support::MutexLock lock(mutex_);
  std::vector<std::pair<std::string, EntryPtr>> out;
  out.reserve(entries_.size());
  for (const std::string& key : lru_) {
    auto it = entries_.find(key);
    out.emplace_back(key, it->second.value);
  }
  return out;
}

const std::shared_ptr<SweepCache>& SweepCache::global() {
  static const std::shared_ptr<SweepCache>* cache =
      new std::shared_ptr<SweepCache>(std::make_shared<SweepCache>());
  return *cache;
}

SolveSession::SolveSession(SecondOrderMrm model, std::vector<double> times,
                           MomentSolverOptions options,
                           std::shared_ptr<SweepCache> cache)
    : id_(g_next_session_id.fetch_add(1, std::memory_order_relaxed) + 1),
      solver_(std::move(model)),
      times_(std::move(times)),
      options_(options),
      cache_(cache ? std::move(cache) : SweepCache::global()) {
  validate_solver_inputs(times_, options_, "SolveSession");
  base_key_ = model_fingerprint(solver_.model()) + "|" +
              solve_key(times_, options_);
}

std::string SolveSession::sweep_key(
    std::span<const double> terminal_weights) const {
  if (terminal_weights.empty()) return base_key_ + "|plain";
  return base_key_ + "|w=" + weights_hash(terminal_weights);
}

std::size_t SolveSession::resolve_order(const SessionQuery& q) const {
  const std::size_t num_states = solver_.model().num_states();
  const std::size_t order =
      q.max_moment == SessionQuery::kSessionMax ? options_.max_moment
                                                : q.max_moment;
  if (q.time_index >= times_.size())
    throw std::invalid_argument(
        "SolveSession: query time index " + std::to_string(q.time_index) +
        " out of range (session grid has " + std::to_string(times_.size()) +
        " time points)");
  if (order > options_.max_moment)
    throw std::invalid_argument(
        "SolveSession: query moment order " + std::to_string(order) +
        " exceeds the session max_moment " +
        std::to_string(options_.max_moment));
  if (!q.initial.empty()) validate_query_initial(q.initial, num_states);
  if (!q.terminal_weights.empty())
    validate_query_weights(q.terminal_weights, num_states);
  return order;
}

void SolveSession::validate_query(const SessionQuery& q) const {
  resolve_order(q);
}

PreparedQuery SolveSession::prepare(SessionQuery q) const {
  PreparedQuery p;
  p.order_ = resolve_order(q);
  p.sweep_key_ = sweep_key(q.terminal_weights);
  p.query_ = std::move(q);
  p.session_id_ = id_;
  return p;
}

MomentResult SolveSession::query(const PreparedQuery& q,
                                 QueryRecord* record) const {
  if (q.session_id_ != id_)
    throw std::invalid_argument(
        "SolveSession: query was prepared by another session");
  return answer(q.query_, q.order_, q.sweep_key_, record);
}

MomentResult SolveSession::query(const SessionQuery& q,
                                 QueryRecord* record) const {
  const std::size_t order = resolve_order(q);
  return answer(q, order, sweep_key(q.terminal_weights), record);
}

std::vector<MomentResult> SolveSession::query_batch(
    std::span<const PreparedQuery> queries,
    std::vector<QueryRecord>* records) const {
  return answer_each(*this, queries, records);
}

std::vector<MomentResult> SolveSession::query_batch(
    std::span<const SessionQuery> queries,
    std::vector<QueryRecord>* records) const {
  return answer_each(*this, queries, records);
}

MomentResult SolveSession::answer(const SessionQuery& q, std::size_t order,
                                  const std::string& key,
                                  QueryRecord* record_out) const {
  const std::int64_t total_t0 = obs::now_ns();
  const std::span<const double> initial =
      q.initial.empty() ? std::span<const double>(solver_.model().initial())
                        : std::span<const double>(q.initial);

  const std::uint64_t query_id =
      g_next_query_id.fetch_add(1, std::memory_order_relaxed) + 1;

  SweepCache::Outcome outcome = SweepCache::Outcome::kHit;
  const SweepCache::EntryPtr sweep = cache_->get_or_compute(
      key,
      [&] {
        return solver_.sweep_retained(times_, options_, q.terminal_weights);
      },
      &outcome);
  if (outcome == SweepCache::Outcome::kMiss) {
    // Peak RSS moves on sweep computation, not on finalize-only queries;
    // sampling here (and in report()) keeps the hit path free of it.
    static obs::Gauge& rss_gauge = obs::gauge("mem.peak_rss_bytes");
    rss_gauge.set(obs::peak_rss_bytes());
  }

  static obs::Metric& finalize_metric = obs::metric("session.query.finalize");
  const std::int64_t finalize_t0 = obs::now_ns();
  MomentResult out = finalize_from_sweep(*sweep, q.time_index, initial, order);
  const std::int64_t done = obs::now_ns();
  finalize_metric.add(1, done - finalize_t0);

  // Per-query timings on top of the sweep-phase stats, plus the cache's
  // cumulative counters at query time.
  out.stats.finalize_seconds = obs::seconds_between(finalize_t0, done);
  out.stats.total_seconds = obs::seconds_between(total_t0, done);
  const SweepCacheStats cs = cache_->stats();
  out.stats.cache_hits = cs.hits;
  out.stats.cache_misses = cs.misses;
  out.stats.cache_evictions = cs.evictions;
  out.stats.cache_coalesced = cs.coalesced;
  out.stats.cache_over_budget = cs.over_budget;

  // Per-query span: histogram cells, memory gauges + counter tracks, the
  // trace event carrying the query ID, and the SessionReport record. All
  // of it reads clocks and copies already-computed values — the numeric
  // result above is untouched (bit-identity pinned by tests).
  const std::int64_t latency_ns = done - total_t0;
  const std::int64_t finalize_ns = done - finalize_t0;
  if constexpr (obs::kEnabled) {
    static obs::Histogram& latency_hist =
        obs::histogram("session.query.latency_ns");
    static obs::Histogram& finalize_hist =
        obs::histogram("session.query.finalize_ns");
    latency_hist.record(latency_ns);
    finalize_hist.record(finalize_ns);
    static obs::Gauge& cache_bytes_gauge = obs::gauge("session.cache.bytes");
    static obs::Gauge& retained_gauge =
        obs::gauge("session.sweep.retained_bytes");
    cache_bytes_gauge.set(static_cast<std::int64_t>(cs.bytes));
    retained_gauge.set(static_cast<std::int64_t>(sweep->byte_size()));
    if (obs::trace_enabled()) {
      obs::trace_complete("session.query", "session", total_t0, latency_ns,
                          "query_id", static_cast<double>(query_id), "cache",
                          static_cast<double>(static_cast<int>(outcome)));
      obs::trace_counter("session.cache.bytes",
                         static_cast<double>(cs.bytes));
      obs::trace_counter("mem.peak_rss_bytes",
                         static_cast<double>(
                             obs::gauge("mem.peak_rss_bytes").value()));
    }
  }
  {
    QueryRecord rec;
    rec.query_id = query_id;
    rec.time_index = q.time_index;
    rec.max_moment = order;
    rec.latency_ns = latency_ns;
    rec.finalize_ns = finalize_ns;
    rec.cache_outcome = outcome;
    rec.sweep_key = key;
    if (record_out) *record_out = rec;
    support::MutexLock lock(records_mutex_);
    ++queries_;
    records_.push_back(std::move(rec));
    while (records_.size() > kMaxQueryRecords) {
      records_.pop_front();
      ++dropped_records_;
    }
  }
  return out;
}

SessionReport SolveSession::report() const {
  SessionReport r;
  {
    support::MutexLock lock(records_mutex_);
    r.queries = queries_;
    r.dropped_records = dropped_records_;
    r.records.assign(records_.begin(), records_.end());
  }
  r.cache = cache_->stats();
  std::vector<std::int64_t> latencies;
  latencies.reserve(r.records.size());
  for (const QueryRecord& rec : r.records) latencies.push_back(rec.latency_ns);
  std::sort(latencies.begin(), latencies.end());
  r.latency_p50_ns = exact_quantile(latencies, 0.50);
  r.latency_p90_ns = exact_quantile(latencies, 0.90);
  r.latency_p99_ns = exact_quantile(latencies, 0.99);
  r.latency_p999_ns = exact_quantile(latencies, 0.999);
  if constexpr (obs::kEnabled) {
    static obs::Gauge& rss_gauge = obs::gauge("mem.peak_rss_bytes");
    rss_gauge.set(obs::peak_rss_bytes());
    static obs::Gauge& cache_bytes_gauge = obs::gauge("session.cache.bytes");
    cache_bytes_gauge.set(static_cast<std::int64_t>(r.cache.bytes));
  }
  return r;
}

}  // namespace somrm::core
