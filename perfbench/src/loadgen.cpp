// perfbench/src/loadgen.cpp — query pool, load generator, engine metrics.

#include "loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

namespace perfbench {

using somrm::core::MomentResult;
using somrm::core::SessionQuery;
using somrm::core::SweepCache;

QueryPool::QueryPool(std::vector<somrm::linalg::Vec> initials_in,
                     std::vector<somrm::linalg::Vec> classes_in)
    : initials(std::move(initials_in)), classes(std::move(classes_in)) {
  const std::size_t times = time_grid().size();
  for (std::size_t c = 0; c < classes.size(); ++c)
    for (std::size_t t = 0; t < times; ++t)
      for (const std::size_t order : {kMaxMoment, kMaxMoment - 1})
        for (std::size_t p = 0; p < initials.size(); ++p)
          specs.push_back(Spec{t, order, p, c});
  reference.resize(specs.size());
  per_state.resize(classes.size() * times);
}

SessionQuery QueryPool::query(std::size_t i) const {
  const Spec& s = specs[i];
  SessionQuery q;
  q.time_index = s.time_index;
  q.max_moment = s.order;
  q.initial = initials[s.initial];
  q.terminal_weights = classes[s.cls];
  return q;
}

void QueryPool::build_reference(const somrm::core::SolveSession& session,
                                std::size_t first, std::size_t last) {
  const std::size_t group = initials.size();
  for (std::size_t begin = first * class_size(); begin < last * class_size();
       begin += group) {
    std::vector<SessionQuery> batch;
    for (std::size_t i = begin; i < begin + group; ++i)
      batch.push_back(query(i));
    std::vector<MomentResult> results = session.query_batch(batch);
    const Spec& s = specs[begin];
    if (s.order == kMaxMoment)
      per_state[s.cls * time_grid().size() + s.time_index] =
          results.front().per_state;
    for (std::size_t k = 0; k < group; ++k) {
      results[k].per_state.clear();
      reference[begin + k] = std::move(results[k]);
    }
  }
}

bool QueryPool::check(std::size_t i, const MomentResult& got, bool full) const {
  if (!same_bits(got, reference[i], /*per_state=*/false)) return false;
  if (!full) return true;
  const Spec& s = specs[i];
  const auto& ps = per_state[s.cls * time_grid().size() + s.time_index];
  if (got.per_state.size() != s.order + 1) return false;
  for (std::size_t j = 0; j <= s.order; ++j)
    if (!same_bits(got.per_state[j], ps[j])) return false;
  return true;
}

LoadGen::LoadGen(somrm::serve::ServeEngine& engine, const QueryPool& pool,
                 std::function<std::size_t()> next_index,
                 std::uint64_t span_parent)
    : engine_(engine),
      pool_(pool),
      next_index_(std::move(next_index)),
      span_parent_(span_parent) {}

LoadGen::~LoadGen() { drain(); }

std::int64_t LoadGen::outstanding() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return outstanding_;
}

void LoadGen::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return outstanding_ == 0; });
}

void LoadGen::submit_one(std::int64_t due_ns) {
  Completion& c = recs_.emplace_back();
  c.seq = recs_.size() - 1;
  c.pool_index = next_index_();
  if (tracer().enabled()) c.span_id = tracer().next_id();
  somrm::core::SessionQuery query = pool_.query(c.pool_index);
  if (due_ns > 0)
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due_ns)));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++outstanding_;
  }
  c.send_ns = now_ns();
  c.due_ns = due_ns > 0 ? due_ns : c.send_ns;
  try {
    engine_.submit(std::move(query),
                   [this, &c](somrm::serve::ServeResult&& r,
                              std::exception_ptr error) {
                     on_done(c, std::move(r), error);
                   });
  } catch (const somrm::serve::RejectedError&) {
    c.rejected = true;
    std::lock_guard<std::mutex> lock(mutex_);
    --outstanding_;
  }
}

void LoadGen::on_done(Completion& c, somrm::serve::ServeResult&& r,
                      const std::exception_ptr& error) {
  c.done_ns = now_ns();
  if (error) {
    c.error = true;
  } else {
    c.queue_ns = r.queue_ns;
    c.total_ns = r.total_ns;
    c.batch = r.batch_size;
    c.outcome = r.record.cache_outcome;
    c.mismatch = !pool_.check(c.pool_index, r.result,
                              c.seq % kFullCheckEvery == 0);
    if (tracer().enabled()) {
      // query: submit -> callback; queue and service are the engine's own
      // split of its enqueue -> completion interval.
      const std::int64_t enqueued = c.done_ns - c.total_ns;
      tracer().span("query", c.send_ns, c.done_ns, c.span_id, span_parent_);
      tracer().span("queue", enqueued, enqueued + c.queue_ns, c.span_id,
                    c.span_id);
      tracer().span("service", enqueued + c.queue_ns, c.done_ns, c.span_id,
                    c.span_id);
    }
  }
  // Notify under the lock: once the generator sees zero outstanding it may
  // destroy this LoadGen, so nothing may touch it after the unlock.
  std::lock_guard<std::mutex> lock(mutex_);
  --outstanding_;
  cv_.notify_one();
}

LoadGen::ClosedLoopResult LoadGen::closed_loop(double seconds,
                                               std::size_t window) {
  const std::size_t first = recs_.size();
  const std::int64_t t0 = now_ns();
  const auto span = static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t end = t0 + span;
  const std::int64_t warm =
      t0 + static_cast<std::int64_t>(kWarmupShare * static_cast<double>(span));
  // CPU of every thread but this one, sampled at slice boundaries from
  // warm-up's end to the end.
  const auto others_cpu = [] { return process_cpu_ns() - thread_cpu_ns(); };
  std::vector<std::pair<std::int64_t, std::int64_t>> marks;  // (wall, CPU)
  while (now_ns() < end) {
    const std::int64_t now = now_ns();
    if (now >= warm + static_cast<std::int64_t>(marks.size()) * kCpuSliceNs)
      marks.emplace_back(now, others_cpu());
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] {
        return outstanding_ < static_cast<std::int64_t>(window);
      });
    }
    submit_one(0);
  }
  marks.emplace_back(now_ns(), others_cpu());
  drain();
  ClosedLoopResult out;
  std::size_t done = 0;
  std::vector<std::size_t> per_slice(marks.size());
  for (std::size_t i = first; i < recs_.size(); ++i) {
    const Completion& c = recs_[i];
    if (c.rejected || c.error) continue;
    if (c.done_ns > warm && c.done_ns <= end) ++done;
    const auto after = std::upper_bound(
        marks.begin(), marks.end(), c.done_ns,
        [](std::int64_t t, const auto& m) { return t <= m.first; });
    if (after != marks.begin() && after != marks.end())
      ++per_slice[static_cast<std::size_t>(after - marks.begin())];
  }
  out.qps = static_cast<double>(done) / ns_to_s(end - warm);
  for (std::size_t s = 1; s < marks.size(); ++s)
    if (per_slice[s] > 0)
      out.cpu_ms_per_query.push_back(
          ns_to_ms(marks[s].second - marks[s - 1].second) /
          static_cast<double>(per_slice[s]));
  return out;
}

OpenLoopResult LoadGen::open_loop(double seconds, double rate) {
  OpenLoopResult out;
  out.first = recs_.size();
  const auto interval = static_cast<std::int64_t>(1e9 / rate);
  const auto total = static_cast<std::size_t>(seconds * rate);
  const std::size_t per_window = std::max<std::size_t>(1, total / kWindows);
  const std::int64_t t0 = now_ns() + 1'000'000;
  std::vector<double> lag_all;
  std::size_t k = 0;
  for (std::size_t w = 0; w < kWindows; ++w) {
    const std::size_t w_first = recs_.size();
    const std::int64_t backlog0 = outstanding();
    const StealMeter steal;
    for (std::size_t i = 0; i < per_window; ++i, ++k)
      submit_one(t0 + static_cast<std::int64_t>(k) * interval);
    const std::int64_t growth = outstanding() - backlog0;
    out.window_steal.push_back(steal.share());
    std::vector<double> lag;
    for (std::size_t i = w_first; i < recs_.size(); ++i)
      lag.push_back(ns_to_ms(recs_[i].send_ns - recs_[i].due_ns));
    lag_all.insert(lag_all.end(), lag.begin(), lag.end());
    out.window_lag_ms_p99.push_back(quantile(lag, 0.99));
    out.window_growth.push_back(static_cast<double>(growth));
    out.max_backlog_growth =
        std::max(out.max_backlog_growth, static_cast<double>(growth));
  }
  drain();
  out.last = recs_.size();
  out.lag_ms_p99 = quantile(lag_all, 0.99);
  std::vector<std::vector<double>> latency(kWindows);
  std::vector<std::size_t> order(kWindows);
  for (std::size_t w = 0; w < kWindows; ++w) {
    order[w] = w;
    for (std::size_t i = out.first + w * per_window;
         i < out.first + (w + 1) * per_window; ++i) {
      const Completion& c = recs_[i];
      if (!c.rejected && !c.error)
        latency[w].push_back(ns_to_ms(c.done_ns - c.due_ns));
    }
    out.window_p99_ms.push_back(quantile(latency[w], 0.99));
    const double max_lag =
        std::max(kMaxLagMs, kMaxLagShare * out.window_p99_ms.back());
    out.window_valid.push_back(out.window_lag_ms_p99[w] <= max_lag &&
                               out.window_growth[w] <= kMaxBacklogGrowth &&
                               out.window_steal[w] <= kMaxStealShare);
    if (!out.window_valid.back()) ++out.invalid_windows;
  }
  // The windows used: valid ones first, then the least stolen.
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (out.window_valid[a] != out.window_valid[b])
                       return static_cast<bool>(out.window_valid[a]);
                     return out.window_steal[a] < out.window_steal[b];
                   });
  std::vector<double> p50, p99, pooled;
  for (std::size_t j = 0; j < kUsedWindows; ++j) {
    const std::size_t w = order[j];
    const std::vector<double>& lat = latency[w];
    pooled.insert(pooled.end(), lat.begin(), lat.end());
    p50.push_back(quantile(lat, 0.5));
    p99.push_back(out.window_p99_ms[w]);
  }
  out.p50_ms = median(p50);
  out.p99_ms = median(p99);
  out.pooled_p99_ms = quantile(pooled, 0.99);
  out.samples = pooled.size();
  return out;
}

std::size_t LoadGen::rejected() const {
  return static_cast<std::size_t>(std::count_if(
      recs_.begin(), recs_.end(), [](const Completion& c) { return c.rejected; }));
}

std::size_t LoadGen::errors() const {
  return static_cast<std::size_t>(std::count_if(
      recs_.begin(), recs_.end(), [](const Completion& c) { return c.error; }));
}

std::size_t LoadGen::mismatches() const {
  return static_cast<std::size_t>(
      std::count_if(recs_.begin(), recs_.end(),
                    [](const Completion& c) { return c.mismatch; }));
}

void report_engine_layer(const std::deque<Completion>& recs, std::size_t first,
                         std::size_t last, Report& report) {
  std::vector<double> queue, service, batch, hit, miss, coalesced;
  for (std::size_t i = first; i < last; ++i) {
    const Completion& c = recs[i];
    if (c.rejected || c.error) continue;
    queue.push_back(ns_to_ms(c.queue_ns));
    service.push_back(ns_to_ms(c.total_ns - c.queue_ns));
    batch.push_back(static_cast<double>(c.batch));
    const double total = ns_to_ms(c.total_ns);
    switch (c.outcome) {
      case SweepCache::Outcome::kHit: hit.push_back(total); break;
      case SweepCache::Outcome::kMiss: miss.push_back(total); break;
      case SweepCache::Outcome::kCoalesced: coalesced.push_back(total); break;
    }
  }
  double batch_sum = 0.0;
  for (const double b : batch) batch_sum += b;
  report.set("engine.queue_ms_p50", quantile(queue, 0.5), "ms");
  report.set("engine.queue_ms_p99", quantile(queue, 0.99), "ms");
  report.set("engine.service_ms_p50", quantile(service, 0.5), "ms");
  report.set("engine.batch_mean",
             batch.empty() ? 0.0 : batch_sum / static_cast<double>(batch.size()),
             "queries");
  report.set("engine.hit_ms_p50", quantile(hit, 0.5), "ms");
  report.set("engine.miss_ms_p50", quantile(miss, 0.5), "ms");
  report.set("engine.coalesced_ms_p50", quantile(coalesced, 0.5), "ms");
}

void report_cache_layer(const somrm::core::SweepCacheStats& stats,
                        Report& report) {
  const double lookups =
      static_cast<double>(stats.hits + stats.misses + stats.coalesced);
  report.set("cache.hit_ratio",
             lookups > 0 ? static_cast<double>(stats.hits) / lookups : 0.0,
             "ratio");
  report.set("cache.misses", static_cast<double>(stats.misses), "count");
  report.set("cache.coalesced", static_cast<double>(stats.coalesced), "count");
  report.set("cache.evictions", static_cast<double>(stats.evictions), "count");
  report.set("cache.mb", static_cast<double>(stats.bytes) / 1e6, "MB");
}

}  // namespace perfbench
