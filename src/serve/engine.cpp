#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "serve/snapshot.hpp"

namespace somrm::serve {

namespace {

/// Engine-side clock: steady_clock directly, NOT obs::now_ns — the queue
/// and serving latencies are part of the result contract and must be real
/// in SOMRM_OBSERVABILITY=OFF builds too.
std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

obs::Metric& submitted_metric() {
  static obs::Metric& m = obs::metric("serve.submitted");
  return m;
}
obs::Metric& rejected_metric() {
  static obs::Metric& m = obs::metric("serve.rejected");
  return m;
}
obs::Metric& batch_metric() {
  static obs::Metric& m = obs::metric("serve.batch");
  return m;
}
obs::Metric& queue_wait_metric() {
  static obs::Metric& m = obs::metric("serve.queue_ns");
  return m;
}
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g = obs::gauge("serve.queue.depth");
  return g;
}

}  // namespace

ServeEngine::ServeEngine(std::shared_ptr<const core::SolveSession> session,
                         ServeEngineOptions options)
    : session_(std::move(session)), options_(std::move(options)) {
  if (!session_)
    throw std::invalid_argument("ServeEngine: session must not be null");
  if (options_.max_batch == 0) options_.max_batch = 1;
  if (!options_.snapshot_path.empty())
    load_snapshot(*session_->cache(), options_.snapshot_path);
  support::MutexLock lock(join_mutex_);
  workers_.reserve(options_.num_workers);
  for (std::size_t i = 0; i < options_.num_workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ServeEngine::~ServeEngine() { stop(); }

void ServeEngine::enqueue(Pending&& p) {
  {
    support::MutexLock lock(mutex_);
    if (stopping_) {
      ++counters_.rejected_stopped;
      rejected_metric().add(1);
      throw RejectedError(RejectReason::kStopped,
                          "ServeEngine: stopped, not accepting queries");
    }
    if (queue_.size() >= options_.max_queue) {
      ++counters_.rejected_queue_full;
      rejected_metric().add(1);
      throw RejectedError(
          RejectReason::kQueueFull,
          "ServeEngine: pending queue full (" +
              std::to_string(options_.max_queue) +
              " queries); retry after draining some results");
    }
    queue_.push_back(std::move(p));
    ++counters_.submitted;
    submitted_metric().add(1);
    queue_depth_gauge().set(static_cast<std::int64_t>(queue_.size()));
  }
  // notify_all, not notify_one: the waiter this queue entry is most useful
  // to may be a group leader lingering in its batching window for exactly
  // this key, while an idle worker should also wake for a different key.
  cv_.notify_all();
}

std::future<ServeResult> ServeEngine::submit(core::SessionQuery query) {
  Pending p;
  // Malformed queries fail synchronously; the key is computed once, here.
  p.prepared = session_->prepare(std::move(query));
  p.enqueue_ns = steady_now_ns();
  std::future<ServeResult> fut = p.promise.get_future();
  enqueue(std::move(p));
  return fut;
}

void ServeEngine::submit(core::SessionQuery query, ServeCallback callback) {
  if (!callback)
    throw std::invalid_argument("ServeEngine: callback must not be empty");
  Pending p;
  p.prepared = session_->prepare(std::move(query));
  p.enqueue_ns = steady_now_ns();
  p.use_callback = true;
  p.callback = std::move(callback);
  enqueue(std::move(p));
}

void ServeEngine::gather_same_key_locked(const std::string& key,
                                         std::list<Pending>& group) {
  for (auto it = queue_.begin();
       it != queue_.end() && group.size() < options_.max_batch;) {
    if (it->prepared.sweep_key() == key) {
      auto next = std::next(it);
      group.splice(group.end(), queue_, it);
      it = next;
    } else {
      ++it;
    }
  }
}

void ServeEngine::worker_loop() {
  for (;;) {
    std::list<Pending> group;
    {
      support::MutexLock lock(mutex_);
      while (queue_.empty() && !stopping_) cv_.wait(mutex_);
      if (queue_.empty()) return;  // stopping and fully drained
      // Leader: take the oldest query, group everything already queued
      // under its sweep key, then linger up to the batching window for
      // same-key stragglers. Stopping flushes early; a straggler that
      // misses the window (or lands on another worker) forms its own
      // group and coalesces at the SweepCache instead.
      group.splice(group.end(), queue_, queue_.begin());
      const std::string key = group.front().prepared.sweep_key();
      gather_same_key_locked(key, group);
      if (options_.batch_window_ns > 0) {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::nanoseconds(options_.batch_window_ns);
        while (group.size() < options_.max_batch && !stopping_) {
          const auto now = std::chrono::steady_clock::now();
          if (now >= deadline) break;
          cv_.wait_for(mutex_, deadline - now);
          gather_same_key_locked(key, group);
        }
      }
      queue_depth_gauge().set(static_cast<std::int64_t>(queue_.size()));
    }
    run_group(std::move(group));
  }
}

bool ServeEngine::drain_one() {
  std::list<Pending> group;
  {
    support::MutexLock lock(mutex_);
    if (queue_.empty()) return false;
    group.splice(group.end(), queue_, queue_.begin());
    gather_same_key_locked(group.front().prepared.sweep_key(), group);
    queue_depth_gauge().set(static_cast<std::int64_t>(queue_.size()));
  }
  run_group(std::move(group));
  return true;
}

void ServeEngine::run_group(std::list<Pending> group) {
  if (group.empty()) return;
  const std::size_t batch_size = group.size();
  batch_metric().add(1, static_cast<std::int64_t>(batch_size));
  {
    support::MutexLock lock(mutex_);
    ++counters_.batches;
    counters_.largest_batch = std::max(counters_.largest_batch, batch_size);
  }

  // Answer and deliver one query at a time, releasing each (its result,
  // initial vector and callback) before the next is finalized: a worker
  // holds one result whatever the group size, so memory does not follow
  // how many same-key queries happened to queue up. The group shares one
  // sweep key, so once a query fails (the sweep threw) the rest get the
  // same error rather than a retried sweep each.
  const std::int64_t exec_t0 = steady_now_ns();
  std::exception_ptr error;
  std::uint64_t callback_throws = 0;
  while (!group.empty()) {
    Pending p = std::move(group.front());
    group.pop_front();
    ServeResult sr;
    if (!error) {
      try {
        sr.result = session_->query(p.prepared, &sr.record);
      } catch (...) {
        error = std::current_exception();
      }
    }
    const std::int64_t done = steady_now_ns();

    // Account the query BEFORE delivering it: the moment set_value runs a
    // client's .get() returns, and stats() must already show that query as
    // completed/failed. Only the callback-throw tally — unknowable until
    // the callback actually runs — is folded in afterwards.
    {
      support::MutexLock lock(mutex_);
      if (error)
        ++counters_.failed;
      else
        ++counters_.completed;
    }

    if (error) {
      if (p.use_callback) {
        try {
          p.callback(ServeResult{}, error);
        } catch (...) {
          ++callback_throws;
        }
      } else {
        p.promise.set_exception(error);
      }
    } else {
      sr.queue_ns = exec_t0 - p.enqueue_ns;
      sr.total_ns = done - p.enqueue_ns;
      sr.batch_size = batch_size;
      queue_wait_metric().add(1, sr.queue_ns);
      if (p.use_callback) {
        try {
          p.callback(std::move(sr), nullptr);
        } catch (...) {
          ++callback_throws;
        }
      } else {
        p.promise.set_value(std::move(sr));
      }
    }
  }

  if (callback_throws > 0) {
    support::MutexLock lock(mutex_);
    counters_.failed += callback_throws;
  }

  // Worker tick: resample the memory gauges so a long hit-only serving run
  // exports live values instead of the last cache miss's (stale-gauge
  // fix; evictions resample too, this covers the steady state).
  if constexpr (obs::kEnabled) {
    static obs::Gauge& rss_gauge = obs::gauge("mem.peak_rss_bytes");
    rss_gauge.set(obs::peak_rss_bytes());
    static obs::Gauge& cache_bytes_gauge = obs::gauge("session.cache.bytes");
    cache_bytes_gauge.set(
        static_cast<std::int64_t>(session_->cache_stats().bytes));
  }
}

void ServeEngine::stop() {
  {
    support::MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  {
    support::MutexLock lock(join_mutex_);
    for (std::thread& t : workers_) {
      if (t.joinable()) t.join();
    }
  }
  // Manual mode (and the window between "stopping" and the last join):
  // whatever was accepted must still be answered — drain inline so no
  // future is left forever pending.
  while (drain_one()) {
  }
}

ServeEngineStats ServeEngine::stats() const {
  support::MutexLock lock(mutex_);
  ServeEngineStats out = counters_;
  out.queue_depth = queue_.size();
  return out;
}

std::size_t ServeEngine::save_snapshot() const {
  if (options_.snapshot_path.empty())
    throw std::logic_error(
        "ServeEngine: save_snapshot() requires a snapshot_path");
  return serve::save_snapshot(*session_->cache(), options_.snapshot_path);
}

}  // namespace somrm::serve
