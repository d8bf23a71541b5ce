#include "obs/telemetry.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "support/thread_annotations.hpp"

namespace somrm::obs {

namespace {

std::string format_seconds(double s) {
  char buf[64];
  if (s >= 1.0)
    std::snprintf(buf, sizeof buf, "%.3f s", s);
  else if (s >= 1e-3)
    std::snprintf(buf, sizeof buf, "%.3f ms", s * 1e3);
  else
    std::snprintf(buf, sizeof buf, "%.1f us", s * 1e6);
  return buf;
}

}  // namespace

#if SOMRM_OBSERVABILITY

namespace {

constexpr std::size_t kMaxMetrics = 64;

/// One thread's accumulator for one metric. The owning thread is the only
/// writer; the merge reader uses relaxed loads — integer sums commute, so
/// the merged totals are deterministic however threads were scheduled.
struct Cell {
  std::atomic<std::int64_t> count{0};
  std::atomic<std::int64_t> ns{0};
};

using Slots = std::array<Cell, kMaxMetrics>;

/// Registry: metric names, live per-thread arenas, and the retained totals
/// of threads that already exited (pool rebuilds on set_num_threads).
struct Registry {
  support::Mutex mutex;
  // index == metric id
  std::vector<std::string> names SOMRM_GUARDED_BY(mutex);
  // registered thread arenas (the arenas' cells are per-thread atomics and
  // stay unguarded; the pointer list itself is mutex-protected)
  std::vector<Slots*> live SOMRM_GUARDED_BY(mutex);
  std::array<std::int64_t, kMaxMetrics> retired_count SOMRM_GUARDED_BY(mutex){};
  std::array<std::int64_t, kMaxMetrics> retired_ns SOMRM_GUARDED_BY(mutex){};
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: usable during exit
  return *r;
}

struct ThreadSlots {
  Slots slots{};
  ThreadSlots() {
    Registry& r = registry();
    support::MutexLock lock(r.mutex);
    r.live.push_back(&slots);
  }
  ~ThreadSlots() {
    Registry& r = registry();
    support::MutexLock lock(r.mutex);
    for (std::size_t i = 0; i < kMaxMetrics; ++i) {
      r.retired_count[i] += slots[i].count.load(std::memory_order_relaxed);
      r.retired_ns[i] += slots[i].ns.load(std::memory_order_relaxed);
    }
    r.live.erase(std::find(r.live.begin(), r.live.end(), &slots));
  }
};

Slots& thread_slots() {
  thread_local ThreadSlots t;
  return t.slots;
}

}  // namespace

void Metric::add(std::int64_t count, std::int64_t ns) {
  Cell& cell = thread_slots()[id_];
  cell.count.fetch_add(count, std::memory_order_relaxed);
  if (ns != 0) cell.ns.fetch_add(ns, std::memory_order_relaxed);
}

std::int64_t Metric::count() const {
  Registry& r = registry();
  support::MutexLock lock(r.mutex);
  std::int64_t total = r.retired_count[id_];
  for (Slots* s : r.live)
    total += (*s)[id_].count.load(std::memory_order_relaxed);
  return total;
}

std::int64_t Metric::total_ns() const {
  Registry& r = registry();
  support::MutexLock lock(r.mutex);
  std::int64_t total = r.retired_ns[id_];
  for (Slots* s : r.live)
    total += (*s)[id_].ns.load(std::memory_order_relaxed);
  return total;
}

Metric& metric(std::string_view name) {
  Registry& r = registry();
  support::MutexLock lock(r.mutex);
  // Handles are stable: store them in a leaked deque-like vector of
  // pointers so references survive registry growth.
  static std::vector<Metric*>* handles = new std::vector<Metric*>();
  for (std::size_t i = 0; i < r.names.size(); ++i)
    if (r.names[i] == name) return *(*handles)[i];
  if (r.names.size() >= kMaxMetrics)
    throw std::length_error("obs::metric: registry capacity exceeded");
  r.names.emplace_back(name);
  handles->push_back(new Metric(r.names.size() - 1));
  return *handles->back();
}

namespace {

constexpr std::size_t kMaxGauges = 32;

/// Gauge registry: one process-wide atomic cell per gauge (last-writer
/// wins — gauges model current levels, not accumulations).
struct GaugeRegistry {
  support::Mutex mutex;
  // index == gauge id
  std::vector<std::string> names SOMRM_GUARDED_BY(mutex);
  // last-writer-wins atomics; deliberately NOT guarded (set()/value() are
  // lock-free by design)
  std::array<std::atomic<std::int64_t>, kMaxGauges> cells{};
};

GaugeRegistry& gauge_registry() {
  static GaugeRegistry* r = new GaugeRegistry();  // leaked: usable at exit
  return *r;
}

}  // namespace

void Gauge::set(std::int64_t value) {
  gauge_registry().cells[id_].store(value, std::memory_order_relaxed);
}

std::int64_t Gauge::value() const {
  return gauge_registry().cells[id_].load(std::memory_order_relaxed);
}

Gauge& gauge(std::string_view name) {
  GaugeRegistry& r = gauge_registry();
  support::MutexLock lock(r.mutex);
  static std::vector<Gauge*>* handles = new std::vector<Gauge*>();
  for (std::size_t i = 0; i < r.names.size(); ++i)
    if (r.names[i] == name) return *(*handles)[i];
  if (r.names.size() >= kMaxGauges)
    throw std::length_error("obs::gauge: registry capacity exceeded");
  r.names.emplace_back(name);
  handles->push_back(new Gauge(r.names.size() - 1));
  return *handles->back();
}

std::vector<GaugeSample> gauge_snapshot() {
  GaugeRegistry& r = gauge_registry();
  support::MutexLock lock(r.mutex);
  std::vector<GaugeSample> out(r.names.size());
  for (std::size_t i = 0; i < r.names.size(); ++i) {
    out[i].name = r.names[i];
    out[i].value = r.cells[i].load(std::memory_order_relaxed);
  }
  std::sort(out.begin(), out.end(),
            [](const GaugeSample& a, const GaugeSample& b) {
              return a.name < b.name;
            });
  return out;
}

std::int64_t now_ns() {
  static const std::chrono::steady_clock::time_point anchor =
      std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - anchor)
      .count();
}

std::vector<MetricSample> snapshot() {
  Registry& r = registry();
  support::MutexLock lock(r.mutex);
  std::vector<MetricSample> out(r.names.size());
  for (std::size_t i = 0; i < r.names.size(); ++i) {
    out[i].name = r.names[i];
    out[i].count = r.retired_count[i];
    out[i].total_ns = r.retired_ns[i];
    for (Slots* s : r.live) {
      out[i].count += (*s)[i].count.load(std::memory_order_relaxed);
      out[i].total_ns += (*s)[i].ns.load(std::memory_order_relaxed);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

void reset_metrics() {
  Registry& r = registry();
  support::MutexLock lock(r.mutex);
  r.retired_count.fill(0);
  r.retired_ns.fill(0);
  for (Slots* s : r.live) {
    for (Cell& c : *s) {
      c.count.store(0, std::memory_order_relaxed);
      c.ns.store(0, std::memory_order_relaxed);
    }
  }
}

#endif  // SOMRM_OBSERVABILITY

std::string report(const SolverStats& stats) {
  std::ostringstream os;
  os << "solver stats (" << (stats.kernel.empty() ? "?" : stats.kernel)
     << " kernel, width " << stats.panel_width << ", " << stats.threads
     << " thread" << (stats.threads == 1 ? "" : "s") << ")\n";
  os << "  G(eps) per moment:";
  for (std::size_t g : stats.truncation_points) os << " " << g;
  os << "\n  Poisson window width per time point:";
  for (std::size_t w : stats.window_widths) os << " " << w;
  os << "\n  sweep: " << stats.sweep_steps << " steps, "
     << stats.active_weight_sum << " active weights";
  if (stats.sweep_seconds > 0.0) {
    os << ", " << format_seconds(stats.sweep_seconds);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", stats.effective_gflops);
    os << " (" << buf << " GFLOP/s)";
  }
  os << "\n";
  if (stats.total_seconds > 0.0) {
    os << "  phases: scale " << format_seconds(stats.scale_seconds)
       << ", truncation " << format_seconds(stats.truncation_seconds)
       << ", windows " << format_seconds(stats.window_seconds) << ", sweep "
       << format_seconds(stats.sweep_seconds) << ", finalize "
       << format_seconds(stats.finalize_seconds) << ", total "
       << format_seconds(stats.total_seconds) << "\n";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", stats.load_imbalance);
    os << "  parallel: busy " << format_seconds(stats.busy_seconds)
       << ", load imbalance " << buf << "\n";
  }
  if (stats.cache_hits + stats.cache_misses + stats.cache_evictions +
          stats.cache_coalesced >
      0) {
    os << "  session cache: " << stats.cache_hits << " hit"
       << (stats.cache_hits == 1 ? "" : "s") << ", " << stats.cache_misses
       << " miss" << (stats.cache_misses == 1 ? "" : "es") << ", "
       << stats.cache_evictions << " evicted, " << stats.cache_coalesced
       << " coalesced"
       << (stats.cache_over_budget ? ", over budget" : "") << "\n";
  }
  return os.str();
}

}  // namespace somrm::obs
