#include "obs/export.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include <sys/resource.h>

#include "support/thread_annotations.hpp"

namespace somrm::obs {

// ---------------------------------------------------------------------------
// Pure parts — compiled in both builds.
// ---------------------------------------------------------------------------

namespace {

/// "somrm_" prefix, dots (and any other non-[a-zA-Z0-9_]) to underscores —
/// the Prometheus metric-name charset.
std::string prom_name(const std::string& name) {
  std::string out = "somrm_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void append_json_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  out += buf;
}

/// Index of the last non-zero bucket, or SIZE_MAX when all are zero.
std::size_t last_nonzero(const std::vector<std::int64_t>& buckets) {
  std::size_t last = static_cast<std::size_t>(-1);
  for (std::size_t b = 0; b < buckets.size(); ++b)
    if (buckets[b] != 0) last = b;
  return last;
}

}  // namespace

std::int64_t peak_rss_bytes() {
  // ru_maxrss is the kernel's RSS high-water mark, the figure /proc's VmHWM
  // reports, in KiB on Linux — one syscall instead of a /proc text parse.
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::int64_t>(usage.ru_maxrss) * 1024;
}

std::string render_prometheus(const MetricsSnapshot& snap) {
  std::string out;
  for (const MetricSample& m : snap.counters) {
    const std::string base = prom_name(m.name);
    out += "# HELP " + base + "_total Cumulative count of " + m.name + ".\n";
    out += "# TYPE " + base + "_total counter\n";
    out += base + "_total ";
    append_i64(out, m.count);
    out.push_back('\n');
    if (m.total_ns != 0) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.9f", m.seconds());
      out += "# HELP " + base + "_seconds_total Cumulative seconds in " +
             m.name + ".\n";
      out += "# TYPE " + base + "_seconds_total counter\n";
      out += base + "_seconds_total " + buf + "\n";
    }
  }
  for (const GaugeSample& g : snap.gauges) {
    const std::string base = prom_name(g.name);
    out += "# HELP " + base + " Last sampled value of " + g.name + ".\n";
    out += "# TYPE " + base + " gauge\n";
    out += base + " ";
    append_i64(out, g.value);
    out.push_back('\n');
  }
  for (const HistogramSample& h : snap.histograms) {
    const std::string base = prom_name(h.name);
    out += "# HELP " + base + " Distribution of " + h.name + ".\n";
    out += "# TYPE " + base + " histogram\n";
    // Cumulative le series: our buckets are [lower, upper) over integers,
    // so le = upper - 1 is the exact inclusive bound. Trailing all-zero
    // buckets (and the INT64_MAX-bounded last one) fold into +Inf.
    std::size_t last = last_nonzero(h.buckets);
    if (last == static_cast<std::size_t>(-1) ||
        last + 1 >= kHistogramBuckets)
      last = last == static_cast<std::size_t>(-1) ? 0 : kHistogramBuckets - 2;
    std::int64_t cumulative = 0;
    for (std::size_t b = 0; b <= last && b < h.buckets.size(); ++b) {
      cumulative += h.buckets[b];
      out += base + "_bucket{le=\"";
      append_i64(out, histogram_bucket_upper(b) - 1);
      out += "\"} ";
      append_i64(out, cumulative);
      out.push_back('\n');
    }
    out += base + "_bucket{le=\"+Inf\"} ";
    append_i64(out, h.count);
    out.push_back('\n');
    out += base + "_sum ";
    append_i64(out, h.sum);
    out.push_back('\n');
    out += base + "_count ";
    append_i64(out, h.count);
    out.push_back('\n');
  }
  return out;
}

std::string render_json(const MetricsSnapshot& snap) {
  std::string out = "{\n  \"counters\": [";
  bool first = true;
  for (const MetricSample& m : snap.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"";
    append_json_escaped(out, m.name);
    out += "\", \"count\": ";
    append_i64(out, m.count);
    out += ", \"total_ns\": ";
    append_i64(out, m.total_ns);
    out += "}";
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"gauges\": [";
  first = true;
  for (const GaugeSample& g : snap.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"";
    append_json_escaped(out, g.name);
    out += "\", \"value\": ";
    append_i64(out, g.value);
    out += "}";
  }
  out += first ? "],\n" : "\n  ],\n";
  out += "  \"histograms\": [";
  first = true;
  for (const HistogramSample& h : snap.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"";
    append_json_escaped(out, h.name);
    out += "\", \"count\": ";
    append_i64(out, h.count);
    out += ", \"sum\": ";
    append_i64(out, h.sum);
    out += ", \"p50\": ";
    append_i64(out, h.quantile(0.50));
    out += ", \"p90\": ";
    append_i64(out, h.quantile(0.90));
    out += ", \"p99\": ";
    append_i64(out, h.quantile(0.99));
    out += ", \"p999\": ";
    append_i64(out, h.quantile(0.999));
    out += ", \"buckets\": [";
    bool bfirst = true;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      out += bfirst ? "" : ", ";
      bfirst = false;
      out += "{\"upper\": ";
      append_i64(out, histogram_bucket_upper(b));
      out += ", \"count\": ";
      append_i64(out, h.buckets[b]);
      out += "}";
    }
    out += "]}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

#if SOMRM_OBSERVABILITY

// ---------------------------------------------------------------------------
// Export state — mirrors trace.cpp's TraceState: env read once at first
// use, atexit flush registered on first enablement, leaked so the atexit
// handler can still reach it during shutdown.
// ---------------------------------------------------------------------------

namespace {

std::string export_format_seconds(double s) {
  char buf[64];
  if (s >= 1.0)
    std::snprintf(buf, sizeof buf, "%.3f s", s);
  else if (s >= 1e-3)
    std::snprintf(buf, sizeof buf, "%.3f ms", s * 1e3);
  else
    std::snprintf(buf, sizeof buf, "%.1f us", s * 1e6);
  return buf;
}

struct MetricsState {
  support::Mutex mutex;
  std::string path SOMRM_GUARDED_BY(mutex);  // "" = disabled
  bool atexit_registered SOMRM_GUARDED_BY(mutex) = false;
};

MetricsState& metrics_state() {
  static MetricsState* s = [] {
    auto* st = new MetricsState();
    if (const char* env = std::getenv("SOMRM_METRICS")) {
      if (*env != '\0') {
        support::MutexLock lock(st->mutex);
        st->path = env;
        st->atexit_registered = true;
        std::atexit([] { write_metrics(); });
      }
    }
    return st;
  }();
  return *s;
}

void register_metrics_atexit_locked(MetricsState& s) SOMRM_REQUIRES(s.mutex) {
  if (!s.atexit_registered) {
    s.atexit_registered = true;
    std::atexit([] { write_metrics(); });
  }
}

/// Eager SOMRM_METRICS probe. Traces read their env var lazily because
/// every trace call touches the trace state; nothing touches the metrics
/// state during a run unless a path was set explicitly, so the env hook
/// (and its atexit flush) must be armed at static-init time instead.
[[maybe_unused]] const bool g_metrics_env_probed = (metrics_state(), true);

}  // namespace

MetricsSnapshot metrics_snapshot() {
  // Refresh the peak-RSS gauge so every export carries it, without a /proc
  // read on the query hot path.
  static Gauge& rss = gauge("mem.peak_rss_bytes");
  rss.set(peak_rss_bytes());
  MetricsSnapshot snap;
  snap.counters = snapshot();
  snap.gauges = gauge_snapshot();
  snap.histograms = histogram_snapshot();
  return snap;
}

void set_metrics_path(const std::string& path) {
  write_metrics();  // flush cumulative state to the previous path, if any
  MetricsState& s = metrics_state();
  support::MutexLock lock(s.mutex);
  s.path = path;
  if (!path.empty()) register_metrics_atexit_locked(s);
}

std::string metrics_path() {
  MetricsState& s = metrics_state();
  support::MutexLock lock(s.mutex);
  return s.path;
}

void write_metrics() {
  std::string path;
  {
    MetricsState& s = metrics_state();
    support::MutexLock lock(s.mutex);
    path = s.path;
  }
  if (path.empty()) return;
  const bool json = path.size() >= 5 &&
                    path.compare(path.size() - 5, 5, ".json") == 0;
  const MetricsSnapshot snap = metrics_snapshot();
  const std::string body = json ? render_json(snap) : render_prometheus(snap);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return;  // export is best-effort; never fail the solve
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

std::string report() {
  const MetricsSnapshot snap = metrics_snapshot();
  std::ostringstream os;
  os << "somrm telemetry (cumulative)\n";
  std::int64_t spmv_flops = 0, spmv_ns = 0;
  for (const MetricSample& m : snap.counters) {
    os << "  " << m.name << ": count=" << m.count;
    if (m.total_ns > 0) os << " time=" << export_format_seconds(m.seconds());
    os << "\n";
    if (m.name == "spmv.flops") spmv_flops = m.count;
    if (m.name == "spmv.calls") spmv_ns = m.total_ns;
  }
  for (const GaugeSample& g : snap.gauges)
    os << "  gauge " << g.name << ": " << g.value << "\n";
  for (const HistogramSample& h : snap.histograms) {
    os << "  hist " << h.name << ": count=" << h.count << " sum=" << h.sum
       << " p50=" << h.quantile(0.50) << " p90=" << h.quantile(0.90)
       << " p99=" << h.quantile(0.99) << " p999=" << h.quantile(0.999)
       << "\n";
  }
  if (spmv_flops > 0 && spmv_ns > 0) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f",
                  static_cast<double>(spmv_flops) /
                      static_cast<double>(spmv_ns));
    os << "  spmv effective GFLOP/s: " << buf << "\n";
  }
  return os.str();
}

#else  // SOMRM_OBSERVABILITY == 0

std::string report() { return "somrm telemetry: compiled out\n"; }

#endif  // SOMRM_OBSERVABILITY

}  // namespace somrm::obs
