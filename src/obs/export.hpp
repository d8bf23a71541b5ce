// somrm/obs/export.hpp
//
// Metrics export layer: one canonical registry snapshot (counters, gauges,
// histograms) rendered three ways — Prometheus text exposition, a JSON
// document, and the human-readable obs::report() dump. All three render
// from the SAME MetricsSnapshot, so the views cannot drift.
//
// Runtime enablement mirrors traces (obs/trace.hpp): set
// SOMRM_METRICS=<path> in the environment (read once at first use) or call
// set_metrics_path(). write_metrics() — registered atexit on first
// enablement — dumps the cumulative registry to the path; a path ending in
// ".json" selects the JSON document, anything else the Prometheus text
// format. Writes are best-effort: a failed open never fails the solve.
//
// Prometheus naming: metric names are prefixed "somrm_" and dots become
// underscores. Counters end in "_total" (plus "_seconds_total" when the
// metric carries time); gauges keep the bare name; histograms emit the
// standard cumulative "_bucket{le=...}" series (trailing all-zero buckets
// elided), "_sum", and "_count".
//
// Under -DSOMRM_OBSERVABILITY=OFF the snapshot is empty, SOMRM_METRICS is
// ignored, and no file is ever written; the pure renderers stay available
// (they are functions of the snapshot value, not of global state).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.hpp"
#include "obs/telemetry.hpp"

namespace somrm::obs {

/// One coherent sample of the whole registry. Every exporter (Prometheus,
/// JSON, report()) consumes this struct, nothing else.
struct MetricsSnapshot {
  std::vector<MetricSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

/// Peak resident set size of this process in bytes (getrusage's
/// ru_maxrss: on Linux the high-water mark /proc reports as VmHWM, read
/// without summing the kernel's per-CPU RSS deltas, so it can differ from
/// VmHWM by that batching slack), or 0 when the call fails. One syscall,
/// cheap enough for the engine's per-batch tick. A pure system read —
/// available in ON and OFF builds.
std::int64_t peak_rss_bytes();

/// Renders @p snap in Prometheus text exposition format (ends with a
/// trailing newline; empty registry renders to an empty string).
std::string render_prometheus(const MetricsSnapshot& snap);

/// Renders @p snap as the canonical JSON document:
///   {"counters": [{"name", "count", "total_ns"}...],
///    "gauges": [{"name", "value"}...],
///    "histograms": [{"name", "count", "sum", "p50", "p90", "p99", "p999",
///                    "buckets": [{"upper", "count"}...]}...]}
/// Arrays are sorted by name; bucket lists carry only non-empty buckets.
std::string render_json(const MetricsSnapshot& snap);

#if SOMRM_OBSERVABILITY

/// Samples the registry: every counter, gauge, and histogram, each list
/// sorted by name. Refreshes the "mem.peak_rss_bytes" gauge first so
/// exports always carry the current peak RSS.
MetricsSnapshot metrics_snapshot();

/// Enables metrics export to @p path ("" disables). Also the hook
/// SOMRM_METRICS resolves to. Registers the atexit flush on first
/// enablement.
void set_metrics_path(const std::string& path);

/// Currently configured path ("" when disabled).
std::string metrics_path();

/// Writes the cumulative registry to the configured path now (format by
/// extension: ".json" selects JSON, anything else Prometheus text). No-op
/// when disabled; repeated calls each rewrite the complete cumulative
/// state. Best-effort: failures are silent.
void write_metrics();

#else  // SOMRM_OBSERVABILITY == 0

inline MetricsSnapshot metrics_snapshot() { return {}; }
inline void set_metrics_path(const std::string&) {}
inline std::string metrics_path() { return {}; }
inline void write_metrics() {}

#endif  // SOMRM_OBSERVABILITY

}  // namespace somrm::obs
