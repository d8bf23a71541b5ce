// Tests for the solver telemetry subsystem (src/obs/): counter/timer
// accumulation and deterministic cross-thread merging, SolverStats
// population by the randomization/impulse solvers, bit-identity of solver
// output with tracing on vs off, and well-formedness of the Chrome
// trace_event JSON (parsed back by a minimal JSON parser below).
//
// Every suite is named Obs* so CI can run exactly these with
// `ctest -R '^Obs'` under SOMRM_TRACE. The assertions branch on
// obs::kEnabled where behavior legitimately differs between the ON and OFF
// builds, so this file passes in both.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/impulse_randomization.hpp"
#include "core/randomization.hpp"
#include "linalg/parallel.hpp"
#include "obs/export.hpp"
#include "obs/histogram.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace somrm {
namespace {

using linalg::Triplet;
using linalg::Vec;

core::SecondOrderMrm ring_model(std::size_t n) {
  std::vector<Triplet> rates;
  for (std::size_t i = 0; i < n; ++i)
    rates.push_back(
        {i, (i + 1) % n, 1.0 + 0.25 * static_cast<double>(i % 7)});
  return core::SecondOrderMrm(
      ctmc::Generator::from_rates(n, rates),
      Vec(n, 1.5), Vec(n, 0.5), linalg::unit_vec(n, 0));
}

std::int64_t metric_count(const char* name) {
  return obs::metric(name).count();
}

// ---------------------------------------------------------------------------
// Metric counters and timers
// ---------------------------------------------------------------------------

TEST(ObsMetricTest, CounterAccumulates) {
  obs::Metric& m = obs::metric("test.counter_accumulates");
  const std::int64_t c0 = m.count();
  const std::int64_t ns0 = m.total_ns();
  m.add(3, 100);
  m.add(2, 50);
  if (obs::kEnabled) {
    EXPECT_EQ(m.count() - c0, 5);
    EXPECT_EQ(m.total_ns() - ns0, 150);
  } else {
    EXPECT_EQ(m.count(), 0);
    EXPECT_EQ(m.total_ns(), 0);
  }
}

TEST(ObsMetricTest, SameNameYieldsSameMetric) {
  obs::Metric& a = obs::metric("test.same_name");
  obs::Metric& b = obs::metric("test.same_name");
  const std::int64_t c0 = a.count();
  b.add(1);
  if (obs::kEnabled) {
    EXPECT_EQ(a.count() - c0, 1);
  }
}

TEST(ObsMetricTest, ScopedTimerAddsOneCount) {
  obs::Metric& m = obs::metric("test.scoped_timer");
  const std::int64_t c0 = m.count();
  { obs::ScopedTimer timer(m); }
  if (obs::kEnabled) {
    EXPECT_EQ(m.count() - c0, 1);
    EXPECT_GE(m.total_ns(), 0);
  }
}

TEST(ObsMetricTest, SnapshotSortedByName) {
  obs::metric("test.zz_snap");
  obs::metric("test.aa_snap");
  const auto samples = obs::snapshot();
  if (!obs::kEnabled) {
    EXPECT_TRUE(samples.empty());
    return;
  }
  EXPECT_GE(samples.size(), 2u);
  for (std::size_t i = 1; i < samples.size(); ++i)
    EXPECT_LT(samples[i - 1].name, samples[i].name);
}

// The merged total must be exact — an integer sum over per-thread cells —
// and identical for every thread count: each of the `total` iterations
// adds exactly once, regardless of how parallel_for partitions the range
// or which pool thread runs which range.
TEST(ObsMetricTest, MergeDeterministicAcrossThreadCounts) {
  constexpr std::size_t kTotal = 10000;
  obs::Metric& m = obs::metric("test.merge_determinism");
  for (std::size_t threads : {1u, 2u, 4u, 8u}) {
    linalg::set_num_threads(threads);
    const std::int64_t before = m.count();
    linalg::parallel_for(
        kTotal,
        [&m](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) m.add(1);
        },
        /*grain=*/64);
    if (obs::kEnabled)
      EXPECT_EQ(m.count() - before, static_cast<std::int64_t>(kTotal))
          << "threads = " << threads;
    else
      EXPECT_EQ(m.count(), 0);
  }
  linalg::set_num_threads(0);
}

// Counts survive pool teardown: set_num_threads() retires the worker
// threads, whose cells must fold into the retired totals, not vanish.
TEST(ObsMetricTest, CountsSurvivePoolTeardown) {
  obs::Metric& m = obs::metric("test.retire_survival");
  linalg::set_num_threads(4);
  const std::int64_t before = m.count();
  linalg::parallel_for(
      1000, [&m](std::size_t b, std::size_t e) { m.add(static_cast<std::int64_t>(e - b)); },
      /*grain=*/8);
  linalg::set_num_threads(2);  // kills the 3-worker pool
  linalg::parallel_for(
      1000, [&m](std::size_t b, std::size_t e) { m.add(static_cast<std::int64_t>(e - b)); },
      /*grain=*/8);
  linalg::set_num_threads(0);
  if (obs::kEnabled) {
    EXPECT_EQ(m.count() - before, 2000);
  }
}

TEST(ObsMetricTest, NowNsMonotoneWhenEnabled) {
  const std::int64_t a = obs::now_ns();
  const std::int64_t b = obs::now_ns();
  if (obs::kEnabled) {
    EXPECT_GE(a, 0);
    EXPECT_GE(b, a);
  } else {
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 0);
  }
}

// ---------------------------------------------------------------------------
// SolverStats population
// ---------------------------------------------------------------------------

TEST(ObsSolverStatsTest, SolveMultiFillsStructuralFields) {
  const core::RandomizationMomentSolver solver(ring_model(64));
  core::MomentSolverOptions opts;
  opts.max_moment = 3;
  const std::vector<double> times{0.5, 1.0};
  const auto results = solver.solve_multi(times, opts);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    const obs::SolverStats& s = r.stats;
    EXPECT_EQ(s.kernel, "panel");
    EXPECT_EQ(s.panel_width, 4u);
    EXPECT_GT(s.threads, 0u);
    ASSERT_EQ(s.truncation_points.size(), 4u);
    ASSERT_EQ(s.window_widths.size(), times.size());
    for (std::size_t w : s.window_widths) EXPECT_GT(w, 0u);
    EXPECT_GT(s.sweep_steps, 0u);
    EXPECT_GT(s.sweep_flops, 0u);
    EXPECT_GT(s.active_weight_sum, 0u);
    // G_max of the sweep is the max of the per-moment G's.
    std::size_t g_max = 0;
    for (std::size_t g : s.truncation_points) g_max = std::max(g_max, g);
    EXPECT_EQ(s.sweep_steps, g_max);
    if (obs::kEnabled) {
      EXPECT_GT(s.total_seconds, 0.0);
      EXPECT_GT(s.sweep_seconds, 0.0);
      EXPECT_GT(s.effective_gflops, 0.0);
      EXPECT_GE(s.load_imbalance, 0.0);
      EXPECT_LE(s.load_imbalance, 1.0);
    } else {
      EXPECT_EQ(s.total_seconds, 0.0);
      EXPECT_EQ(s.sweep_seconds, 0.0);
      EXPECT_EQ(s.effective_gflops, 0.0);
    }
  }
}

TEST(ObsSolverStatsTest, TerminalWeightedFillsStats) {
  const core::RandomizationMomentSolver solver(ring_model(16));
  const auto res = solver.solve_terminal_weighted(0.5, linalg::ones(16));
  EXPECT_EQ(res.stats.kernel, "panel");
  EXPECT_GT(res.stats.sweep_steps, 0u);
  ASSERT_EQ(res.stats.window_widths.size(), 1u);
}

TEST(ObsSolverStatsTest, ImpulseSolverFillsStats) {
  const core::SecondOrderMrm base = ring_model(16);
  const auto uniform = linalg::CsrMatrix::from_triplets(16, 16, {});
  const core::SecondOrderImpulseMrm model(base, uniform, uniform);
  const core::ImpulseMomentSolver solver(model);
  const auto res = solver.solve(0.5);
  EXPECT_EQ(res.stats.kernel, "impulse_panel");
  EXPECT_GT(res.stats.sweep_steps, 0u);
  EXPECT_GT(res.stats.sweep_flops, 0u);
}

TEST(ObsSolverStatsTest, SweepStepMetricAdvances) {
  const core::RandomizationMomentSolver solver(ring_model(32));
  const std::int64_t before = metric_count("sweep.step");
  const auto res = solver.solve(0.5);
  if (obs::kEnabled)
    EXPECT_EQ(metric_count("sweep.step") - before,
              static_cast<std::int64_t>(res.stats.sweep_steps));
  else
    EXPECT_EQ(metric_count("sweep.step"), 0);
}

TEST(ObsReportTest, SolverReportMentionsKeyQuantities) {
  const core::RandomizationMomentSolver solver(ring_model(16));
  const auto res = solver.solve(0.5);
  const std::string text = obs::report(res.stats);
  EXPECT_NE(text.find("panel"), std::string::npos);
  EXPECT_NE(text.find("G("), std::string::npos);
  EXPECT_NE(text.find("sweep"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Minimal JSON parser (validation only) for the trace-output tests
// ---------------------------------------------------------------------------

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool parse() {
    pos_ = 0;
    const bool ok = value();
    skip_ws();
    return ok && pos_ == text_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool string_value() {
    if (!consume('"')) return false;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      ++pos_;
    }
    return pos_ < text_.size() && text_[pos_++] == '"';
  }
  bool number_value() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    return pos_ > start;
  }
  bool value() {
    skip_ws();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return object_value();
    if (c == '[') return array_value();
    if (c == '"') return string_value();
    if (text_.compare(pos_, 4, "true") == 0) return pos_ += 4, true;
    if (text_.compare(pos_, 5, "false") == 0) return pos_ += 5, true;
    if (text_.compare(pos_, 4, "null") == 0) return pos_ += 4, true;
    return number_value();
  }
  bool object_value() {
    if (!consume('{')) return false;
    if (consume('}')) return true;
    do {
      skip_ws();
      if (!string_value()) return false;
      if (!consume(':')) return false;
      if (!value()) return false;
    } while (consume(','));
    return consume('}');
  }
  bool array_value() {
    if (!consume('[')) return false;
    if (consume(']')) return true;
    do {
      if (!value()) return false;
    } while (consume(','));
    return consume(']');
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(ObsJsonValidatorTest, AcceptsAndRejectsCorrectly) {
  EXPECT_TRUE(JsonValidator(R"({"a": [1, -2.5e3, "x\"y"], "b": {}})").parse());
  EXPECT_TRUE(JsonValidator("[]").parse());
  EXPECT_FALSE(JsonValidator(R"({"a": )").parse());
  EXPECT_FALSE(JsonValidator(R"([1, 2},)").parse());
  EXPECT_FALSE(JsonValidator("").parse());
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (!f) return {};
  std::string content;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
    content.append(buf, got);
  std::fclose(f);
  return content;
}

std::string temp_trace_path(const char* tag) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "somrm_trace_" + info->test_suite_name() +
         "_" + info->name() + "_" + tag + ".json";
}

// ---------------------------------------------------------------------------
// Trace output
// ---------------------------------------------------------------------------

TEST(ObsTraceTest, WritesWellFormedJsonWithSweepEvents) {
  if (!obs::kEnabled) {
    // OFF build: the whole trace API is a no-op; nothing must be written.
    obs::set_trace_path("/nonexistent-dir/never-written.json");
    obs::write_trace();
    EXPECT_FALSE(obs::trace_enabled());
    return;
  }
  const std::string path = temp_trace_path("solve");
  obs::set_trace_path(path);
  ASSERT_TRUE(obs::trace_enabled());

  const core::RandomizationMomentSolver solver(ring_model(64));
  const auto res = solver.solve(0.5);
  obs::write_trace();
  obs::set_trace_path("");

  const std::string content = read_file(path);
  ASSERT_FALSE(content.empty()) << "trace file not written: " << path;
  EXPECT_TRUE(JsonValidator(content).parse())
      << "trace is not valid JSON:\n"
      << content.substr(0, 400);
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(content.find("\"sweep.step\""), std::string::npos);
  EXPECT_NE(content.find("\"solve_multi\""), std::string::npos);
  EXPECT_NE(content.find("\"poisson.window_width\""), std::string::npos);
  // One complete event per sweep step.
  std::size_t sweep_events = 0;
  for (std::size_t at = content.find("\"sweep.step\"");
       at != std::string::npos;
       at = content.find("\"sweep.step\"", at + 1))
    ++sweep_events;
  EXPECT_EQ(sweep_events, res.stats.sweep_steps);
  std::remove(path.c_str());
}

TEST(ObsTraceTest, SolverOutputBitIdenticalWithTraceOnAndOff) {
  const core::RandomizationMomentSolver solver(ring_model(48));
  core::MomentSolverOptions opts;
  opts.max_moment = 4;
  opts.epsilon = 1e-12;

  obs::set_trace_path("");
  const auto plain = solver.solve(0.75, opts);

  const std::string path = temp_trace_path("bitident");
  obs::set_trace_path(path);
  const auto traced = solver.solve(0.75, opts);
  obs::set_trace_path("");
  std::remove(path.c_str());

  ASSERT_EQ(plain.weighted.size(), traced.weighted.size());
  for (std::size_t j = 0; j < plain.weighted.size(); ++j)
    EXPECT_EQ(plain.weighted[j], traced.weighted[j]) << "moment " << j;
  ASSERT_EQ(plain.per_state.size(), traced.per_state.size());
  for (std::size_t j = 0; j < plain.per_state.size(); ++j)
    EXPECT_EQ(plain.per_state[j], traced.per_state[j]) << "moment " << j;
}

TEST(ObsTraceTest, CounterAndInstantEventsAreWritten) {
  if (!obs::kEnabled) return;
  const std::string path = temp_trace_path("kinds");
  obs::set_trace_path(path);
  obs::trace_counter("test.counter", 42.0);
  obs::trace_instant("test.instant", "test", "arg", 1.0);
  {
    obs::TraceScope scope("test.scope", "test");
  }
  obs::write_trace();
  obs::set_trace_path("");

  const std::string content = read_file(path);
  ASSERT_FALSE(content.empty());
  EXPECT_TRUE(JsonValidator(content).parse());
  EXPECT_NE(content.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(content.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(content.find("\"ph\": \"X\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsTraceTest, ConcurrentRecordingDuringFlushLosesNoEvents) {
  // Regression test: thread event buffers used to be drained by
  // write_trace() without synchronizing against the owning thread's
  // push_back — a documented "caller's race". Each buffer now has its own
  // mutex, so recording concurrent with a flush must neither tear the
  // vector nor drop events: every instant recorded while enabled appears
  // in the final trace exactly once.
  if (!obs::kEnabled) return;
  const std::string path = temp_trace_path("hammer");
  obs::set_trace_path(path);
  ASSERT_TRUE(obs::trace_enabled());

  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 2000;
  std::atomic<bool> start{false};
  std::atomic<bool> done{false};
  std::vector<std::thread> recorders;
  recorders.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    recorders.emplace_back([&] {
      while (!start.load(std::memory_order_relaxed)) {
      }
      for (int i = 0; i < kEventsPerThread; ++i)
        obs::trace_instant("test.hammer", "test", "i",
                           static_cast<double>(i));
    });
  std::thread flusher([&] {
    while (!done.load(std::memory_order_relaxed)) obs::write_trace();
  });
  start.store(true, std::memory_order_relaxed);
  for (std::thread& t : recorders) t.join();
  done.store(true, std::memory_order_relaxed);
  flusher.join();
  obs::write_trace();  // final rewrite carries the cumulative event list
  obs::set_trace_path("");

  const std::string content = read_file(path);
  ASSERT_FALSE(content.empty()) << "trace file not written: " << path;
  EXPECT_TRUE(JsonValidator(content).parse())
      << "trace is not valid JSON:\n"
      << content.substr(0, 400);
  std::size_t hammer_events = 0;
  for (std::size_t at = content.find("\"test.hammer\"");
       at != std::string::npos;
       at = content.find("\"test.hammer\"", at + 1))
    ++hammer_events;
  EXPECT_EQ(hammer_events,
            static_cast<std::size_t>(kThreads) * kEventsPerThread);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Gauges
// ---------------------------------------------------------------------------

TEST(ObsGaugeTest, SetAndReadLastWriterWins) {
  obs::Gauge& g = obs::gauge("test.gauge.set_read");
  g.set(7);
  g.set(42);
  if (obs::kEnabled) {
    EXPECT_EQ(g.value(), 42);
  } else {
    EXPECT_EQ(g.value(), 0);
  }
}

TEST(ObsGaugeTest, SameNameYieldsSameGauge) {
  obs::Gauge& a = obs::gauge("test.gauge.same_name");
  obs::Gauge& b = obs::gauge("test.gauge.same_name");
  a.set(11);
  if (obs::kEnabled) {
    EXPECT_EQ(b.value(), 11);
  }
}

TEST(ObsGaugeTest, SnapshotSortedByName) {
  obs::gauge("test.gauge.zz").set(1);
  obs::gauge("test.gauge.aa").set(2);
  const auto samples = obs::gauge_snapshot();
  if (!obs::kEnabled) {
    EXPECT_TRUE(samples.empty());
    return;
  }
  EXPECT_GE(samples.size(), 2u);
  for (std::size_t i = 1; i < samples.size(); ++i)
    EXPECT_LT(samples[i - 1].name, samples[i].name);
}

// ---------------------------------------------------------------------------
// Metrics export (Prometheus + JSON renderers, snapshot, file round-trip)
// ---------------------------------------------------------------------------

// A hand-built snapshot exercises the pure renderers identically in ON and
// OFF builds — they are functions of the snapshot value, not global state.
obs::MetricsSnapshot fixture_snapshot() {
  obs::MetricsSnapshot snap;
  snap.counters.push_back({"session.cache.hit", 7, 0});
  snap.counters.push_back({"sweep.step", 12, 3'000'000'000});
  snap.gauges.push_back({"mem.peak_rss_bytes", 4734976});
  obs::HistogramSample h;
  h.name = "session.query.latency_ns";
  h.buckets.assign(obs::kHistogramBuckets, 0);
  h.buckets[obs::histogram_bucket_index(1000)] = 3;
  h.buckets[obs::histogram_bucket_index(2000)] = 5;
  h.count = 8;
  h.sum = 3 * 1000 + 5 * 2000;
  snap.histograms.push_back(std::move(h));
  return snap;
}

TEST(ObsExportTest, PrometheusRenderHasAllFamilies) {
  const std::string text = obs::render_prometheus(fixture_snapshot());
  // Counters: _total always; _seconds_total only when time was recorded.
  EXPECT_NE(text.find("# TYPE somrm_session_cache_hit_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("somrm_session_cache_hit_total 7"), std::string::npos);
  EXPECT_EQ(text.find("somrm_session_cache_hit_seconds_total"),
            std::string::npos);
  EXPECT_NE(text.find("somrm_sweep_step_total 12"), std::string::npos);
  EXPECT_NE(text.find("somrm_sweep_step_seconds_total 3.000000000"),
            std::string::npos);
  // Gauge.
  EXPECT_NE(text.find("# TYPE somrm_mem_peak_rss_bytes gauge"),
            std::string::npos);
  EXPECT_NE(text.find("somrm_mem_peak_rss_bytes 4734976"), std::string::npos);
  // Histogram: cumulative buckets ending in +Inf, plus _sum and _count.
  EXPECT_NE(text.find("# TYPE somrm_session_query_latency_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("somrm_session_query_latency_ns_bucket{le=\"+Inf\"} 8"),
            std::string::npos);
  EXPECT_NE(text.find("somrm_session_query_latency_ns_sum 13000"),
            std::string::npos);
  EXPECT_NE(text.find("somrm_session_query_latency_ns_count 8"),
            std::string::npos);
  EXPECT_EQ(text.back(), '\n');
}

TEST(ObsExportTest, PrometheusBucketBoundsAreInclusiveUppers) {
  const std::string text = obs::render_prometheus(fixture_snapshot());
  // le is upper-1: the exact inclusive bound of an integer-valued bucket.
  const std::size_t idx1000 = obs::histogram_bucket_index(1000);
  const std::string le1000 =
      "{le=\"" + std::to_string(obs::histogram_bucket_upper(idx1000) - 1) +
      "\"} 3";
  EXPECT_NE(text.find(le1000), std::string::npos) << text;
  const std::size_t idx2000 = obs::histogram_bucket_index(2000);
  const std::string le2000 =
      "{le=\"" + std::to_string(obs::histogram_bucket_upper(idx2000) - 1) +
      "\"} 8";  // cumulative: 3 + 5
  EXPECT_NE(text.find(le2000), std::string::npos) << text;
}

TEST(ObsExportTest, EmptySnapshotRendersEmpty) {
  EXPECT_TRUE(obs::render_prometheus(obs::MetricsSnapshot{}).empty());
  const std::string json = obs::render_json(obs::MetricsSnapshot{});
  EXPECT_TRUE(JsonValidator(json).parse()) << json;
}

TEST(ObsExportTest, JsonRenderIsValidAndCanonical) {
  const std::string json = obs::render_json(fixture_snapshot());
  EXPECT_TRUE(JsonValidator(json).parse()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"session.cache.hit\""), std::string::npos);
  EXPECT_NE(json.find("\"mem.peak_rss_bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  // Only the two non-empty buckets appear.
  std::size_t bucket_objects = 0;
  for (std::size_t at = json.find("\"upper\""); at != std::string::npos;
       at = json.find("\"upper\"", at + 1))
    ++bucket_objects;
  EXPECT_EQ(bucket_objects, 2u);
}

TEST(ObsExportTest, PeakRssIsPositiveOnLinux) {
  // 0 is the documented fallback when /proc is unavailable; on this CI
  // platform the read must succeed and a live process has peaked above 0.
  EXPECT_GT(obs::peak_rss_bytes(), 0);
}

/// VmHWM from /proc/self/status in bytes, or -1 when it cannot be read.
std::int64_t proc_vm_hwm_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return -1;
  char line[256];
  long long kb = -1;
  while (std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      if (std::sscanf(line + 6, "%lld", &kb) != 1) kb = -1;
      break;
    }
  }
  std::fclose(f);
  return kb < 0 ? -1 : kb * 1024;
}

TEST(ObsExportTest, PeakRssIsBracketedByProcHighWaterMark) {
  // peak_rss_bytes() reads getrusage's ru_maxrss; on Linux that is the
  // same kernel high-water mark /proc reports as VmHWM, so a VmHWM read
  // just before and one just after bracket it. The bracket is widened by
  // the kernel's per-CPU RSS counter slack: getrusage reads the counters'
  // global values while /proc sums in the per-CPU deltas, which each of
  // the three RSS counters (file, anon, shmem) batches up to
  // max(32, 2 * cpus) pages per CPU. Measured: ru_maxrss up to ~170 KiB
  // below a VmHWM read just before it, on a 4-CPU Linux 6.18 host.
  const long cpus = std::max(1L, sysconf(_SC_NPROCESSORS_CONF));
  const std::int64_t slack =
      3 * cpus * std::max(32L, 2 * cpus) * sysconf(_SC_PAGESIZE);
  const std::int64_t before = proc_vm_hwm_bytes();
  const std::int64_t got = obs::peak_rss_bytes();
  const std::int64_t after = proc_vm_hwm_bytes();
  ASSERT_GT(before, 0) << "/proc/self/status has no VmHWM line";
  EXPECT_LE(before - slack, got);
  EXPECT_LE(got, after + slack);
}

TEST(ObsExportTest, SnapshotCarriesPeakRssGauge) {
  if (!obs::kEnabled) {
    const obs::MetricsSnapshot snap = obs::metrics_snapshot();
    EXPECT_TRUE(snap.counters.empty());
    EXPECT_TRUE(snap.gauges.empty());
    EXPECT_TRUE(snap.histograms.empty());
    return;
  }
  const obs::MetricsSnapshot snap = obs::metrics_snapshot();
  bool found = false;
  for (const obs::GaugeSample& g : snap.gauges)
    if (g.name == "mem.peak_rss_bytes") {
      found = true;
      EXPECT_GT(g.value, 0);
    }
  EXPECT_TRUE(found) << "metrics_snapshot() must refresh mem.peak_rss_bytes";
}

TEST(ObsExportTest, WriteMetricsRoundTripsBothFormats) {
  if (!obs::kEnabled) {
    // OFF build: enabling must be a no-op and never create a file.
    obs::set_metrics_path("/nonexistent-dir/never-written.prom");
    obs::write_metrics();
    EXPECT_TRUE(obs::metrics_path().empty());
    return;
  }
  obs::metric("test.export.roundtrip").add(1, 500);
  obs::histogram("test.export.latency").record(1234);

  const std::string prom_path = ::testing::TempDir() + "somrm_export_rt.prom";
  obs::set_metrics_path(prom_path);
  EXPECT_EQ(obs::metrics_path(), prom_path);
  obs::write_metrics();
  const std::string prom = read_file(prom_path);
  ASSERT_FALSE(prom.empty()) << "metrics file not written: " << prom_path;
  EXPECT_NE(prom.find("somrm_test_export_roundtrip_total"),
            std::string::npos);
  EXPECT_NE(prom.find("somrm_test_export_latency_bucket"), std::string::npos);

  const std::string json_path = ::testing::TempDir() + "somrm_export_rt.json";
  obs::set_metrics_path(json_path);
  obs::write_metrics();
  obs::set_metrics_path("");
  const std::string json = read_file(json_path);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(JsonValidator(json).parse()) << json.substr(0, 400);
  EXPECT_NE(json.find("\"test.export.latency\""), std::string::npos);
  std::remove(prom_path.c_str());
  std::remove(json_path.c_str());
}

TEST(ObsExportTest, SolverOutputBitIdenticalWithMetricsOnAndOff) {
  const core::RandomizationMomentSolver solver(ring_model(48));
  core::MomentSolverOptions opts;
  opts.max_moment = 4;
  opts.epsilon = 1e-12;

  obs::set_metrics_path("");
  const auto plain = solver.solve(0.75, opts);

  const std::string path = ::testing::TempDir() + "somrm_bitident_m.prom";
  obs::set_metrics_path(path);
  const auto metered = solver.solve(0.75, opts);
  obs::write_metrics();
  obs::set_metrics_path("");
  std::remove(path.c_str());

  ASSERT_EQ(plain.weighted.size(), metered.weighted.size());
  for (std::size_t j = 0; j < plain.weighted.size(); ++j)
    EXPECT_EQ(plain.weighted[j], metered.weighted[j]) << "moment " << j;
  ASSERT_EQ(plain.per_state.size(), metered.per_state.size());
  for (std::size_t j = 0; j < plain.per_state.size(); ++j)
    EXPECT_EQ(plain.per_state[j], metered.per_state[j]) << "moment " << j;
}

TEST(ObsReportTest, CumulativeReportRendersGaugesAndHistograms) {
  obs::gauge("test.report.gauge").set(99);
  obs::histogram("test.report.hist").record(1000);
  const std::string text = obs::report();
  if (!obs::kEnabled) {
    EXPECT_NE(text.find("compiled out"), std::string::npos);
    return;
  }
  EXPECT_NE(text.find("gauge test.report.gauge: 99"), std::string::npos);
  EXPECT_NE(text.find("hist test.report.hist:"), std::string::npos);
  EXPECT_NE(text.find("p99"), std::string::npos);
}

}  // namespace
}  // namespace somrm
