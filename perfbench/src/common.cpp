// perfbench/src/common.cpp — clock, statistics, report, tracer and inputs.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "bench.hpp"
#include "models/onoff.hpp"
#include "obs/trace.hpp"
#include "prob/rng.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t llc_bytes() {
  // The highest cache level listed for cpu0 that holds data.
  std::size_t best_level = 0, bytes = 0;
  for (int index = 0; index < 16; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index) + "/";
    std::ifstream level_in(dir + "level"), type_in(dir + "type"),
        size_in(dir + "size");
    std::size_t level = 0;
    std::string type, size;
    if (!(level_in >> level) || !(type_in >> type) || !(size_in >> size))
      continue;
    if (type == "Instruction" || level < best_level) continue;
    std::size_t value = std::stoul(size);
    if (size.back() == 'K') value <<= 10;
    if (size.back() == 'M') value <<= 20;
    best_level = level;
    bytes = value;
  }
  return bytes;
}

double calibration_ms() {
  std::vector<double> a(1 << 14, 1.0001), b(1 << 14, 0.9999), ms;
  double sink = 0.0;
  for (int rep = 0; rep < 9; ++rep) {
    const std::int64_t t0 = now_ns();
    for (int r = 0; r < 50; ++r)
      for (std::size_t i = 0; i < a.size(); ++i) sink += a[i] * b[i] + sink * 1e-9;
    ms.push_back(ns_to_ms(now_ns() - t0));
  }
  // The sum is data-dependent on every iteration, so the loop stays.
  if (!std::isfinite(sink)) throw std::runtime_error("calibration overflowed");
  return median(ms);
}

namespace {
/// Cumulative (steal, total) CPU ticks of the VM from /proc/stat.
std::pair<double, double> cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double total = 0.0, steal = 0.0, v = 0.0;
  in >> cpu;
  for (int field = 0; field < 8 && in >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}
}  // namespace

StealMeter::StealMeter() {
  std::tie(steal0_, total0_) = cpu_ticks();
}

double StealMeter::share() const {
  const auto [steal, total] = cpu_ticks();
  return total > total0_ ? (steal - steal0_) / (total - total0_) : 0.0;
}

std::size_t Timings::clean() const {
  return static_cast<std::size_t>(
      std::count_if(steal.begin(), steal.end(),
                    [](double s) { return s <= kMaxStealShare; }));
}

std::vector<double> Timings::kept() const {
  if (clean() < 3) return seconds;
  std::vector<double> out;
  for (std::size_t i = 0; i < seconds.size(); ++i)
    if (steal[i] <= kMaxStealShare) out.push_back(seconds[i]);
  return out;
}

void Timings::append(const Timings& other) {
  seconds.insert(seconds.end(), other.seconds.begin(), other.seconds.end());
  steal.insert(steal.end(), other.steal.begin(), other.steal.end());
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value))
    throw std::runtime_error("metric " + name + " is not finite");
  metrics_[name] = Entry{value, unit};
}

double Report::get(const std::string& name) const {
  const auto it = metrics_.find(name);
  if (it == metrics_.end())
    throw std::runtime_error("metric " + name + " was not measured");
  return it->second.value;
}

void Report::fail(const std::string& what) { failures_.push_back(what); }

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

void Tracer::enable(const std::string& path) {
  somrm::obs::set_trace_path(path);
  enabled_ = somrm::obs::trace_enabled();
  offset_ns_ = now_ns() - somrm::obs::now_ns();
}

std::uint64_t Tracer::next_id() { return next_id_++; }

void Tracer::span(const char* name, std::int64_t t0_ns, std::int64_t t1_ns,
                  std::uint64_t id, std::uint64_t parent) const {
  if (!enabled_) return;
  somrm::obs::trace_complete(name, "perfbench", t0_ns - offset_ns_,
                             t1_ns - t0_ns, "id", static_cast<double>(id),
                             "parent", static_cast<double>(parent));
}

void Tracer::flush() const {
  if (enabled_) somrm::obs::write_trace();
}

const std::vector<double>& time_grid() {
  static const std::vector<double> grid{0.01, 0.02, 0.03, 0.04, 0.05};
  return grid;
}

somrm::core::MomentSolverOptions solver_options() {
  somrm::core::MomentSolverOptions opts;
  opts.max_moment = kMaxMoment;
  opts.epsilon = kEpsilon;
  return opts;
}

somrm::core::SecondOrderMrm make_model(std::size_t num_sources) {
  somrm::models::OnOffMultiplexerParams p = somrm::models::table2_params();
  p.num_sources = num_sources;
  p.capacity = static_cast<double>(num_sources);
  return somrm::models::make_onoff_multiplexer(p);
}

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t tag) {
  return seed * 0x9e3779b97f4a7c15ULL + tag * 0xbf58476d1ce4e5b9ULL + 1;
}

std::vector<somrm::linalg::Vec> make_initials(std::uint64_t seed,
                                              std::size_t count,
                                              std::size_t n) {
  somrm::prob::Rng rng(seed);
  std::vector<somrm::linalg::Vec> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    somrm::linalg::Vec pi(n);
    for (double& x : pi) x = rng.uniform01() + 1e-6;
    somrm::linalg::normalize_probability(pi);
    out.push_back(std::move(pi));
  }
  return out;
}

somrm::linalg::Vec make_weights(std::uint64_t seed, std::size_t n) {
  somrm::prob::Rng rng(seed);
  somrm::linalg::Vec w(n);
  for (double& x : w) x = 0.05 + rng.uniform01();
  return w;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

namespace {
bool same_double(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}
}  // namespace

bool same_bits(const somrm::core::MomentResult& a,
               const somrm::core::MomentResult& b, bool per_state) {
  if (!same_double(a.time, b.time) ||
      a.truncation_point != b.truncation_point ||
      !same_double(a.error_bound, b.error_bound) ||
      !same_bits(a.weighted, b.weighted))
    return false;
  if (!per_state) return true;
  if (a.per_state.size() != b.per_state.size()) return false;
  for (std::size_t j = 0; j < a.per_state.size(); ++j)
    if (!same_bits(a.per_state[j], b.per_state[j])) return false;
  return true;
}

}  // namespace perfbench
