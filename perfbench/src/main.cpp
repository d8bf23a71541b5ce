// perfbench/src/main.cpp — the somrm benchmark program.
//
//   perfbench --workload solve_50k|serve_hit_50k|serve_churn_2k --seed N
//             --seconds S --trace 0|1 [--scratch-dir DIR] [--trace-out FILE]
//             [--record FILE] [--git-sha SHA] [--src-digest HEX]
//
// Untraced (--trace 0): runs the workload once and reports its end-to-end
// metrics. Traced (--trace 1): runs it untraced, then again with spans
// recorded (obs/trace's Chrome trace-event JSON, written to --trace-out)
// plus the per-layer rungs, and reports the per-layer metrics of the traced
// pass; trace_overhead.* is traced minus untraced.
//
// Every metric is printed as "name value unit", then a fingerprint line
// (host and build configuration), then, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit status: 0 when every
// answer passed its oracle, 1 when one did not, 2 on a usage error, 3 when
// the run could not be completed (no result line then).

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "linalg/parallel.hpp"

namespace {

using perfbench::Args;
using perfbench::Report;

const std::vector<std::string> kEndToEnd = {
    "setup_s", "cpu_ms_per_query", "peak_rss_mb"};

const std::vector<std::string> kPerLayer = {
    "qps", "p50_ms", "p99_ms", "solve_s", "solve_1t_s",
    "linalg.spmm_ms", "linalg.spmm_gflops", "linalg.bytes_per_spmm",
    "linalg.flops_per_byte", "linalg.pfor_us", "linalg.scaling_eff",
    "prob.window_ms", "prob.trunc_ms",
    "core.sweep_s", "core.finalize_ms", "core.sweep_steps", "core.sweep_gflops",
    "core.load_imbalance", "core.retained_mb", "core.working_set_mb",
    "core.working_set_llc",
    "session.hit_ms", "session.result_kb",
    "cache.hit_ratio", "cache.misses", "cache.coalesced", "cache.evictions",
    "cache.mb",
    "engine.queue_ms_p50", "engine.queue_ms_p99", "engine.service_ms_p50",
    "engine.batch_mean", "engine.batches", "engine.rejected",
    "engine.hit_ms_p50", "engine.miss_ms_p50", "engine.coalesced_ms_p50",
    "snapshot.load_s", "snapshot.load_mbps", "snapshot.save_s", "snapshot.mb",
    "class.plain_ms_p50", "class.weighted_ms_p50",
    "gen.lag_ms_p99", "openloop.backlog_growth", "openloop.invalid_windows",
    "host.steal_pct", "host.calib_ms", "failed_frac",
    "trace_overhead.cpu_ms_per_query", "trace_overhead.solve_s",
    "trace_overhead.p50_ms"};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metric_json(const std::string& name,
                        const perfbench::Report::Entry& e) {
  return json_string(name) + ": {\"value\": " + json_number(e.value) +
         ", \"unit\": " + json_string(e.unit) + "}";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  return "unknown";
}

std::string affinity_mask(std::size_t* count) {
  cpu_set_t set;
  CPU_ZERO(&set);
  *count = 0;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return "unknown";
  std::string hex;
  for (int base = CPU_SETSIZE - 4; base >= 0; base -= 4) {
    int nibble = 0;
    for (int b = 0; b < 4; ++b)
      if (CPU_ISSET(base + b, &set)) {
        nibble |= 1 << b;
        ++*count;
      }
    if (nibble != 0 || !hex.empty()) hex += "0123456789abcdef"[nibble];
  }
  return "0x" + (hex.empty() ? std::string("0") : hex);
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Host and build configuration. Results compare only when every field but
/// git_sha, src_digest and seed is equal (perfbench/compare.py).
std::string fingerprint(const Args& args) {
  std::size_t cpus = 0;
  const std::string mask = affinity_mask(&cpus);
  std::ostringstream os;
  os << "{\"cpu_model\": " << json_string(cpu_model())
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"affinity\": " << json_string(mask)
     << ", \"affinity_cpus\": " << cpus
     << ", \"default_threads\": " << somrm::linalg::default_num_threads()
     << ", \"llc_bytes\": " << perfbench::llc_bytes()
     << ", \"compiler\": " << json_string(compiler())
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"cxx_flags\": " << json_string(PERFBENCH_CXX_FLAGS)
     << ", \"observability\": " << SOMRM_OBSERVABILITY
     << ", \"native\": " << SOMRM_NATIVE
     << ", \"checked\": " << SOMRM_CHECKED
     << ", \"git_sha\": " << json_string(args.git_sha)
     << ", \"src_digest\": " << json_string(args.src_digest)
     << ", \"seed\": " << args.seed << "}";
  return os.str();
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "solve_50k|serve_hit_50k|serve_churn_2k --seed N --seconds S "
               "--trace 0|1 [--scratch-dir DIR] [--trace-out FILE] "
               "[--record FILE] [--git-sha SHA] [--src-digest HEX]\n",
               why);
  return 2;
}

void run_workload(const Args& args, Report& report, bool layers) {
  if (args.workload == "solve_50k")
    perfbench::run_solve_50k(args, report, layers);
  else if (args.workload == "serve_hit_50k")
    perfbench::run_serve_hit_50k(args, report, layers);
  else
    perfbench::run_serve_churn_2k(args, report, layers);
}

void run(const Args& args, Report& report, bool layers) {
  // CPU time the hypervisor gave to others: what makes the generator lag
  // and the timings of a run move with no change to the code.
  const double calib_before = perfbench::calibration_ms();
  const perfbench::StealMeter steal;
  run_workload(args, report, layers);
  report.set("host.steal_pct", 100.0 * steal.share(), "%");
  report.set("host.calib_ms",
             (calib_before + perfbench::calibration_ms()) / 2, "ms");
}

void set_failed_frac(Report& report) {
  report.set("failed_frac",
             static_cast<double>(report.failed) /
                 static_cast<double>(std::max<std::uint64_t>(1, report.attempted)),
             "ratio");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  args.scratch_dir = ".";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = true;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.trace = value == "1";
        have_trace = true;
      } else if (flag == "--scratch-dir") {
        args.scratch_dir = value;
      } else if (flag == "--trace-out") {
        args.trace_path = value;
      } else if (flag == "--record") {
        args.record_path = value;
      } else if (flag == "--git-sha") {
        args.git_sha = value;
      } else if (flag == "--src-digest") {
        args.src_digest = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (args.workload != "solve_50k" && args.workload != "serve_hit_50k" &&
      args.workload != "serve_churn_2k")
    return usage("unknown or missing --workload");
  if (!have_seed || !have_seconds || !have_trace || !(args.seconds > 0))
    return usage("--seed, --seconds > 0 and --trace are required");
  if (args.trace && args.trace_path.empty())
    args.trace_path = args.scratch_dir + "/trace-" + args.workload + ".json";

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  Report base, traced;
  try {
    run(args, base, /*layers=*/false);
    set_failed_frac(base);
    if (args.trace) {
      perfbench::tracer().enable(args.trace_path);
      run(args, traced, /*layers=*/true);
      perfbench::tracer().flush();
      set_failed_frac(traced);
      traced.set("trace_overhead.cpu_ms_per_query",
                 traced.get("cpu_ms_per_query") - base.get("cpu_ms_per_query"),
                 "ms");
      traced.set("trace_overhead.solve_s",
                 traced.get("solve_s") - base.get("solve_s"), "s");
      traced.set("trace_overhead.p50_ms",
                 traced.get("p50_ms") - base.get("p50_ms"), "ms");
      // Strong-scaling efficiency: the traced pass's 1-thread baseline over
      // the untraced default-thread solve.
      traced.set("linalg.scaling_eff",
                 traced.get("solve_1t_s") /
                     (static_cast<double>(somrm::linalg::default_num_threads()) *
                      base.get("solve_s")),
                 "ratio");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(), e.what());
    return 3;
  }

  const Report& out = args.trace ? traced : base;
  const auto& names = args.trace ? kPerLayer : kEndToEnd;
  for (const auto& [name, entry] : base.metrics())
    std::printf("%-28s %16.6f %s%s\n", name.c_str(), entry.value,
                entry.unit.c_str(), args.trace ? "  (untraced pass)" : "");
  if (args.trace)
    for (const auto& [name, entry] : traced.metrics())
      std::printf("%-28s %16.6f %s\n", name.c_str(), entry.value,
                  entry.unit.c_str());
  for (const std::string& f : base.failures())
    std::printf("# FAIL: %s\n", f.c_str());
  for (const std::string& f : traced.failures())
    std::printf("# FAIL (traced pass): %s\n", f.c_str());

  std::string metrics;
  for (const std::string& name : names) {
    if (!out.has(name)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   name.c_str());
      return 3;
    }
    metrics += (metrics.empty() ? "" : ", ") +
               metric_json(name, out.metrics().at(name));
  }
  const bool correct = base.correct() && traced.correct();
  const std::string fp = fingerprint(args);
  std::printf("fingerprint %s\n", fp.c_str());
  if (!args.record_path.empty()) {
    std::string all;
    for (const auto& [name, e] : out.metrics())
      all += (all.empty() ? "" : ", ") + metric_json(name, e);
    std::ofstream rec(args.record_path, std::ios::app);
    rec << "{\"workload\": " << json_string(args.workload)
        << ", \"trace\": " << (args.trace ? 1 : 0)
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"fingerprint\": " << fp << ", \"metrics\": {" << all << "}}\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
