#include "bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "core/moment_utils.hpp"

namespace somrm::bench {

void print_header(const std::string& artifact, const std::string& summary) {
  std::printf("# %s\n# %s\n", artifact.c_str(), summary.c_str());
}

void print_row(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i)
    std::printf("%s%s", i ? "," : "", cells[i].c_str());
  std::printf("\n");
}

std::string fmt(double v, int precision) {
  std::ostringstream os;
  os.precision(precision);
  os << v;
  return os.str();
}

namespace {
const char* find_arg(int argc, char** argv, const std::string& name) {
  // Scan every slot including the last: a flag in the final position has no
  // value, which must be reported, not silently treated as "absent" (a typo
  // like `... --states` used to fall back to the default without a word).
  for (int i = 1; i < argc; ++i) {
    if (name != argv[i]) continue;
    if (i + 1 >= argc)
      throw std::invalid_argument("bench: flag " + name +
                                  " is missing its value");
    return argv[i + 1];
  }
  return nullptr;
}
}  // namespace

double arg_double(int argc, char** argv, const std::string& name,
                  double fallback) {
  const char* v = find_arg(argc, argv, name);
  if (!v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0')
    throw std::invalid_argument("bench: flag " + name +
                                " expects a number, got \"" + v + "\"");
  return parsed;
}

std::size_t arg_size(int argc, char** argv, const std::string& name,
                     std::size_t fallback) {
  const char* v = find_arg(argc, argv, name);
  if (!v) return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0' || std::strchr(v, '-') != nullptr)
    throw std::invalid_argument("bench: flag " + name +
                                " expects a non-negative integer, got \"" +
                                std::string(v) + "\"");
  return static_cast<std::size_t>(parsed);
}

std::string arg_string(int argc, char** argv, const std::string& name,
                       const std::string& fallback) {
  const char* v = find_arg(argc, argv, name);
  return v ? std::string(v) : fallback;
}

std::vector<std::size_t> arg_size_list(int argc, char** argv,
                                       const std::string& name,
                                       std::vector<std::size_t> fallback) {
  const char* v = find_arg(argc, argv, name);
  if (!v) return fallback;
  std::vector<std::size_t> out;
  const std::string list(v);
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string item =
        list.substr(pos, comma == std::string::npos ? comma : comma - pos);
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(item.c_str(), &end, 10);
    if (item.empty() || end == item.c_str() || *end != '\0' ||
        item.find('-') != std::string::npos)
      throw std::invalid_argument(
          "bench: flag " + name +
          " expects comma-separated non-negative integers, got \"" + list +
          "\"");
    out.push_back(static_cast<std::size_t>(parsed));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char raw : s) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (raw) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += raw;
        }
    }
  }
  return out;
}

std::string git_sha() {
#ifdef SOMRM_GIT_SHA
  return SOMRM_GIT_SHA;
#else
  return "unknown";
#endif
}

void fill_from_stats(BenchRecord& record, const obs::SolverStats& stats) {
  record.kernel = stats.kernel;
  record.simd = stats.simd;
  if (stats.threads > 0) record.threads = stats.threads;
  record.truncation_point = 0;
  for (std::size_t g : stats.truncation_points)
    record.truncation_point = std::max(record.truncation_point, g);
  record.sweep_s = stats.sweep_seconds;
  record.spmv_gflops = stats.effective_gflops;
  record.load_imbalance = stats.load_imbalance;
  record.cache_hits = stats.cache_hits;
  record.cache_misses = stats.cache_misses;
  record.cache_evictions = stats.cache_evictions;
  record.cache_coalesced = stats.cache_coalesced;
}

void JsonWriter::add(BenchRecord record) {
  if (enabled()) {
    if (record.git_sha.empty()) record.git_sha = bench::git_sha();
    records_.push_back(std::move(record));
  }
}

namespace {

void print_record(std::FILE* f, const BenchRecord& r, bool trailing_comma) {
  const std::string bench = json_escape(r.bench);
  const std::string sha = json_escape(r.git_sha);
  const std::string kernel = json_escape(r.kernel);
  const std::string simd = json_escape(r.simd);
  std::fprintf(
      f,
      "  {\"bench\": \"%s\", \"states\": %zu, \"threads\": %zu, "
      "\"wall_s\": %.9g, \"moments\": %zu, \"git_sha\": \"%s\", "
      "\"kernel\": \"%s\", \"simd\": \"%s\", \"observability\": %s, "
      "\"truncation_point\": %zu, \"sweep_s\": %.9g, "
      "\"spmv_gflops\": %.9g, \"load_imbalance\": %.9g, "
      "\"cache_hits\": %zu, \"cache_misses\": %zu, "
      "\"cache_evictions\": %zu, \"cache_coalesced\": %zu, "
      "\"latency_p50_ms\": %.9g, \"latency_p99_ms\": %.9g, "
      "\"qps\": %.9g, \"clients\": %zu}%s\n",
      bench.c_str(), r.states, r.threads, r.wall_s, r.moments, sha.c_str(),
      kernel.c_str(), simd.c_str(), r.observability ? "true" : "false",
      r.truncation_point, r.sweep_s, r.spmv_gflops, r.load_imbalance,
      r.cache_hits, r.cache_misses, r.cache_evictions, r.cache_coalesced,
      r.latency_p50_ms, r.latency_p99_ms, r.qps, r.clients,
      trailing_comma ? "," : "");
}

/// Reads the existing JSON array body (the text between the outer
/// brackets) so append mode can splice new records after it. Returns an
/// empty string when the file does not exist (treated as an empty array).
std::string existing_array_body(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (!f) return {};
  std::string content;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0)
    content.append(buf, got);
  std::fclose(f);
  const std::size_t open = content.find('[');
  const std::size_t close = content.rfind(']');
  if (open == std::string::npos || close == std::string::npos ||
      close < open)
    throw std::runtime_error("JsonWriter: " + path +
                             " is not a JSON array; cannot append");
  std::string body = content.substr(open + 1, close - open - 1);
  // Trim whitespace so "no prior records" is detectable.
  const std::size_t first = body.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return {};
  const std::size_t last = body.find_last_not_of(" \t\r\n");
  return body.substr(first, last - first + 1);
}

}  // namespace

void JsonWriter::write() const {
  if (!enabled()) return;
  // Read the prior records (append mode) BEFORE truncating anything, then
  // write the merged array to a sibling temp file and rename it into place.
  // The old flow reopened the same path with "w", so a crash mid-write (or
  // a failed existing_array_body parse after the open) destroyed the
  // accumulated snapshot it was trying to extend; rename(2) on the same
  // directory is atomic, so readers now see either the old file or the
  // complete new one, never a torn prefix.
  const std::string body = append_ ? existing_array_body(path_) : "";
  const std::string tmp_path = path_ + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "w");
  if (!f) throw std::runtime_error("JsonWriter: cannot open " + tmp_path);
  std::fprintf(f, "[\n");
  if (!body.empty())
    std::fprintf(f, "  %s%s\n", body.c_str(),
                 records_.empty() ? "" : ",");
  for (std::size_t i = 0; i < records_.size(); ++i)
    print_record(f, records_[i], i + 1 < records_.size());
  std::fprintf(f, "]\n");
  const bool write_failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || write_failed) {
    std::remove(tmp_path.c_str());
    throw std::runtime_error("JsonWriter: failed writing " + tmp_path);
  }
  if (std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    throw std::runtime_error("JsonWriter: cannot rename " + tmp_path +
                             " to " + path_);
  }
}

namespace {

linalg::Vec centered_moments_of(const core::SecondOrderMrm& model, double t,
                                std::size_t num_moments, double epsilon,
                                double& mean_out, std::size_t& g_out) {
  const core::RandomizationMomentSolver solver(model);
  core::MomentSolverOptions mean_opts;
  mean_opts.max_moment = 1;
  mean_opts.epsilon = std::min(epsilon, 1e-10);
  mean_out = solver.solve(t, mean_opts).weighted[1];

  core::MomentSolverOptions opts;
  opts.max_moment = num_moments;
  opts.epsilon = epsilon;
  opts.center = mean_out / t;
  auto res = solver.solve(t, opts);
  g_out = res.truncation_point;
  return std::move(res.weighted);
}

}  // namespace

CenteredBoundPipeline::CenteredBoundPipeline(const core::SecondOrderMrm& model,
                                             double t,
                                             std::size_t num_moments,
                                             double epsilon)
    : t_(t),
      centered_moments_(centered_moments_of(model, t, num_moments, epsilon,
                                            mean_, truncation_point_)),
      bounder_(centered_moments_) {}

double CenteredBoundPipeline::stddev() const {
  return std::sqrt(core::variance_from_raw(centered_moments_));
}

}  // namespace somrm::bench
