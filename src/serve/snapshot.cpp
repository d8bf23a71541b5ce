#include "serve/snapshot.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "linalg/panel.hpp"

namespace somrm::serve {

namespace {

constexpr char kMagic[8] = {'S', 'O', 'M', 'R', 'M', 'S', 'W', 'P'};
constexpr std::uint32_t kEndianProbe = 0x01020304u;

std::uint64_t fnv1a64(const char* data, std::size_t bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Append-only byte sink. Integers and doubles go in by memcpy of their
/// host representation; the endianness probe in the header is what makes
/// that safe to read back.
class Writer {
 public:
  void u8(std::uint8_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }

  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }

  void doubles(std::span<const double> xs) {
    u64(xs.size());
    raw(xs.data(), xs.size() * sizeof(double));
  }

  void sizes(std::span<const std::size_t> xs) {
    u64(xs.size());
    for (std::size_t x : xs) u64(static_cast<std::uint64_t>(x));
  }

  const std::string& buffer() const { return buf_; }

 private:
  void raw(const void* data, std::size_t bytes) {
    if (bytes) buf_.append(static_cast<const char*>(data), bytes);
  }

  std::string buf_;
};

/// Bounds-checked cursor over the loaded file body. Every read validates
/// the remaining byte count BEFORE allocating, so a corrupt length field
/// yields a "truncated" error instead of a gigabyte allocation.
class Reader {
 public:
  Reader(const char* data, std::size_t size) : data_(data), size_(size) {}

  std::uint8_t u8() {
    std::uint8_t v;
    raw(&v, sizeof v);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v;
    raw(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    raw(&v, sizeof v);
    return v;
  }
  double f64() {
    double v;
    raw(&v, sizeof v);
    return v;
  }

  std::string str() {
    const std::uint64_t n = len(u64(), 1);
    std::string s(data_ + cur_, static_cast<std::size_t>(n));
    cur_ += static_cast<std::size_t>(n);
    return s;
  }

  std::vector<double> doubles() {
    const std::uint64_t n = len(u64(), sizeof(double));
    std::vector<double> xs(static_cast<std::size_t>(n));
    raw(xs.data(), static_cast<std::size_t>(n) * sizeof(double));
    return xs;
  }

  void doubles_into(std::span<double> out) {
    const std::uint64_t n = len(u64(), sizeof(double));
    if (n != out.size()) throw SnapshotError("truncated (panel size mismatch)");
    raw(out.data(), out.size() * sizeof(double));
  }

  std::vector<std::size_t> sizes() {
    const std::uint64_t n = len(u64(), sizeof(std::uint64_t));
    std::vector<std::size_t> xs(static_cast<std::size_t>(n));
    for (std::size_t i = 0; i < xs.size(); ++i)
      xs[i] = static_cast<std::size_t>(u64());
    return xs;
  }

  std::size_t remaining() const { return size_ - cur_; }

  /// Validates that @p n elements of @p elem_bytes each still fit.
  std::uint64_t len(std::uint64_t n, std::size_t elem_bytes) {
    if (n > remaining() / elem_bytes)
      throw SnapshotError("truncated (length field exceeds file size)");
    return n;
  }

 private:
  void raw(void* out, std::size_t bytes) {
    if (bytes > remaining()) throw SnapshotError("truncated");
    std::memcpy(out, data_ + cur_, bytes);
    cur_ += bytes;
  }

  const char* data_;
  std::size_t size_;
  std::size_t cur_ = 0;
};

void write_stats(Writer& w, const obs::SolverStats& s) {
  w.str(s.kernel);
  w.str(s.simd);
  w.str(s.reorder);
  w.u64(s.bandwidth_before);
  w.u64(s.bandwidth_after);
  w.u64(s.panel_width);
  w.u64(s.threads);
  w.sizes(s.truncation_points);
  w.sizes(s.window_widths);
  w.u64(s.sweep_steps);
  w.u64(s.active_weight_sum);
  w.u64(s.sweep_flops);
  w.f64(s.scale_seconds);
  w.f64(s.truncation_seconds);
  w.f64(s.window_seconds);
  w.f64(s.sweep_seconds);
  w.f64(s.finalize_seconds);
  w.f64(s.total_seconds);
  w.f64(s.effective_gflops);
  w.f64(s.busy_seconds);
  w.f64(s.load_imbalance);
  w.u64(s.cache_hits);
  w.u64(s.cache_misses);
  w.u64(s.cache_evictions);
  w.u64(s.cache_coalesced);
  w.u8(s.cache_over_budget ? 1 : 0);
}

obs::SolverStats read_stats(Reader& r) {
  obs::SolverStats s;
  s.kernel = r.str();
  s.simd = r.str();
  s.reorder = r.str();
  s.bandwidth_before = static_cast<std::size_t>(r.u64());
  s.bandwidth_after = static_cast<std::size_t>(r.u64());
  s.panel_width = static_cast<std::size_t>(r.u64());
  s.threads = static_cast<std::size_t>(r.u64());
  s.truncation_points = r.sizes();
  s.window_widths = r.sizes();
  s.sweep_steps = static_cast<std::size_t>(r.u64());
  s.active_weight_sum = static_cast<std::size_t>(r.u64());
  s.sweep_flops = static_cast<std::size_t>(r.u64());
  s.scale_seconds = r.f64();
  s.truncation_seconds = r.f64();
  s.window_seconds = r.f64();
  s.sweep_seconds = r.f64();
  s.finalize_seconds = r.f64();
  s.total_seconds = r.f64();
  s.effective_gflops = r.f64();
  s.busy_seconds = r.f64();
  s.load_imbalance = r.f64();
  s.cache_hits = static_cast<std::size_t>(r.u64());
  s.cache_misses = static_cast<std::size_t>(r.u64());
  s.cache_evictions = static_cast<std::size_t>(r.u64());
  s.cache_coalesced = static_cast<std::size_t>(r.u64());
  s.cache_over_budget = r.u8() != 0;
  return s;
}

void write_sweep(Writer& w, const core::RetainedSweep& sw) {
  w.doubles(sw.times);
  w.u64(sw.max_moment);
  w.f64(sw.epsilon);
  w.f64(sw.center);
  w.f64(sw.q);
  w.f64(sw.d);
  w.f64(sw.shift);
  w.f64(sw.prefactor);
  w.u8(sw.terminal_weighted ? 1 : 0);
  w.u8(sw.degenerate ? 1 : 0);
  w.sizes(sw.truncation_points);
  w.doubles(sw.error_bounds);
  w.u64(sw.acc.size());
  for (const linalg::Panel& p : sw.acc) {
    w.u64(p.rows());
    w.u64(p.width());
    w.doubles(p.span());
  }
  write_stats(w, sw.stats);
}

core::RetainedSweep read_sweep(Reader& r) {
  core::RetainedSweep sw;
  sw.times = r.doubles();
  sw.max_moment = static_cast<std::size_t>(r.u64());
  sw.epsilon = r.f64();
  sw.center = r.f64();
  sw.q = r.f64();
  sw.d = r.f64();
  sw.shift = r.f64();
  sw.prefactor = r.f64();
  sw.terminal_weighted = r.u8() != 0;
  sw.degenerate = r.u8() != 0;
  sw.truncation_points = r.sizes();
  sw.error_bounds = r.doubles();
  const std::uint64_t panels = r.len(r.u64(), 1);
  sw.acc.reserve(static_cast<std::size_t>(panels));
  for (std::uint64_t i = 0; i < panels; ++i) {
    const std::uint64_t rows = r.u64();
    const std::uint64_t width = r.len(r.u64(), 1);
    if (width != 0 && rows > r.remaining() / (width * sizeof(double)))
      throw SnapshotError("truncated (panel dimensions exceed file size)");
    linalg::Panel p(static_cast<std::size_t>(rows),
                    static_cast<std::size_t>(width));
    r.doubles_into(p.span());
    sw.acc.push_back(std::move(p));
  }
  sw.stats = read_stats(r);
  return sw;
}

}  // namespace

std::size_t save_snapshot(const core::SweepCache& cache,
                          const std::string& path) {
  const auto entries = cache.entries_snapshot();

  // Header + entries into one buffer, checksum appended last.
  Writer w;
  for (char c : kMagic) w.u8(static_cast<std::uint8_t>(c));
  w.u32(kSnapshotFormatVersion);
  w.u32(kEndianProbe);
  w.u64(entries.size());
  for (const auto& [key, sweep] : entries) {
    w.str(key);
    write_sweep(w, *sweep);
  }
  std::string buf = w.buffer();
  const std::uint64_t check = fnv1a64(buf.data(), buf.size());
  buf.append(reinterpret_cast<const char*>(&check), sizeof check);

  // JsonWriter idiom: write the whole image to a temp file in the target
  // directory, then rename over the destination so readers only ever see
  // a complete snapshot.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f)
    throw SnapshotError("cannot open '" + tmp +
                        "' for writing: " + std::strerror(errno));
  const std::size_t written = std::fwrite(buf.data(), 1, buf.size(), f);
  const bool ok = written == buf.size() && std::fflush(f) == 0 && !std::ferror(f);
  if (std::fclose(f) != 0 || !ok) {
    std::remove(tmp.c_str());
    throw SnapshotError("short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SnapshotError("cannot rename '" + tmp + "' to '" + path +
                        "': " + std::strerror(errno));
  }
  return entries.size();
}

std::size_t load_snapshot(core::SweepCache& cache, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) {
    if (errno == ENOENT) return 0;  // missing snapshot = cold start
    throw SnapshotError("cannot open '" + path +
                        "': " + std::strerror(errno));
  }
  std::string buf;
  char chunk[1 << 16];
  std::size_t got;
  while ((got = std::fread(chunk, 1, sizeof chunk, f)) > 0)
    buf.append(chunk, got);
  const bool read_err = std::ferror(f) != 0;
  std::fclose(f);
  if (read_err) throw SnapshotError("read error on '" + path + "'");

  constexpr std::size_t kHeaderBytes = sizeof kMagic + 2 * sizeof(std::uint32_t);
  if (buf.size() < kHeaderBytes + sizeof(std::uint64_t))
    throw SnapshotError("truncated (file smaller than header)");
  if (std::memcmp(buf.data(), kMagic, sizeof kMagic) != 0)
    throw SnapshotError("bad magic (not a somrm sweep snapshot)");
  std::uint32_t version;
  std::memcpy(&version, buf.data() + sizeof kMagic, sizeof version);
  if (version != kSnapshotFormatVersion)
    throw SnapshotError("format version mismatch (file has " +
                        std::to_string(version) + ", reader expects " +
                        std::to_string(kSnapshotFormatVersion) + ")");
  std::uint32_t endian;
  std::memcpy(&endian, buf.data() + sizeof kMagic + sizeof version,
              sizeof endian);
  if (endian != kEndianProbe)
    throw SnapshotError("endianness mismatch (snapshot written on a host "
                        "with different byte order)");

  const std::size_t body_bytes = buf.size() - sizeof(std::uint64_t);
  std::uint64_t stored_check;
  std::memcpy(&stored_check, buf.data() + body_bytes, sizeof stored_check);
  if (fnv1a64(buf.data(), body_bytes) != stored_check)
    throw SnapshotError("checksum mismatch (truncated or corrupted snapshot)");

  Reader r(buf.data() + kHeaderBytes, body_bytes - kHeaderBytes);
  const std::uint64_t count = r.len(r.u64(), 1);
  std::vector<std::pair<std::string, core::SweepCache::EntryPtr>> loaded;
  loaded.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string key = r.str();
    auto sweep = std::make_shared<const core::RetainedSweep>(read_sweep(r));
    loaded.emplace_back(std::move(key), std::move(sweep));
  }

  // Entries were saved MRU-first; inserting in reverse replays them
  // LRU-first, so the restored cache ends up with the saved recency order
  // (and, under a tight budget, keeps the MRU tail — the entries a warm
  // restart most wants).
  std::size_t inserted = 0;
  for (auto it = loaded.rbegin(); it != loaded.rend(); ++it)
    if (cache.insert(it->first, std::move(it->second))) ++inserted;
  return inserted;
}

}  // namespace somrm::serve
