// perfbench/src/bench.hpp
//
// Shared pieces of the somrm benchmark program: the run configuration, the
// metric report, the span recorder of the traced mode, small statistics
// helpers, and the fixed inputs every workload draws from.

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/randomization.hpp"
#include "linalg/vec.hpp"

namespace perfbench {

/// Command-line configuration of one run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;   ///< Chrome trace output of the traced pass
  std::string scratch_dir;  ///< where temporary snapshot files go
  std::string git_sha = "none";
  std::string src_digest = "none";
  std::string record_path;  ///< optional JSONL record (fingerprint + metrics)
};

/// Nanoseconds on std::chrono::steady_clock.
std::int64_t now_ns();
/// CPU time, in nanoseconds, consumed so far by the whole process (every
/// thread, user and system) and by the calling thread. Time the hypervisor
/// or other tenants took from the VM is not in it, so it measures work
/// where wall time also measures the host.
std::int64_t process_cpu_ns();
std::int64_t thread_cpu_ns();
inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }
inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Quantile q in [0, 1] by linear interpolation between order statistics
/// (the "exclusive" rule is not needed here: samples are large or the
/// caller reports a median). 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process, in MiB.
double peak_rss_mib();

/// Size of the last-level data cache in bytes (0 when the OS does not say).
std::size_t llc_bytes();

/// Median milliseconds of a fixed single-thread floating-point loop: the
/// speed of the host, which moves results without any change to the code.
double calibration_ms();

/// Every metric one run produced, plus the correctness verdict and the
/// operation counts of the result line.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const { return metrics_.count(name) != 0; }
  double get(const std::string& name) const;
  /// Records an oracle failure; the run then reports correct = false.
  void fail(const std::string& what);
  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  const std::map<std::string, Entry>& metrics() const { return metrics_; }

  std::uint64_t attempted = 0;  ///< solves and queries issued
  std::uint64_t failed = 0;     ///< refused or failed operations

 private:
  std::map<std::string, Entry> metrics_;
  std::vector<std::string> failures_;
};

/// Span recorder of the traced mode. Spans go into obs/trace's in-memory
/// buffers as Chrome complete events carrying an "id" and a "parent" arg;
/// the spans of one query share its id. Disabled (every call a no-op)
/// until enable() is called.
class Tracer {
 public:
  void enable(const std::string& path);
  bool enabled() const { return enabled_; }
  /// A fresh span id (ids start at 1; 0 means "no parent").
  std::uint64_t next_id();
  /// Records [t0_ns, t1_ns) on the steady clock of now_ns(). @p name must
  /// be a string literal.
  void span(const char* name, std::int64_t t0_ns, std::int64_t t1_ns,
            std::uint64_t id, std::uint64_t parent) const;
  /// Writes every recorded span to the configured path.
  void flush() const;

 private:
  bool enabled_ = false;
  std::int64_t offset_ns_ = 0;  ///< now_ns() - obs::now_ns()
  std::uint64_t next_id_ = 1;
};

Tracer& tracer();

/// RAII span for a workload, a phase or a direct layer call.
class Span {
 public:
  Span(const char* name, std::uint64_t parent)
      : name_(name), parent_(parent), id_(tracer().next_id()), t0_(now_ns()) {}
  ~Span() { tracer().span(name_, t0_, now_ns(), id_, parent_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t id_;
  std::int64_t t0_;
};

/// Share of the VM's CPU time that the hypervisor gave to other guests
/// since construction (/proc/stat steal over all ticks; 0 where the file is
/// unavailable).
class StealMeter {
 public:
  StealMeter();
  double share() const;

 private:
  double steal0_ = 0.0;
  double total0_ = 0.0;
};

/// A call or window is "stolen" when the hypervisor took more than this
/// share of the VM's CPU time while it ran: the host, not the code, set its
/// time. A barrier-synchronized sweep waits for its slowest thread at every
/// step, so a few percent of steal can double a multi-threaded solve.
inline constexpr double kMaxStealShare = 0.02;

/// Durations of repeated calls and the steal share each one saw.
struct Timings {
  std::vector<double> seconds;
  std::vector<double> steal;

  std::size_t clean() const;
  /// The durations of the calls that were not stolen, or of every call when
  /// fewer than three were not.
  std::vector<double> kept() const;
  double median() const { return perfbench::median(kept()); }
  void append(const Timings& other);
};

/// Runs @p call, one span named @p name (a string literal) per call, until
/// at least @p min_reps calls were not stolen and the calls took at least
/// @p min_seconds in total. Stolen calls do not count towards @p min_reps;
/// once @p min_reps calls ran, the loop stops waiting for clean ones after
/// 1.5 * @p min_seconds in total, or after 3 * @p min_reps calls when
/// @p min_seconds is 0, so that a run on a busy host stays bounded.
template <typename Call>
Timings timed_calls(const char* name, std::uint64_t parent,
                    std::size_t min_reps, double min_seconds, Call&& call) {
  Timings t;
  double total = 0.0;
  const auto give_up = [&] {
    return t.seconds.size() >= min_reps &&
           (min_seconds > 0 ? total >= 1.5 * min_seconds
                            : t.seconds.size() >= 3 * min_reps);
  };
  while (!(t.clean() >= min_reps && total >= min_seconds) && !give_up()) {
    Span s(name, parent);
    const StealMeter steal;
    const std::int64_t t0 = now_ns();
    call();
    t.seconds.push_back(ns_to_s(now_ns() - t0));
    t.steal.push_back(steal.share());
    total += t.seconds.back();
  }
  return t;
}

// -- Fixed inputs --------------------------------------------------------

/// The time grid of Table 2 / Figure 8, the moment order and the error
/// budget every workload solves with.
const std::vector<double>& time_grid();
inline constexpr std::size_t kMaxMoment = 4;
inline constexpr double kEpsilon = 1e-9;
somrm::core::MomentSolverOptions solver_options();

/// Set-ups per run, at least this many and for at least this long;
/// setup_s is their median.
inline constexpr std::size_t kSetupReps = 15;
inline constexpr double kSetupSeconds = 0.25;

/// Number of initial vectors pi every query mix draws from.
inline constexpr std::size_t kNumInitials = 8;

/// The Table-2 ON-OFF model with N sources (N + 1 states), C = N,
/// sigma^2 = 10, all sources OFF at time zero.
somrm::core::SecondOrderMrm make_model(std::size_t num_sources);

/// @p count strictly positive probability vectors of length @p n.
std::vector<somrm::linalg::Vec> make_initials(std::uint64_t seed,
                                              std::size_t count,
                                              std::size_t n);
/// A strictly positive terminal-weight vector of length @p n.
somrm::linalg::Vec make_weights(std::uint64_t seed, std::size_t n);

/// Mixes a stream tag into the run seed so each input family draws from its
/// own generator.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t tag);

/// True when two vectors hold the same doubles bit for bit.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b);

/// True when two results carry the same bits: time, truncation point,
/// error bound, weighted moments and (when @p per_state) every per-state
/// moment.
bool same_bits(const somrm::core::MomentResult& a,
               const somrm::core::MomentResult& b, bool per_state);

// -- Workloads -----------------------------------------------------------

/// Each workload runs its end-to-end measurement and fills the end-to-end
/// metrics plus the per-layer metrics its traffic yields (engine.*, cache.*,
/// gen.*, openloop.*). With @p layers it also runs run_layer_rungs on its
/// model.
void run_solve_50k(const Args& args, Report& report, bool layers);
void run_serve_hit_50k(const Args& args, Report& report, bool layers);
void run_serve_churn_2k(const Args& args, Report& report, bool layers);

/// Per-layer rungs that time one public library call each on @p model:
/// linalg (SpMM, parallel_for), prob (windows, truncation), core (sweep,
/// finalize, retained size), session (hit, result size), snapshot (save,
/// load). Writes the linalg.*, prob.*, core.*, session.* and snapshot.*
/// metrics.
void run_layer_rungs(const somrm::core::SecondOrderMrm& model,
                     const Args& args, Report& report, std::uint64_t parent);

}  // namespace perfbench
