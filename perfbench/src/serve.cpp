// perfbench/src/serve.cpp — the serving workloads.
//
// serve_hit_50k: a warm restart on the 50,001-state model. An independent
// session answers the whole query pool synchronously (the reference; its
// cold sweep of the plain class gives solve_s, and in the traced pass its
// sweep of the weighted class at one thread gives solve_1t_s), its cache is
// saved as a snapshot, and the engine under test starts from that
// snapshot, so every query is a hit.
//
// serve_churn_2k: a cold engine on the 2,001-state model whose cache holds
// only kChurnBudgetSweeps sweeps while queries draw their terminal-weight
// class from a Zipf law over kChurnClasses classes, so sweeps (cache writes)
// run beside hits (reads) and the LRU evicts.
//
// Both run a closed loop (kWindow outstanding), an open loop at their frozen
// rate and a second closed loop; the closed loops share a fixed part of
// --seconds (kHitClosedShare, kChurnClosedShare) and the open loop gets the
// rest. The rates are about a quarter of each workload's closed-loop qps
// on the baseline host while it was busy (hypervisor steal of 7-20 %), so
// that the open loop stays below capacity when the host slows: at half of
// that qps, serve_hit_50k's backlog grew in runs where capacity fell to
// 1,000 queries/s, and p50_ms read 2-27 ms. The churn class count, exponent
// and budget were set so that misses plus coalesced waits are about a
// tenth of lookups.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "linalg/parallel.hpp"
#include "loadgen.hpp"
#include "prob/rng.hpp"
#include "serve/snapshot.hpp"

namespace perfbench {

namespace {

using somrm::core::MomentResult;
using somrm::core::RandomizationMomentSolver;
using somrm::core::SolveSession;
using somrm::core::SweepCache;
using somrm::serve::ServeEngine;
using somrm::serve::ServeEngineOptions;

/// Queries outstanding in the closed loop.
constexpr std::size_t kWindow = 16;

// serve_hit_50k, frozen.
constexpr std::size_t kHitSources = 50000;
constexpr double kHitRate = 300.0;  // open-loop queries per second
constexpr double kHitClosedShare = 0.6;  // of --seconds; the open loop the rest
// One query in kHitWeightedEvery is of the w1 class, the rest plain. A w1
// query costs about 1 ms more (it hashes its weight vector twice), so with
// half of each the median would fall in the gap between the two and swing
// between them from run to run.
constexpr std::uint64_t kHitWeightedEvery = 4;

// serve_churn_2k, frozen.
constexpr std::size_t kChurnSources = 2000;
constexpr std::size_t kChurnClasses = 32;        // plain + 31 weight vectors
constexpr double kChurnZipf = 1.4;               // class-popularity exponent
constexpr std::size_t kChurnBudgetSweeps = 16;   // cache budget, in sweeps
constexpr std::size_t kChurnDeck = 512;          // class draws per deck
constexpr double kChurnRate = 80.0;              // open-loop queries per second
// The work per query here turns on how many misses a closed loop meets, so
// it gets the larger share of the run.
constexpr double kChurnClosedShare = 0.7;
// Threads per engine sweep. A 2k sweep gains nothing from more (the cold
// solves below show it), and with two engine workers each sweeping on the
// default four, up to eight threads met at per-step barriers on four
// shared vCPUs: capacity then read 95-285 queries/s from run to run.
constexpr std::size_t kChurnSweepThreads = 1;
constexpr std::size_t kColdSolveReps = 28;       // cold 2k solves per count
constexpr std::size_t kColdSolveBlocks = 4;      // ... in this many blocks

/// The churn stream's classes come in decks of kChurnDeck draws. A deck
/// holds each class its Zipf share of times (largest-remainder rounding)
/// and is reshuffled by the seed each time it is dealt out, so the seed
/// sets the order of the classes but not how often each comes. How often
/// the rare classes come sets the miss count, and with it the work per
/// query. Returned in class order.
std::vector<std::size_t> zipf_deck() {
  std::vector<double> exact(kChurnClasses);
  double total = 0.0;
  for (std::size_t c = 0; c < kChurnClasses; ++c)
    total += exact[c] = std::pow(static_cast<double>(c + 1), -kChurnZipf);
  std::vector<std::size_t> count(kChurnClasses);
  std::vector<std::pair<double, std::size_t>> remainder;
  std::size_t placed = 0;
  for (std::size_t c = 0; c < kChurnClasses; ++c) {
    exact[c] *= static_cast<double>(kChurnDeck) / total;
    count[c] = static_cast<std::size_t>(exact[c]);
    placed += count[c];
    remainder.emplace_back(exact[c] - static_cast<double>(count[c]), c);
  }
  std::sort(remainder.begin(), remainder.end(), std::greater<>());
  for (std::size_t i = 0; placed < kChurnDeck; ++i, ++placed)
    ++count[remainder[i].second];
  std::vector<std::size_t> deck;
  for (std::size_t c = 0; c < kChurnClasses; ++c)
    deck.insert(deck.end(), count[c], c);
  return deck;
}

/// Closed loop, open loop, closed loop; fills the serving end-to-end metrics
/// and the engine, cache, generator and open-loop layer metrics.
void serve_traffic(ServeEngine& engine, const QueryPool& pool,
                   std::function<std::size_t()> next_index, double rate,
                   double closed_share, const Args& args, Report& report,
                   std::uint64_t parent) {
  // Capacity is measured in two halves, before and after the open loop, so
  // that it samples the host over the whole run.
  LoadGen gen(engine, pool, std::move(next_index), parent);
  std::vector<LoadGen::ClosedLoopResult> halves;
  const auto closed_half = [&] {
    Span s("closed_loop", parent);
    halves.push_back(gen.closed_loop(closed_share / 2 * args.seconds, kWindow));
  };
  closed_half();
  OpenLoopResult open;
  {
    Span s("open_loop", parent);
    open = gen.open_loop((1 - closed_share) * args.seconds, rate);
  }
  closed_half();
  const double qps = (halves[0].qps + halves[1].qps) / 2;
  std::vector<double> slices = halves[0].cpu_ms_per_query;
  slices.insert(slices.end(), halves[1].cpu_ms_per_query.begin(),
                halves[1].cpu_ms_per_query.end());
  const double cpu_ms = median(slices);
  const auto cache = engine.session()->cache_stats();
  std::printf("# closed loop: %.1f and %.1f queries/s, %zu outstanding; CPU "
              "ms/query over %zu slices: quartiles %.4f %.4f %.4f; cache: %zu "
              "hits, %zu misses, %zu coalesced, %zu evictions\n",
              halves[0].qps, halves[1].qps, kWindow, slices.size(),
              quantile(slices, 0.25), cpu_ms, quantile(slices, 0.75),
              cache.hits, cache.misses, cache.coalesced, cache.evictions);
  for (std::size_t w = 0; w < open.window_lag_ms_p99.size(); ++w)
    std::printf("# open loop window %zu at %.0f/s: lag p99 %.3f ms, backlog "
                "growth %.0f, %.1f%% stolen, latency p99 %.3f ms%s\n",
                w, rate, open.window_lag_ms_p99[w], open.window_growth[w],
                100 * open.window_steal[w], open.window_p99_ms[w],
                open.window_valid[w] ? "" : " (invalid)");
  // Latency by class: a terminal-weighted query also pays for hashing its
  // weight vector at admission and again at lookup.
  std::vector<double> by_class[2];
  for (std::size_t i = open.first; i < open.last; ++i) {
    const Completion& c = gen.completions()[i];
    if (!c.rejected && !c.error)
      by_class[pool.specs[c.pool_index].cls == 0 ? 0 : 1].push_back(
          ns_to_ms(c.done_ns - c.due_ns));
  }
  report.set("class.plain_ms_p50", quantile(by_class[0], 0.5), "ms");
  report.set("class.weighted_ms_p50", quantile(by_class[1], 0.5), "ms");
  std::printf("# open loop: p99 of all %zu latencies of the windows used "
              "%.3f ms, median window p99 %.3f ms\n",
              open.samples, open.pooled_p99_ms, open.p99_ms);
  report.set("qps", qps, "1/s");
  report.set("cpu_ms_per_query", cpu_ms, "ms");
  report.set("p50_ms", open.p50_ms, "ms");
  report.set("p99_ms", open.p99_ms, "ms");
  report.set("gen.lag_ms_p99", open.lag_ms_p99, "ms");
  report.set("openloop.backlog_growth", open.max_backlog_growth, "queries");
  report.set("openloop.invalid_windows",
             static_cast<double>(open.invalid_windows), "count");
  report_engine_layer(gen.completions(), open.first, open.last, report);
  const auto stats = engine.stats();
  report.set("engine.batches", static_cast<double>(stats.batches), "count");
  report.set("engine.rejected",
             static_cast<double>(stats.rejected_queue_full +
                                 stats.rejected_stopped),
             "count");
  report_cache_layer(cache, report);

  report.attempted += gen.completions().size();
  report.failed += gen.rejected() + gen.errors();
  if (const std::size_t bad = gen.mismatches())
    report.fail(std::to_string(bad) + " served answers differ from the "
                "synchronous reference");
}

/// Builds the model, a session on a fresh cache of @p budget bytes and an
/// engine (loading @p snapshot when non-empty), at least kSetupReps times
/// and for at least kSetupSeconds. Reports the median as setup_s and
/// returns the last engine.
std::unique_ptr<ServeEngine> timed_setup(std::size_t sources,
                                         std::size_t budget,
                                         const std::string& snapshot,
                                         Report& report, std::uint64_t parent) {
  std::unique_ptr<ServeEngine> engine;
  const auto seconds =
      timed_calls("setup", parent, kSetupReps, kSetupSeconds, [&] {
        engine.reset();
        auto session = std::make_shared<const SolveSession>(
            make_model(sources), time_grid(), solver_options(),
            std::make_shared<SweepCache>(budget));
        ServeEngineOptions opts;
        opts.snapshot_path = snapshot;
        engine = std::make_unique<ServeEngine>(std::move(session), opts);
      });
  report.set("setup_s", seconds.median(), "s");
  return engine;
}

}  // namespace

void run_serve_hit_50k(const Args& args, Report& report, bool layers) {
  Span wl("serve_hit_50k", 0);
  const auto model = make_model(kHitSources);
  const std::size_t n = model.num_states();
  QueryPool pool(make_initials(sub_seed(args.seed, 1), kNumInitials, n),
                 {somrm::linalg::Vec{}, make_weights(sub_seed(args.seed, 2), n)});
  const std::string snapshot =
      (std::filesystem::path(args.scratch_dir) /
       ("serve_hit_50k-" + std::to_string(args.seed) + ".snap"))
          .string();
  {
    // The reference session is independent of the engine under test; the
    // snapshot the engine restarts from is its cache after answering.
    Span s("reference", wl.id());
    auto cache = std::make_shared<SweepCache>();
    const SolveSession session(model, time_grid(), solver_options(), cache);
    // One cold sweep per class. The plain class's batch gives the
    // per-layer solve_s; the traced pass answers the w1 class at one thread
    // for solve_1t_s.
    const auto timed = [&](std::size_t cls) {
      const std::int64_t t0 = now_ns();
      pool.build_reference(session, cls, cls + 1);
      return ns_to_s(now_ns() - t0);
    };
    report.set("solve_s", timed(0), "s");
    if (layers) somrm::linalg::set_num_threads(1);
    const double weighted_s = timed(1);
    somrm::linalg::set_num_threads(0);
    if (layers) report.set("solve_1t_s", weighted_s, "s");
    report.attempted += 2;
    somrm::serve::save_snapshot(*cache, snapshot);
  }

  auto engine = timed_setup(kHitSources, SweepCache::kDefaultByteBudget,
                            snapshot, report, wl.id());
  std::filesystem::remove(snapshot);
  const auto warm = engine->session()->cache_stats();
  if (warm.entries != pool.classes.size())
    report.fail("snapshot restored " + std::to_string(warm.entries) +
                " sweeps, expected " + std::to_string(pool.classes.size()));

  somrm::prob::Rng rng(sub_seed(args.seed, 3));
  const std::size_t per_class = pool.class_size();
  serve_traffic(
      *engine, pool,
      [&] {
        const bool weighted = rng.uniform_below(kHitWeightedEvery) == 0;
        return (weighted ? per_class : 0) + rng.uniform_below(per_class);
      },
      kHitRate, kHitClosedShare, args, report, wl.id());
  const auto stats = engine->session()->cache_stats();
  if (stats.misses != 0 || stats.coalesced != 0)
    report.fail("warm restart ran sweeps: " + std::to_string(stats.misses) +
                " misses, " + std::to_string(stats.coalesced) + " coalesced");
  engine.reset();

  if (layers) run_layer_rungs(model, args, report, wl.id());
  report.set("peak_rss_mb", peak_rss_mib(), "MiB");
}

void run_serve_churn_2k(const Args& args, Report& report, bool layers) {
  Span wl("serve_churn_2k", 0);
  const auto model = make_model(kChurnSources);
  const std::size_t n = model.num_states();
  std::vector<somrm::linalg::Vec> classes{somrm::linalg::Vec{}};
  for (std::size_t c = 1; c < kChurnClasses; ++c)
    classes.push_back(make_weights(sub_seed(args.seed, 100 + c), n));
  QueryPool pool(make_initials(sub_seed(args.seed, 1), kNumInitials, n),
                 std::move(classes));

  // The cold solve a miss pays, at one thread and at the default count, in
  // kColdSolveBlocks blocks spread over the run so that the medians sample
  // the host over all of it.
  const RandomizationMomentSolver solver(model);
  std::vector<MomentResult> first;
  Timings cold[2];  // [0]: 1 thread, [1]: default count
  const auto cold_block = [&] {
    Span s("cold_solves", wl.id());
    for (const std::size_t threads : {std::size_t{1}, std::size_t{0}}) {
      somrm::linalg::set_num_threads(threads);
      const Timings block = timed_calls(
          "solve_multi", s.id(), kColdSolveReps / kColdSolveBlocks, 0.0, [&] {
            auto res = solver.solve_multi(time_grid(), solver_options());
            if (first.empty()) first = res;
            for (std::size_t t = 0; t < res.size(); ++t)
              if (!same_bits(res[t], first[t], /*per_state=*/true))
                report.fail("2k solve at " + std::to_string(threads) +
                            " threads differs from the first 1-thread solve");
          });
      cold[threads == 1 ? 0 : 1].append(block);
      report.attempted += block.seconds.size();
    }
    somrm::linalg::set_num_threads(0);
  };
  cold_block();
  std::size_t sweep_bytes = 0;
  {
    Span s("reference", wl.id());
    auto cache = std::make_shared<SweepCache>();
    const SolveSession session(model, time_grid(), solver_options(), cache);
    pool.build_reference(session, 0, pool.classes.size());
    const auto stats = cache->stats();
    sweep_bytes = stats.bytes / std::max<std::size_t>(1, stats.entries);
    report.attempted += pool.classes.size();
  }

  cold_block();
  auto engine = timed_setup(kChurnSources, kChurnBudgetSweeps * sweep_bytes,
                            "", report, wl.id());
  cold_block();
  // The engine's sweeps run at kChurnSweepThreads each.
  somrm::linalg::set_num_threads(kChurnSweepThreads);
  std::vector<std::size_t> deck = zipf_deck();
  std::size_t dealt = deck.size();
  somrm::prob::Rng rng(sub_seed(args.seed, 3));
  const std::size_t per_class = pool.class_size();
  serve_traffic(
      *engine, pool,
      [&] {
        if (dealt == deck.size()) {  // reshuffle (Fisher-Yates)
          for (std::size_t i = deck.size() - 1; i > 0; --i)
            std::swap(deck[i], deck[rng.uniform_below(i + 1)]);
          dealt = 0;
        }
        return deck[dealt++] * per_class + rng.uniform_below(per_class);
      },
      kChurnRate, kChurnClosedShare, args, report, wl.id());
  engine.reset();
  somrm::linalg::set_num_threads(0);
  cold_block();
  report.set("solve_1t_s", cold[0].median(), "s");
  report.set("solve_s", cold[1].median(), "s");
  for (const Timings& t : cold) {
    const auto kept = t.kept();
    std::printf("# cold 2k solves at %s: %zu of %zu kept, quartiles %.4f "
                "%.4f %.4f s\n",
                &t == &cold[0] ? "1 thread" : "the default count", kept.size(),
                t.seconds.size(), quantile(kept, 0.25), quantile(kept, 0.5),
                quantile(kept, 0.75));
  }

  if (layers) run_layer_rungs(model, args, report, wl.id());
  report.set("peak_rss_mb", peak_rss_mib(), "MiB");
}

}  // namespace perfbench
