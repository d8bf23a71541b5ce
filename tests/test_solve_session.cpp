// Tests for the batched query engine (core/solve_session.hpp): bit-identity
// of SolveSession batches against independent solver calls across thread
// counts, SweepCache counters / LRU eviction / request
// coalescing, cross-session cache sharing keyed by model content, t = 0
// through the session path, and query/grid validation.
//
// The one-pass hit path has its own identity grid (HitPathBitIdentityTest):
// every order x plain/weighted x drift shift/centering x q > 0/q = 0 case,
// answered by query, by a same-(w, t, order) query_batch and by a
// ServeEngine, is memcmp-equal to an independent solve and to the
// column-wise finalize chain. PreparedQueryTest pins the prepare contract.
//
// The bit-identity suite is the acceptance check of the batched engine: a
// 64-query batch mixing default and custom initial vectors, plain and
// terminal-weighted queries, and every order up to the session max must
// reproduce the corresponding independent solve / solve_terminal_weighted
// results EXACTLY (==, not near), at 1, 2, 4 and 8 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/moment_utils.hpp"
#include "core/randomization.hpp"
#include "core/solve_session.hpp"
#include "linalg/parallel.hpp"
#include "obs/export.hpp"
#include "serve/engine.hpp"

namespace somrm {
namespace {

using core::MomentResult;
using core::MomentSolverOptions;
using core::RetainedSweep;
using core::SessionQuery;
using core::SolveSession;
using core::SweepCache;
using linalg::Triplet;
using linalg::Vec;
using serve::ServeEngineOptions;
using serve::ServeResult;

/// A small irregular chain: ring transitions plus a few chords, drifts of
/// both signs and mixed zero/positive variances, so the shift transform,
/// the second-order term and the Jensen probe all engage.
core::SecondOrderMrm make_model(std::size_t n) {
  std::vector<Triplet> rates;
  for (std::size_t i = 0; i < n; ++i) {
    rates.push_back({i, (i + 1) % n, 1.0 + 0.3 * static_cast<double>(i % 5)});
    if (i % 3 == 0) rates.push_back({i, (i + 2) % n, 0.7});
  }
  Vec drifts(n, 0.0);
  Vec variances(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    drifts[i] = static_cast<double>(i % 4) - 1.0;  // in {-1, 0, 1, 2}
    variances[i] = (i % 2 == 0) ? 0.5 : 0.0;
  }
  return core::SecondOrderMrm(ctmc::Generator::from_rates(n, rates), drifts,
                              variances, linalg::unit_vec(n, 0));
}

/// Deterministic strictly positive distribution, distinct per seed.
Vec make_pi(std::size_t n, std::size_t seed) {
  Vec pi(n, 0.0);
  double total = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    pi[s] = 1.0 + static_cast<double>((seed * 7 + s * 3) % 11);
    total += pi[s];
  }
  for (std::size_t s = 0; s < n; ++s) pi[s] /= total;
  return pi;
}

Vec make_weights(std::size_t n, std::size_t seed) {
  Vec w(n, 0.0);
  for (std::size_t s = 0; s < n; ++s)
    w[s] = static_cast<double>((seed * 5 + s) % 4);  // some zeros, max 3
  return w;
}

/// Exact (bitwise) equality of a session result against the first
/// `order + 1` entries of an independent solve at the session max.
void expect_bit_identical_prefix(const MomentResult& got,
                                 const MomentResult& want,
                                 std::size_t order) {
  ASSERT_EQ(got.weighted.size(), order + 1);
  ASSERT_EQ(got.per_state.size(), order + 1);
  ASSERT_GE(want.weighted.size(), order + 1);
  for (std::size_t j = 0; j <= order; ++j) {
    EXPECT_EQ(got.weighted[j], want.weighted[j]) << "moment " << j;
    ASSERT_EQ(got.per_state[j].size(), want.per_state[j].size());
    for (std::size_t i = 0; i < got.per_state[j].size(); ++i)
      EXPECT_EQ(got.per_state[j][i], want.per_state[j][i])
          << "moment " << j << " state " << i;
  }
  EXPECT_EQ(got.time, want.time);
  EXPECT_EQ(got.truncation_point, want.truncation_point);
  EXPECT_EQ(got.error_bound, want.error_bound);
}

struct MixedBatch {
  std::vector<SessionQuery> queries;
  std::vector<std::size_t> orders;  // resolved order per query
};

/// 64 queries cycling the time grid and mixing: default pi vs two custom
/// pis, plain vs two distinct terminal-weight vectors, every order 1..max
/// plus the kSessionMax sentinel.
MixedBatch make_mixed_batch(std::size_t n, std::size_t grid_size,
                            std::size_t max_moment) {
  MixedBatch out;
  for (std::size_t i = 0; i < 64; ++i) {
    SessionQuery q;
    q.time_index = i % grid_size;
    if (i % 7 == 0) {
      q.max_moment = SessionQuery::kSessionMax;
      out.orders.push_back(max_moment);
    } else {
      q.max_moment = 1 + i % max_moment;
      out.orders.push_back(q.max_moment);
    }
    if (i % 3 == 1) q.initial = make_pi(n, i % 2);
    if (i % 4 == 1) q.terminal_weights = make_weights(n, 1);
    if (i % 4 == 3) q.terminal_weights = make_weights(n, 2);
    out.queries.push_back(std::move(q));
  }
  return out;
}

void run_batch_vs_independent() {
  const std::size_t n = 24;
  const auto model = make_model(n);
  const std::vector<double> times{0.25, 0.6, 1.1};
  MomentSolverOptions opts;
  opts.max_moment = 4;
  opts.epsilon = 1e-9;

  const auto batch = make_mixed_batch(n, times.size(), opts.max_moment);
  const SolveSession session(model, times, opts,
                             std::make_shared<SweepCache>());
  const auto results = session.query_batch(batch.queries);
  ASSERT_EQ(results.size(), batch.queries.size());

  for (std::size_t i = 0; i < batch.queries.size(); ++i) {
    const SessionQuery& q = batch.queries[i];
    const auto solver_model =
        q.initial.empty() ? model : model.with_initial(q.initial);
    const core::RandomizationMomentSolver solver(solver_model);
    const double t = times[q.time_index];
    const MomentResult want =
        q.terminal_weights.empty()
            ? solver.solve(t, opts)
            : solver.solve_terminal_weighted(t, q.terminal_weights, opts);
    SCOPED_TRACE("query " + std::to_string(i));
    expect_bit_identical_prefix(results[i], want, batch.orders[i]);
  }

  // 3 distinct weight vectors (none, w1, w2) -> exactly 3 sweeps ran.
  EXPECT_EQ(session.cache_stats().misses, 3u);
  EXPECT_EQ(session.cache_stats().hits, 61u);
}

class SolveSessionThreadsTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { linalg::set_num_threads(GetParam()); }
  void TearDown() override { linalg::set_num_threads(0); }
};

TEST_P(SolveSessionThreadsTest, BatchOf64BitIdenticalToIndependentSolves) {
  run_batch_vs_independent();
}

INSTANTIATE_TEST_SUITE_P(Threads, SolveSessionThreadsTest,
                         ::testing::Values(1, 2, 4, 8));

// ---------------------------------------------------------------------------
// One-pass hit path: bit identity over the whole finalize case grid
// ---------------------------------------------------------------------------

/// How the grid model's drifts move the scaled sweep: no shift (drifts all
/// >= 0), the negative-drift shift (shift = min r_i < 0, undone per state
/// by the binomial transform), or centering (center != 0, no shift, mixed
/// signs in R').
enum class DriftCase { kNoShift, kNegativeShift, kCentered };

struct HitCase {
  std::size_t order;
  bool weighted;
  DriftCase drift;
  bool degenerate;  ///< q = 0: no transitions, closed-form panels
};

constexpr std::size_t kGridMaxMoment = 4;
constexpr std::size_t kGridStates = 20;

core::SecondOrderMrm make_grid_model(DriftCase drift, bool degenerate) {
  const std::size_t n = kGridStates;
  std::vector<Triplet> rates;
  if (!degenerate) {
    for (std::size_t i = 0; i < n; ++i) {
      rates.push_back(
          {i, (i + 1) % n, 1.0 + 0.3 * static_cast<double>(i % 5)});
      if (i % 3 == 0) rates.push_back({i, (i + 2) % n, 0.7});
    }
  }
  Vec drifts(n, 0.0);
  Vec variances(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    drifts[i] = static_cast<double>(i % 4) -
                (drift == DriftCase::kNoShift ? 0.0 : 1.0);
    variances[i] = (i % 2 == 0) ? 0.5 : 0.0;
  }
  return core::SecondOrderMrm(ctmc::Generator::from_rates(n, rates), drifts,
                              variances, linalg::unit_vec(n, 0));
}

/// The column-wise finalize chain an independent solve ran before the
/// one-pass kernel: gather each column, scale it by prefactor * j! d^j,
/// undo the drift shift state by state through shift_raw_moments, then one
/// linalg::dot per order. Built from public pieces only, so it pins the
/// fused kernel's arithmetic order independently of finalize_from_sweep.
MomentResult columnwise_finalize(const RetainedSweep& sweep, std::size_t ti,
                                 std::span<const double> pi,
                                 std::size_t order) {
  MomentResult out;
  out.per_state.resize(order + 1);
  for (std::size_t j = 0; j <= order; ++j)
    out.per_state[j] = sweep.acc[ti].col(j);
  if (!sweep.degenerate) {
    double factor = sweep.prefactor;
    for (std::size_t j = 0; j <= order; ++j) {
      if (j > 0) factor *= static_cast<double>(j) * sweep.d;
      linalg::scale(factor, out.per_state[j]);
    }
    if (sweep.shift != 0.0) {
      Vec raw(order + 1);
      for (std::size_t i = 0; i < sweep.num_states(); ++i) {
        for (std::size_t j = 0; j <= order; ++j) raw[j] = out.per_state[j][i];
        const Vec shifted =
            core::shift_raw_moments(raw, sweep.shift * sweep.times[ti]);
        for (std::size_t j = 0; j <= order; ++j)
          out.per_state[j][i] = shifted[j];
      }
    }
  }
  out.weighted.resize(order + 1);
  for (std::size_t j = 0; j <= order; ++j)
    out.weighted[j] = linalg::dot(pi, out.per_state[j]);
  return out;
}

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// memcmp of `weighted` and every per_state column of @p got against the
/// first order + 1 entries of @p want.
void expect_prefix_bits(const MomentResult& got, const MomentResult& want,
                        std::size_t order, const std::string& how) {
  SCOPED_TRACE(how);
  ASSERT_EQ(got.weighted.size(), order + 1);
  ASSERT_EQ(got.per_state.size(), order + 1);
  ASSERT_GE(want.weighted.size(), order + 1);
  EXPECT_TRUE(same_bits(got.weighted,
                        std::span<const double>(want.weighted)
                            .first(order + 1)))
      << "weighted";
  for (std::size_t j = 0; j <= order; ++j)
    EXPECT_TRUE(same_bits(got.per_state[j], want.per_state[j]))
        << "per_state column " << j;
}

class HitPathBitIdentityTest : public ::testing::TestWithParam<HitCase> {};

TEST_P(HitPathBitIdentityTest, QueryBatchAndEngineMatchIndependentSolve) {
  const HitCase c = GetParam();
  const auto model = make_grid_model(c.drift, c.degenerate);
  const std::vector<double> times{0.3, 0.9};
  MomentSolverOptions opts;
  opts.max_moment = kGridMaxMoment;
  opts.epsilon = 1e-9;
  if (c.drift == DriftCase::kCentered) opts.center = 0.5;
  const Vec w = c.weighted ? make_weights(kGridStates, 1) : Vec{};
  const std::vector<Vec> pis{make_pi(kGridStates, 1), make_pi(kGridStates, 2),
                             make_pi(kGridStates, 3)};

  const auto cache = std::make_shared<SweepCache>();
  const auto session =
      std::make_shared<const SolveSession>(model, times, opts, cache);
  ServeEngineOptions engine_opts;
  engine_opts.num_workers = 0;
  serve::ServeEngine engine(session, engine_opts);
  const RetainedSweep sweep =
      core::RandomizationMomentSolver(model).sweep_retained(times, opts, w);
  ASSERT_EQ(sweep.degenerate, c.degenerate);
  ASSERT_EQ(sweep.shift != 0.0, c.drift == DriftCase::kNegativeShift);

  for (std::size_t ti = 0; ti < times.size(); ++ti) {
    SCOPED_TRACE("time index " + std::to_string(ti));
    // One (w, t, order) with distinct pi: the batch shape whose finalize
    // was once shared between queries.
    std::vector<SessionQuery> batch;
    for (const Vec& pi : pis) {
      SessionQuery q;
      q.time_index = ti;
      q.max_moment = c.order;
      q.initial = pi;
      q.terminal_weights = w;
      batch.push_back(std::move(q));
    }
    const std::vector<MomentResult> batched = session->query_batch(batch);
    std::vector<std::future<ServeResult>> served;
    for (const SessionQuery& q : batch) served.push_back(engine.submit(q));
    ASSERT_TRUE(engine.drain_one());
    EXPECT_FALSE(engine.drain_one()) << "one sweep key, one group";

    for (std::size_t k = 0; k < pis.size(); ++k) {
      SCOPED_TRACE("pi " + std::to_string(k));
      const core::RandomizationMomentSolver solver(model.with_initial(pis[k]));
      const MomentResult want =
          c.weighted ? solver.solve_terminal_weighted(times[ti], w, opts)
                     : solver.solve_multi(times, opts)[ti];
      expect_prefix_bits(columnwise_finalize(sweep, ti, pis[k], c.order),
                         want, c.order, "column-wise chain");
      expect_prefix_bits(session->query(batch[k]), want, c.order, "query");
      expect_prefix_bits(batched[k], want, c.order, "query_batch");
      expect_prefix_bits(served[k].get().result, want, c.order, "engine");
    }
  }
  EXPECT_EQ(cache->stats().misses, 1u);
}

std::vector<HitCase> hit_grid() {
  std::vector<HitCase> out;
  for (std::size_t order = 0; order <= kGridMaxMoment; ++order)
    for (bool weighted : {false, true})
      for (DriftCase drift : {DriftCase::kNoShift, DriftCase::kNegativeShift,
                              DriftCase::kCentered})
        for (bool degenerate : {false, true})
          out.push_back(HitCase{order, weighted, drift, degenerate});
  return out;
}

std::string hit_case_name(const ::testing::TestParamInfo<HitCase>& info) {
  const HitCase& c = info.param;
  static const char* const kDrift[] = {"NoShift", "NegShift", "Centered"};
  return "Order" + std::to_string(c.order) +
         (c.weighted ? "_Weighted_" : "_Plain_") +
         kDrift[static_cast<int>(c.drift)] +
         (c.degenerate ? "_Degenerate" : "_Q");
}

INSTANTIATE_TEST_SUITE_P(Grid, HitPathBitIdentityTest,
                         ::testing::ValuesIn(hit_grid()), hit_case_name);

TEST(HitPathBitIdentityTest, WidePanelsTakeTheRuntimeWidthKernel) {
  // Orders 8+ are past the compile-time-width kernels; the runtime-width
  // instantiation must match the column-wise chain bit for bit as well.
  const auto model = make_grid_model(DriftCase::kNegativeShift, false);
  const std::vector<double> times{0.3, 0.9};
  MomentSolverOptions opts;
  opts.max_moment = 10;
  opts.epsilon = 1e-9;
  for (const Vec& w : {Vec{}, make_weights(kGridStates, 2)}) {
    const RetainedSweep sweep =
        core::RandomizationMomentSolver(model).sweep_retained(times, opts, w);
    ASSERT_NE(sweep.shift, 0.0);
    const Vec pi = make_pi(kGridStates, 5);
    for (std::size_t order : {7u, 8u, 10u}) {
      SCOPED_TRACE("order " + std::to_string(order));
      expect_prefix_bits(core::finalize_from_sweep(sweep, 1, pi, order),
                         columnwise_finalize(sweep, 1, pi, order), order,
                         w.empty() ? "plain" : "weighted");
    }
  }
}

// ---------------------------------------------------------------------------
// PreparedQuery: validated and keyed once, bound to its session
// ---------------------------------------------------------------------------

TEST(PreparedQueryTest, PrepareRejectsMalformedQueries) {
  const SolveSession session(make_model(8), {0.5, 1.0}, {},
                             std::make_shared<SweepCache>());
  SessionQuery bad_time;
  bad_time.time_index = 2;
  EXPECT_THROW(session.prepare(bad_time), std::invalid_argument);
  SessionQuery bad_order;
  bad_order.max_moment = session.options().max_moment + 1;
  EXPECT_THROW(session.prepare(bad_order), std::invalid_argument);
  SessionQuery bad_pi;
  bad_pi.initial = Vec(8, 0.25);  // sums to 2
  EXPECT_THROW(session.prepare(bad_pi), std::invalid_argument);
  SessionQuery bad_w;
  bad_w.terminal_weights = Vec(7, 1.0);  // wrong size
  EXPECT_THROW(session.prepare(bad_w), std::invalid_argument);
  // validate_query is the same check without the key.
  for (const SessionQuery* q : {&bad_time, &bad_order, &bad_pi, &bad_w})
    EXPECT_THROW(session.validate_query(*q), std::invalid_argument);
  EXPECT_NO_THROW(session.validate_query(SessionQuery{}));
  // Nothing was looked up or computed.
  EXPECT_EQ(session.cache_stats().misses, 0u);
  EXPECT_EQ(session.report().queries, 0u);
}

TEST(PreparedQueryTest, CarriesResolvedOrderAndSweepKey) {
  const SolveSession session(make_model(10), {0.5, 1.0}, {},
                             std::make_shared<SweepCache>());
  SessionQuery q;
  q.time_index = 1;
  q.initial = make_pi(10, 4);
  q.terminal_weights = make_weights(10, 2);
  const core::PreparedQuery p = session.prepare(q);
  EXPECT_EQ(p.order(), session.options().max_moment);
  EXPECT_EQ(p.sweep_key(), session.sweep_key(q.terminal_weights));
  EXPECT_EQ(p.query().time_index, 1u);

  core::QueryRecord rec;
  const MomentResult got = session.query(p, &rec);
  EXPECT_EQ(rec.sweep_key, p.sweep_key());
  expect_prefix_bits(got, session.query(q), p.order(), "prepared vs direct");
}

TEST(PreparedQueryTest, ForeignSessionRefusesWithoutCrashing) {
  const auto cache = std::make_shared<SweepCache>();
  const SolveSession a(make_model(8), {0.5, 1.0}, {}, cache);
  const SolveSession b(make_model(12), {0.5, 1.0}, {}, cache);
  SessionQuery q;
  q.initial = make_pi(8, 1);  // sized for a, out of bounds for b
  q.terminal_weights = make_weights(8, 1);
  const core::PreparedQuery p = a.prepare(q);

  EXPECT_THROW(b.query(p), std::invalid_argument);
  EXPECT_THROW(b.query_batch(std::span<const core::PreparedQuery>(&p, 1)),
               std::invalid_argument);
  EXPECT_THROW(b.query(core::PreparedQuery{}), std::invalid_argument);
  EXPECT_THROW(a.query(core::PreparedQuery{}), std::invalid_argument);
  EXPECT_EQ(cache->stats().misses, 0u);
  // The owner still answers it.
  EXPECT_EQ(a.query(p).weighted.size(), a.options().max_moment + 1);
}

// ---------------------------------------------------------------------------
// Cache counters, eviction, sharing
// ---------------------------------------------------------------------------

TEST(SweepCacheTest, CountersTrackHitsMissesAndDistinctWeights) {
  const auto model = make_model(12);
  const std::vector<double> times{0.5, 1.0};
  MomentSolverOptions opts;
  opts.max_moment = 3;
  const auto cache = std::make_shared<SweepCache>();
  const SolveSession session(model, times, opts, cache);

  SessionQuery plain;
  const auto r0 = session.query(plain);
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_EQ(cache->stats().hits, 0u);
  EXPECT_EQ(r0.stats.cache_misses, 1u);

  // Same sweep again: a hit, even with a different pi, time and order.
  SessionQuery q2;
  q2.time_index = 1;
  q2.max_moment = 1;
  q2.initial = make_pi(12, 3);
  const auto r2 = session.query(q2);
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_EQ(cache->stats().hits, 1u);
  EXPECT_EQ(r2.stats.cache_hits, 1u);

  // A distinct terminal-weight vector needs its own sweep.
  SessionQuery qw;
  qw.terminal_weights = make_weights(12, 1);
  session.query(qw);
  EXPECT_EQ(cache->stats().misses, 2u);
  session.query(qw);
  EXPECT_EQ(cache->stats().hits, 2u);
  EXPECT_EQ(cache->stats().entries, 2u);
  EXPECT_GT(cache->stats().bytes, 0u);
}

TEST(SweepCacheTest, LruEvictionKeepsNewestUnderByteBudget) {
  const auto model = make_model(12);
  const std::vector<double> times{0.5};
  MomentSolverOptions opts;
  opts.max_moment = 2;
  const auto cache = std::make_shared<SweepCache>();
  const SolveSession session(model, times, opts, cache);

  SessionQuery plain;
  session.query(plain);
  const std::size_t one_entry_bytes = cache->stats().bytes;
  ASSERT_GT(one_entry_bytes, 0u);

  // Budget fits exactly one retained sweep: the second (weighted) sweep
  // must evict the first, never itself.
  cache->set_byte_budget(one_entry_bytes);
  SessionQuery qw;
  qw.terminal_weights = make_weights(12, 2);
  session.query(qw);
  EXPECT_EQ(cache->stats().evictions, 1u);
  EXPECT_EQ(cache->stats().entries, 1u);

  // The weighted sweep survived (hit); the plain one recomputes (miss).
  const std::size_t misses_before = cache->stats().misses;
  session.query(qw);
  EXPECT_EQ(cache->stats().misses, misses_before);
  session.query(plain);
  EXPECT_EQ(cache->stats().misses, misses_before + 1);
}

TEST(SweepCacheTest, ConcurrentMissesCoalesceToOneCompute) {
  SweepCache cache;
  std::atomic<int> computes{0};
  std::atomic<bool> release{false};
  const auto compute = [&] {
    ++computes;
    while (!release.load()) std::this_thread::yield();
    return RetainedSweep{};
  };

  SweepCache::EntryPtr a, b;
  std::thread first([&] { a = cache.get_or_compute("k", compute); });
  // Wait until the second caller has actually joined the in-flight compute
  // (its coalesced counter bumps BEFORE it blocks on the shared future),
  // then release; fall back to releasing after 5 s so a bug cannot hang
  // the suite.
  std::thread second;
  while (computes.load() == 0) std::this_thread::yield();
  second = std::thread([&] { b = cache.get_or_compute("k", compute); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (cache.stats().coalesced == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  release = true;
  first.join();
  second.join();

  EXPECT_EQ(computes.load(), 1);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().coalesced, 1u);
  EXPECT_EQ(a.get(), b.get());
}

TEST(SweepCacheTest, FailedComputeIsRetryable) {
  SweepCache cache;
  EXPECT_THROW(cache.get_or_compute(
                   "bad", []() -> RetainedSweep {
                     throw std::runtime_error("sweep failed");
                   }),
               std::runtime_error);
  // The key was left uncached; the next call computes successfully.
  const auto entry =
      cache.get_or_compute("bad", [] { return RetainedSweep{}; });
  EXPECT_NE(entry, nullptr);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(SolveSessionTest, SessionsShareCacheByModelContentNotObject) {
  const std::vector<double> times{0.5, 1.0};
  MomentSolverOptions opts;
  opts.max_moment = 2;
  const auto cache = std::make_shared<SweepCache>();

  const SolveSession s1(make_model(12), times, opts, cache);
  s1.query(SessionQuery{});
  EXPECT_EQ(cache->stats().misses, 1u);

  // A distinct model OBJECT with bitwise-equal content and a different
  // initial vector shares the entry: the key hashes the generator, drifts
  // and variances only.
  const SolveSession s2(
      make_model(12).with_initial(make_pi(12, 5)), times, opts, cache);
  EXPECT_EQ(s2.base_key(), s1.base_key());
  s2.query(SessionQuery{});
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_EQ(cache->stats().hits, 1u);

  // Perturbing one drift changes the content hash -> fresh sweep.
  auto other = make_model(12);
  Vec drifts = other.drifts();
  drifts[3] += 0.125;
  const SolveSession s3(
      core::SecondOrderMrm(other.generator(), drifts, other.variances(),
                           other.initial()),
      times, opts, cache);
  EXPECT_NE(s3.base_key(), s1.base_key());
  s3.query(SessionQuery{});
  EXPECT_EQ(cache->stats().misses, 2u);
}

// ---------------------------------------------------------------------------
// t = 0 through the session path
// ---------------------------------------------------------------------------

TEST(SolveSessionTest, TimeZeroOnGridIsExact) {
  const auto model = make_model(10);
  const std::vector<double> times{0.0, 0.5};
  MomentSolverOptions opts;
  opts.max_moment = 3;
  const SolveSession session(model, times, opts,
                             std::make_shared<SweepCache>());

  SessionQuery q0;  // default pi = unit vector -> exact values
  const auto r = session.query(q0);
  EXPECT_EQ(r.time, 0.0);
  EXPECT_EQ(r.weighted[0], 1.0);
  for (std::size_t j = 1; j <= 3; ++j) {
    EXPECT_EQ(r.weighted[j], 0.0) << "moment " << j;
    for (double v : r.per_state[j]) EXPECT_EQ(v, 0.0);
  }

  // And bit-identical to the independent t = 0 solve, weighted included.
  const core::RandomizationMomentSolver solver(model);
  expect_bit_identical_prefix(r, solver.solve(0.0, opts), 3);

  SessionQuery qw;
  qw.terminal_weights = make_weights(10, 1);
  const auto rw = session.query(qw);
  expect_bit_identical_prefix(
      rw, solver.solve_terminal_weighted(0.0, qw.terminal_weights, opts), 3);
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

TEST(SolveSessionTest, RejectsInvalidQueries) {
  const auto model = make_model(8);
  const SolveSession session(model, {0.5, 1.0}, {},
                             std::make_shared<SweepCache>());

  SessionQuery bad_time;
  bad_time.time_index = 2;
  EXPECT_THROW(session.query(bad_time), std::invalid_argument);

  SessionQuery bad_order;
  bad_order.max_moment = session.options().max_moment + 1;
  EXPECT_THROW(session.query(bad_order), std::invalid_argument);

  SessionQuery bad_pi_size;
  bad_pi_size.initial = Vec(7, 1.0 / 7.0);
  EXPECT_THROW(session.query(bad_pi_size), std::invalid_argument);

  SessionQuery bad_pi_negative;
  bad_pi_negative.initial = Vec(8, 0.25);
  bad_pi_negative.initial[0] = -0.5;
  bad_pi_negative.initial[1] = 0.0;  // sums to 1, one negative entry
  EXPECT_THROW(session.query(bad_pi_negative), std::invalid_argument);

  SessionQuery bad_pi_sum;
  bad_pi_sum.initial = Vec(8, 0.25);  // sums to 2
  EXPECT_THROW(session.query(bad_pi_sum), std::invalid_argument);

  SessionQuery bad_w_negative;
  bad_w_negative.terminal_weights = Vec(8, 1.0);
  bad_w_negative.terminal_weights[2] = -1.0;
  EXPECT_THROW(session.query(bad_w_negative), std::invalid_argument);

  SessionQuery bad_w_zero;
  bad_w_zero.terminal_weights = Vec(8, 0.0);
  EXPECT_THROW(session.query(bad_w_zero), std::invalid_argument);
}

TEST(SolveSessionTest, RejectsDuplicateOrUnsortedTimeGrid) {
  const auto model = make_model(8);
  EXPECT_THROW(SolveSession(model, {0.5, 0.5}, {}), std::invalid_argument);
  EXPECT_THROW(SolveSession(model, {1.0, 0.5}, {}), std::invalid_argument);
  try {
    const SolveSession s(model, {0.25, 0.25}, {});
    FAIL() << "duplicate grid accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate time point"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Per-query observability: SessionReport records and attribution
// ---------------------------------------------------------------------------

TEST(SessionReportTest, RecordsCarryMonotonicIdsAndCacheAttribution) {
  const auto model = make_model(12);
  const std::vector<double> times{0.5, 1.0};
  MomentSolverOptions opts;
  opts.max_moment = 3;
  const SolveSession session(model, times, opts,
                             std::make_shared<SweepCache>());

  // miss (first plain sweep), hit, hit (same sweep), miss (new weights).
  SessionQuery plain;
  session.query(plain);
  SessionQuery q2;
  q2.time_index = 1;
  q2.max_moment = 1;
  session.query(q2);
  session.query(plain);
  SessionQuery qw;
  qw.terminal_weights = make_weights(12, 1);
  session.query(qw);

  const core::SessionReport rep = session.report();
  EXPECT_EQ(rep.queries, 4u);
  EXPECT_EQ(rep.dropped_records, 0u);
  ASSERT_EQ(rep.records.size(), 4u);

  // Process-wide IDs: strictly increasing within the session, all >= 1.
  EXPECT_GE(rep.records[0].query_id, 1u);
  for (std::size_t i = 1; i < rep.records.size(); ++i)
    EXPECT_GT(rep.records[i].query_id, rep.records[i - 1].query_id) << i;

  EXPECT_EQ(rep.records[0].cache_outcome, SweepCache::Outcome::kMiss);
  EXPECT_EQ(rep.records[1].cache_outcome, SweepCache::Outcome::kHit);
  EXPECT_EQ(rep.records[2].cache_outcome, SweepCache::Outcome::kHit);
  EXPECT_EQ(rep.records[3].cache_outcome, SweepCache::Outcome::kMiss);
  EXPECT_EQ(rep.cache.misses, 2u);
  EXPECT_EQ(rep.cache.hits, 2u);

  // Resolved orders and grid indices round-trip into the records.
  EXPECT_EQ(rep.records[0].max_moment, opts.max_moment);  // kSessionMax
  EXPECT_EQ(rep.records[1].max_moment, 1u);
  EXPECT_EQ(rep.records[1].time_index, 1u);

  // The plain queries share one sweep key; the weighted one differs.
  for (const core::QueryRecord& r : rep.records)
    EXPECT_FALSE(r.sweep_key.empty()) << "query_id " << r.query_id;
  EXPECT_EQ(rep.records[0].sweep_key, rep.records[1].sweep_key);
  EXPECT_EQ(rep.records[0].sweep_key, rep.records[2].sweep_key);
  EXPECT_NE(rep.records[0].sweep_key, rep.records[3].sweep_key);

  if (obs::kEnabled) {
    for (const core::QueryRecord& r : rep.records) {
      EXPECT_GT(r.latency_ns, 0) << "query_id " << r.query_id;
      EXPECT_GE(r.latency_ns, r.finalize_ns) << "query_id " << r.query_id;
    }
    // Exact order statistics over 4 records: p50 is the 2nd smallest,
    // p90/p99/p999 the largest.
    std::vector<std::int64_t> lat;
    for (const core::QueryRecord& r : rep.records)
      lat.push_back(r.latency_ns);
    std::sort(lat.begin(), lat.end());
    EXPECT_EQ(rep.latency_p50_ns, lat[1]);
    EXPECT_EQ(rep.latency_p90_ns, lat[3]);
    EXPECT_EQ(rep.latency_p99_ns, lat[3]);
    EXPECT_EQ(rep.latency_p999_ns, lat[3]);
  } else {
    for (const core::QueryRecord& r : rep.records) {
      EXPECT_EQ(r.latency_ns, 0);
      EXPECT_EQ(r.finalize_ns, 0);
    }
    EXPECT_EQ(rep.latency_p50_ns, 0);
  }
}

TEST(SessionReportTest, BatchRecordsEveryQueryInOrder) {
  const std::size_t n = 24;
  const auto model = make_model(n);
  const std::vector<double> times{0.25, 0.6, 1.1};
  MomentSolverOptions opts;
  opts.max_moment = 4;
  const auto batch = make_mixed_batch(n, times.size(), opts.max_moment);
  const SolveSession session(model, times, opts,
                             std::make_shared<SweepCache>());
  session.query_batch(batch.queries);

  const core::SessionReport rep = session.report();
  EXPECT_EQ(rep.queries, batch.queries.size());
  ASSERT_EQ(rep.records.size(), batch.queries.size());
  std::size_t misses = 0;
  for (std::size_t i = 0; i < rep.records.size(); ++i) {
    EXPECT_EQ(rep.records[i].time_index, batch.queries[i].time_index) << i;
    EXPECT_EQ(rep.records[i].max_moment, batch.orders[i]) << i;
    if (rep.records[i].cache_outcome != SweepCache::Outcome::kHit) ++misses;
  }
  // 3 distinct weight vectors -> exactly 3 non-hit (miss) records.
  EXPECT_EQ(misses, 3u);
}

TEST(SessionReportTest, EmptySessionReportsZeroes) {
  const auto model = make_model(8);
  const SolveSession session(model, {0.5}, {}, std::make_shared<SweepCache>());
  const core::SessionReport rep = session.report();
  EXPECT_EQ(rep.queries, 0u);
  EXPECT_TRUE(rep.records.empty());
  EXPECT_EQ(rep.dropped_records, 0u);
  EXPECT_EQ(rep.latency_p50_ns, 0);
  EXPECT_EQ(rep.latency_p999_ns, 0);
}

TEST(SessionReportTest, QueryResultsBitIdenticalWithMetricsExportEnabled) {
  // The observability path (records, histograms, gauges, export) must not
  // perturb the numeric data flow: EXPECT_EQ, not near.
  const std::size_t n = 16;
  const auto model = make_model(n);
  const std::vector<double> times{0.5, 1.0};
  MomentSolverOptions opts;
  opts.max_moment = 3;

  obs::set_metrics_path("");
  const SolveSession s_plain(model, times, opts,
                             std::make_shared<SweepCache>());
  SessionQuery q;
  q.time_index = 1;
  const MomentResult plain = s_plain.query(q);

  const std::string path = ::testing::TempDir() + "somrm_session_bitident.prom";
  obs::set_metrics_path(path);
  const SolveSession s_metered(model, times, opts,
                               std::make_shared<SweepCache>());
  const MomentResult metered = s_metered.query(q);
  obs::write_metrics();
  obs::set_metrics_path("");
  std::remove(path.c_str());

  ASSERT_EQ(plain.weighted.size(), metered.weighted.size());
  for (std::size_t j = 0; j < plain.weighted.size(); ++j)
    EXPECT_EQ(plain.weighted[j], metered.weighted[j]) << "moment " << j;
  ASSERT_EQ(plain.per_state.size(), metered.per_state.size());
  for (std::size_t j = 0; j < plain.per_state.size(); ++j)
    for (std::size_t i = 0; i < plain.per_state[j].size(); ++i)
      EXPECT_EQ(plain.per_state[j][i], metered.per_state[j][i])
          << "moment " << j << " state " << i;
}

}  // namespace
}  // namespace somrm
