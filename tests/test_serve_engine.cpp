// Tests for the concurrent serving engine (serve/engine.hpp) and the
// sweep-cache snapshots underneath it (serve/snapshot.hpp):
//
//  * admission control — synchronous validation, typed queue-full /
//    stopped rejections that never block, pinned in manual mode
//    (num_workers = 0 + drain_one()) where nothing races the assertions;
//  * key-grouped batching — same-sweep-key queries gathered across the
//    queue into one group, the max_batch cap, each group member delivered
//    before the next is answered, stop() draining accepted work;
//  * bit-identity under real concurrency — many client threads against a
//    worker-driven engine with a tiny cache budget (evictions racing
//    coalesced waiters), every streamed result EXPECT_EQ-equal to an
//    independent synchronous SolveSession. This is the test the TSan CI
//    leg runs to hunt data races in the engine;
//  * snapshot round trips — save/load bit-exactness via
//    core::bit_identical, warm starts that serve a cache HIT before any
//    sweep, missing-file cold starts, and rejection of corrupted,
//    truncated, version-mismatched, endian-mismatched snapshots;
//  * the PR's observability bugfixes — the SweepCacheStats::over_budget
//    flag (an over-budget cache used to be invisible) and the
//    session.cache.bytes / mem.peak_rss_bytes gauges resampling on
//    eviction and on the engine worker tick (they used to go stale on
//    long hit-only runs).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/randomization.hpp"
#include "core/solve_session.hpp"
#include "obs/export.hpp"
#include "obs/telemetry.hpp"
#include "serve/engine.hpp"
#include "serve/snapshot.hpp"

namespace somrm {
namespace {

using core::MomentResult;
using core::MomentSolverOptions;
using core::SessionQuery;
using core::SolveSession;
using core::SweepCache;
using linalg::Triplet;
using linalg::Vec;
using serve::RejectedError;
using serve::RejectReason;
using serve::ServeEngine;
using serve::ServeEngineOptions;
using serve::ServeResult;
using serve::SnapshotError;

/// Same irregular chain as test_solve_session: ring + chords, mixed-sign
/// drifts, mixed zero/positive variances.
core::SecondOrderMrm make_model(std::size_t n) {
  std::vector<Triplet> rates;
  for (std::size_t i = 0; i < n; ++i) {
    rates.push_back({i, (i + 1) % n, 1.0 + 0.3 * static_cast<double>(i % 5)});
    if (i % 3 == 0) rates.push_back({i, (i + 2) % n, 0.7});
  }
  Vec drifts(n, 0.0);
  Vec variances(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    drifts[i] = static_cast<double>(i % 4) - 1.0;
    variances[i] = (i % 2 == 0) ? 0.5 : 0.0;
  }
  return core::SecondOrderMrm(ctmc::Generator::from_rates(n, rates), drifts,
                              variances, linalg::unit_vec(n, 0));
}

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
    w[s] = static_cast<double>((seed * 5 + s) % 4);
  return w;
}

std::shared_ptr<const SolveSession> make_session(
    std::size_t n, std::shared_ptr<SweepCache> cache,
    std::size_t max_moment = 3) {
  MomentSolverOptions opts;
  opts.max_moment = max_moment;
  opts.epsilon = 1e-9;
  return std::make_shared<const SolveSession>(
      make_model(n), std::vector<double>{0.25, 0.6, 1.1}, opts,
      std::move(cache));
}

void expect_results_equal(const MomentResult& got, const MomentResult& want) {
  ASSERT_EQ(got.weighted.size(), want.weighted.size());
  for (std::size_t j = 0; j < got.weighted.size(); ++j)
    EXPECT_EQ(got.weighted[j], want.weighted[j]) << "moment " << j;
  ASSERT_EQ(got.per_state.size(), want.per_state.size());
  for (std::size_t j = 0; j < got.per_state.size(); ++j) {
    ASSERT_EQ(got.per_state[j].size(), want.per_state[j].size());
    for (std::size_t i = 0; i < got.per_state[j].size(); ++i)
      EXPECT_EQ(got.per_state[j][i], want.per_state[j][i])
          << "moment " << j << " state " << i;
  }
  EXPECT_EQ(got.truncation_point, want.truncation_point);
  EXPECT_EQ(got.error_bound, want.error_bound);
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// ---------------------------------------------------------------------------
// Admission control and grouping (manual mode: deterministic, no workers)
// ---------------------------------------------------------------------------

TEST(ServeEngineManualTest, SubmitValidatesSynchronously) {
  ServeEngineOptions opts;
  opts.num_workers = 0;
  ServeEngine engine(make_session(12, std::make_shared<SweepCache>()), opts);

  SessionQuery bad_time;
  bad_time.time_index = 99;
  EXPECT_THROW(engine.submit(bad_time), std::invalid_argument);

  SessionQuery bad_w;
  bad_w.terminal_weights = Vec(12, 0.0);  // all-zero weights are invalid
  EXPECT_THROW(engine.submit(bad_w), std::invalid_argument);

  // Nothing was admitted: the queue is empty and no counters moved.
  EXPECT_FALSE(engine.drain_one());
  EXPECT_EQ(engine.stats().submitted, 0u);
  EXPECT_EQ(engine.stats().queue_depth, 0u);
}

TEST(ServeEngineManualTest, QueueFullRejectsWithTypedErrorAndNeverBlocks) {
  ServeEngineOptions opts;
  opts.num_workers = 0;
  opts.max_queue = 2;
  ServeEngine engine(make_session(12, std::make_shared<SweepCache>()), opts);

  auto f1 = engine.submit(SessionQuery{});
  auto f2 = engine.submit(SessionQuery{});
  try {
    engine.submit(SessionQuery{});
    FAIL() << "third submit admitted past max_queue = 2";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kQueueFull);
  }
  EXPECT_EQ(engine.stats().rejected_queue_full, 1u);
  EXPECT_EQ(engine.stats().submitted, 2u);
  EXPECT_EQ(engine.stats().queue_depth, 2u);

  // Draining frees capacity; the retry is admitted.
  EXPECT_TRUE(engine.drain_one());
  auto f3 = engine.submit(SessionQuery{});
  EXPECT_TRUE(engine.drain_one());
  f1.get();
  f2.get();
  f3.get();
  EXPECT_EQ(engine.stats().completed, 3u);
}

TEST(ServeEngineManualTest, StoppedEngineRejectsNewWork) {
  ServeEngineOptions opts;
  opts.num_workers = 0;
  ServeEngine engine(make_session(12, std::make_shared<SweepCache>()), opts);
  engine.stop();
  try {
    engine.submit(SessionQuery{});
    FAIL() << "stopped engine admitted work";
  } catch (const RejectedError& e) {
    EXPECT_EQ(e.reason(), RejectReason::kStopped);
  }
  EXPECT_EQ(engine.stats().rejected_stopped, 1u);
}

TEST(ServeEngineManualTest, DrainOneGroupsBySweepKeyAcrossQueueOrder) {
  const auto cache = std::make_shared<SweepCache>();
  const auto session = make_session(12, cache);
  ServeEngineOptions opts;
  opts.num_workers = 0;
  ServeEngine engine(session, opts);

  // Interleave two sweep keys: plain, weighted, plain, weighted. The first
  // drain must execute BOTH plain queries as one group (gathered across
  // the weighted one sitting between them), the second both weighted.
  SessionQuery plain_a;
  SessionQuery plain_b;
  plain_b.time_index = 1;
  plain_b.initial = make_pi(12, 3);
  SessionQuery weighted_a;
  weighted_a.terminal_weights = make_weights(12, 1);
  SessionQuery weighted_b = weighted_a;
  weighted_b.time_index = 2;

  auto fp_a = engine.submit(plain_a);
  auto fw_a = engine.submit(weighted_a);
  auto fp_b = engine.submit(plain_b);
  auto fw_b = engine.submit(weighted_b);

  ASSERT_TRUE(engine.drain_one());
  ServeResult rp_a = fp_a.get();
  ServeResult rp_b = fp_b.get();
  EXPECT_EQ(rp_a.batch_size, 2u);
  EXPECT_EQ(rp_b.batch_size, 2u);
  EXPECT_EQ(rp_a.record.sweep_key, rp_b.record.sweep_key);
  // The weighted queries have not run: one sweep so far, futures pending.
  EXPECT_EQ(session->cache_stats().misses, 1u);

  ASSERT_TRUE(engine.drain_one());
  ServeResult rw_a = fw_a.get();
  ServeResult rw_b = fw_b.get();
  EXPECT_EQ(rw_a.batch_size, 2u);
  EXPECT_EQ(rw_a.record.sweep_key, rw_b.record.sweep_key);
  EXPECT_NE(rw_a.record.sweep_key, rp_a.record.sweep_key);
  EXPECT_FALSE(engine.drain_one());

  const auto stats = engine.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.largest_batch, 2u);
  EXPECT_EQ(stats.completed, 4u);

  // Every streamed result is bit-identical to the synchronous session.
  expect_results_equal(rp_a.result, session->query(plain_a));
  expect_results_equal(rp_b.result, session->query(plain_b));
  expect_results_equal(rw_a.result, session->query(weighted_a));
  expect_results_equal(rw_b.result, session->query(weighted_b));
}

TEST(ServeEngineManualTest, MaxBatchBoundsGroupSize) {
  ServeEngineOptions opts;
  opts.num_workers = 0;
  opts.max_batch = 2;
  ServeEngine engine(make_session(12, std::make_shared<SweepCache>()), opts);

  std::vector<std::future<ServeResult>> futures;
  for (std::size_t i = 0; i < 3; ++i)
    futures.push_back(engine.submit(SessionQuery{}));
  ASSERT_TRUE(engine.drain_one());
  EXPECT_EQ(futures[0].get().batch_size, 2u);
  EXPECT_EQ(futures[1].get().batch_size, 2u);
  ASSERT_TRUE(engine.drain_one());
  EXPECT_EQ(futures[2].get().batch_size, 1u);
  EXPECT_EQ(engine.stats().largest_batch, 2u);
}

TEST(ServeEngineManualTest, CallbackFlavourDeliversResultAndRecord) {
  const auto session = make_session(12, std::make_shared<SweepCache>());
  ServeEngineOptions opts;
  opts.num_workers = 0;
  ServeEngine engine(session, opts);

  SessionQuery q;
  q.time_index = 1;
  std::promise<ServeResult> delivered;
  engine.submit(q, [&](ServeResult&& r, std::exception_ptr error) {
    EXPECT_EQ(error, nullptr);
    delivered.set_value(std::move(r));
  });
  ASSERT_TRUE(engine.drain_one());
  ServeResult r = delivered.get_future().get();
  expect_results_equal(r.result, session->query(q));
  EXPECT_EQ(r.record.time_index, 1u);
  EXPECT_FALSE(r.record.sweep_key.empty());
  EXPECT_GE(r.total_ns, r.queue_ns);
  EXPECT_EQ(engine.stats().completed, 1u);
}

TEST(ServeEngineManualTest, GroupDeliversEachResultBeforeAnsweringTheNext) {
  // A group is answered query by query: when a callback runs, the session
  // has answered only the queries delivered so far, so a worker never
  // holds more than one group member's result at a time.
  const auto session = make_session(12, std::make_shared<SweepCache>());
  ServeEngineOptions opts;
  opts.num_workers = 0;
  ServeEngine engine(session, opts);

  constexpr std::size_t kGroup = 3;
  std::vector<std::uint64_t> answered_at_delivery;
  std::vector<std::uint64_t> completed_at_delivery;
  for (std::size_t i = 0; i < kGroup; ++i) {
    SessionQuery q;
    q.time_index = i % 2;
    engine.submit(q, [&](ServeResult&& r, std::exception_ptr error) {
      EXPECT_EQ(error, nullptr);
      EXPECT_EQ(r.batch_size, kGroup);
      answered_at_delivery.push_back(session->report().queries);
      completed_at_delivery.push_back(engine.stats().completed);
    });
  }
  ASSERT_TRUE(engine.drain_one());
  EXPECT_EQ(answered_at_delivery, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(completed_at_delivery, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(engine.stats().batches, 1u);
}

TEST(ServeEnginePreparedTest, SubmitRejectsMalformedQueriesSynchronously) {
  // Admission runs SolveSession::prepare on the client thread: every
  // malformed shape throws there, in both submit flavours, and nothing
  // reaches the queue.
  ServeEngineOptions opts;
  opts.num_workers = 0;
  ServeEngine engine(make_session(12, std::make_shared<SweepCache>()), opts);

  std::vector<SessionQuery> bad(4);
  bad[0].max_moment = 4;                     // session max is 3
  bad[1].initial = Vec(11, 1.0 / 11.0);      // wrong size
  bad[2].initial = Vec(12, 0.5);             // sums to 6
  bad[3].terminal_weights = Vec(12, -1.0);   // negative weights
  for (const SessionQuery& q : bad) {
    EXPECT_THROW(engine.submit(q), std::invalid_argument);
    EXPECT_THROW(engine.submit(q, [](ServeResult&&, std::exception_ptr) {}),
                 std::invalid_argument);
  }
  EXPECT_FALSE(engine.drain_one());
  EXPECT_EQ(engine.stats().submitted, 0u);
  EXPECT_EQ(engine.session()->cache_stats().misses, 0u);
}

TEST(ServeEnginePreparedTest, RecordSweepKeyIsTheAdmissionKey) {
  const auto session = make_session(12, std::make_shared<SweepCache>());
  ServeEngineOptions opts;
  opts.num_workers = 0;
  ServeEngine engine(session, opts);

  SessionQuery plain;
  SessionQuery weighted;
  weighted.time_index = 2;
  weighted.initial = make_pi(12, 3);
  weighted.terminal_weights = make_weights(12, 1);
  auto f_plain = engine.submit(plain);
  auto f_weighted = engine.submit(weighted);
  while (engine.drain_one()) {
  }
  const ServeResult r_plain = f_plain.get();
  const ServeResult r_weighted = f_weighted.get();
  EXPECT_EQ(r_plain.record.sweep_key, session->sweep_key({}));
  EXPECT_EQ(r_weighted.record.sweep_key,
            session->sweep_key(weighted.terminal_weights));
  EXPECT_NE(r_plain.record.sweep_key, r_weighted.record.sweep_key);
  expect_results_equal(r_weighted.result, session->query(weighted));
}

TEST(ServeEngineManualTest, StopDrainsAcceptedWork) {
  ServeEngineOptions opts;
  opts.num_workers = 0;
  ServeEngine engine(make_session(12, std::make_shared<SweepCache>()), opts);
  auto f1 = engine.submit(SessionQuery{});
  SessionQuery qw;
  qw.terminal_weights = make_weights(12, 2);
  auto f2 = engine.submit(qw);
  engine.stop();
  // Accepted work was executed, not dropped: both futures are ready.
  EXPECT_EQ(f1.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(f2.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  f1.get();
  f2.get();
  EXPECT_EQ(engine.stats().completed, 2u);
  EXPECT_EQ(engine.stats().queue_depth, 0u);
}

// ---------------------------------------------------------------------------
// Concurrency: the TSan stress surface
// ---------------------------------------------------------------------------

// Many client threads against a running engine whose cache budget is too
// small to hold every sweep — submissions, the batching-window linger,
// evictions, and coalesced waiters all race. Every result must still be
// bit-identical to an independent synchronous session. (The CI sanitize
// matrix runs this under TSan; the assertions also pin correctness in
// plain builds.)
TEST(ServeEngineConcurrencyTest, StressedMixedLoadStaysBitIdentical) {
  const std::size_t n = 16;
  const auto cache = std::make_shared<SweepCache>();
  const auto session = make_session(n, cache);

  // Reference results from a session the engine never touches.
  const auto ref_session = make_session(n, std::make_shared<SweepCache>());
  std::vector<SessionQuery> combos;
  for (std::size_t ti = 0; ti < 3; ++ti)
    for (std::size_t w = 0; w < 3; ++w)
      for (std::size_t p = 0; p < 2; ++p) {
        SessionQuery q;
        q.time_index = ti;
        if (p == 1) q.initial = make_pi(n, ti + w);
        if (w > 0) q.terminal_weights = make_weights(n, w);
        combos.push_back(std::move(q));
      }
  const std::vector<MomentResult> refs = ref_session->query_batch(combos);

  // Budget of one retained sweep: three distinct keys keep evicting each
  // other while coalesced waiters still hold the shared entries.
  cache->set_byte_budget(1);
  const auto budget_probe = session->query(combos[0]);
  cache->set_byte_budget(session->cache_stats().bytes);

  ServeEngineOptions opts;
  opts.num_workers = 3;
  opts.batch_window_ns = 50'000;
  opts.max_queue = 64;
  ServeEngine engine(session, opts);

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 40;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const std::size_t combo = (c * kPerClient + i) % combos.size();
        std::future<ServeResult> fut;
        for (;;) {
          try {
            fut = engine.submit(combos[combo]);
            break;
          } catch (const RejectedError&) {
            std::this_thread::yield();
          }
        }
        const ServeResult r = fut.get();
        if (r.result.weighted != refs[combo].weighted ||
            r.result.truncation_point != refs[combo].truncation_point ||
            r.result.error_bound != refs[combo].error_bound)
          mismatches.fetch_add(1);
        if (r.total_ns < r.queue_ns) mismatches.fetch_add(1);
      }
    });
  for (std::thread& t : clients) t.join();
  engine.stop();

  EXPECT_EQ(mismatches.load(), 0u);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.submitted, kClients * kPerClient);
  EXPECT_EQ(stats.completed, kClients * kPerClient);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GT(session->cache_stats().evictions, 0u);
  (void)budget_probe;
}

TEST(ServeEngineConcurrencyTest, TinyQueueRetriesEventuallyComplete) {
  const auto session = make_session(12, std::make_shared<SweepCache>());
  ServeEngineOptions opts;
  opts.num_workers = 1;
  opts.max_queue = 1;
  opts.batch_window_ns = 0;
  ServeEngine engine(session, opts);

  constexpr std::size_t kClients = 3;
  constexpr std::size_t kPerClient = 20;
  std::atomic<std::size_t> completed{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c)
    clients.emplace_back([&] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        for (;;) {
          try {
            engine.submit(SessionQuery{}).get();
            break;
          } catch (const RejectedError&) {
            std::this_thread::yield();
          }
        }
        completed.fetch_add(1);
      }
    });
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(completed.load(), kClients * kPerClient);
  EXPECT_EQ(engine.stats().completed, kClients * kPerClient);
}

// ---------------------------------------------------------------------------
// Snapshots: round trip, warm start, defect rejection
// ---------------------------------------------------------------------------

/// Populates @p cache with three sweeps (plain + two weight classes).
void populate(const SolveSession& session) {
  session.query(SessionQuery{});
  SessionQuery w1;
  w1.terminal_weights = make_weights(session.model().num_states(), 1);
  session.query(w1);
  SessionQuery w2;
  w2.terminal_weights = make_weights(session.model().num_states(), 2);
  session.query(w2);
}

TEST(SnapshotTest, SaveLoadRoundTripIsBitExact) {
  const auto cache = std::make_shared<SweepCache>();
  const auto session = make_session(12, cache);
  populate(*session);
  const std::string path = temp_path("somrm_snap_roundtrip.bin");

  EXPECT_EQ(serve::save_snapshot(*cache, path), 3u);
  SweepCache reloaded;
  EXPECT_EQ(serve::load_snapshot(reloaded, path), 3u);
  std::remove(path.c_str());

  const auto before = cache->entries_snapshot();
  const auto after = reloaded.entries_snapshot();
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    // Same keys in the same recency order, and every retained sweep is
    // bit-identical (times, scalars, panels — everything finalize reads).
    EXPECT_EQ(before[i].first, after[i].first) << i;
    EXPECT_TRUE(core::bit_identical(*before[i].second, *after[i].second))
        << "entry " << i;
  }
}

TEST(SnapshotTest, WarmStartServesHitBeforeAnySweep) {
  const auto cache = std::make_shared<SweepCache>();
  const auto session = make_session(12, cache);
  SessionQuery q;
  q.time_index = 2;
  const MomentResult original = session->query(q);
  const std::string path = temp_path("somrm_snap_warm.bin");
  serve::save_snapshot(*cache, path);

  // Simulated restart: fresh cache, fresh session, same model content.
  const auto cache2 = std::make_shared<SweepCache>();
  const auto session2 = make_session(12, cache2);
  EXPECT_EQ(serve::load_snapshot(*cache2, path), 1u);
  std::remove(path.c_str());

  const MomentResult warm = session2->query(q);
  // The first query after the restart was a HIT: no sweep ran, and the
  // finalize against the reloaded panels reproduced the original bits.
  EXPECT_EQ(cache2->stats().misses, 0u);
  EXPECT_EQ(cache2->stats().hits, 1u);
  expect_results_equal(warm, original);
}

TEST(SnapshotTest, MissingFileIsAColdStart) {
  SweepCache cache;
  EXPECT_EQ(serve::load_snapshot(
                cache, temp_path("somrm_snap_does_not_exist.bin")),
            0u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(SnapshotTest, EmptyCacheRoundTrips) {
  SweepCache cache;
  const std::string path = temp_path("somrm_snap_empty.bin");
  EXPECT_EQ(serve::save_snapshot(cache, path), 0u);
  SweepCache reloaded;
  EXPECT_EQ(serve::load_snapshot(reloaded, path), 0u);
  std::remove(path.c_str());
}

class SnapshotDefectTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto cache = std::make_shared<SweepCache>();
    const auto session = make_session(10, cache);
    session->query(SessionQuery{});
    // Each case runs as its own ctest process; a shared file name would let
    // a parallel sibling's SetUp/TearDown clobber this one's patched bytes.
    path_ = temp_path(
        std::string("somrm_snap_defect_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".bin");
    serve::save_snapshot(*cache, path_);
    std::ifstream in(path_, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    ASSERT_GT(bytes_.size(), 24u);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void rewrite(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  void expect_load_fails_with(const std::string& needle) {
    SweepCache cache;
    try {
      serve::load_snapshot(cache, path_);
      FAIL() << "defective snapshot accepted";
    } catch (const SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(cache.stats().entries, 0u);
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(SnapshotDefectTest, RejectsBadMagic) {
  std::string bad = bytes_;
  bad[0] = 'X';
  rewrite(bad);
  expect_load_fails_with("bad magic");
}

TEST_F(SnapshotDefectTest, RejectsFormatVersionMismatch) {
  // The version word sits right after the 8-byte magic. Bumping it must be
  // reported as a version mismatch (checked BEFORE the checksum, so a
  // future-format file gets the actionable error, not "corrupted").
  std::string bad = bytes_;
  bad[8] = static_cast<char>(serve::kSnapshotFormatVersion + 1);
  rewrite(bad);
  expect_load_fails_with("format version mismatch");
}

TEST_F(SnapshotDefectTest, RejectsEndiannessMismatch) {
  std::string bad = bytes_;
  std::swap(bad[12], bad[15]);  // byte-swap the 0x01020304 probe word
  std::swap(bad[13], bad[14]);
  rewrite(bad);
  expect_load_fails_with("endianness mismatch");
}

TEST_F(SnapshotDefectTest, RejectsCorruptedPayload) {
  std::string bad = bytes_;
  bad[bytes_.size() / 2] ^= 0x40;  // flip one payload bit
  rewrite(bad);
  expect_load_fails_with("checksum mismatch");
}

TEST_F(SnapshotDefectTest, RejectsTruncation) {
  rewrite(bytes_.substr(0, bytes_.size() - 9));
  expect_load_fails_with("snapshot:");
}

TEST_F(SnapshotDefectTest, RejectsHeaderOnlyFile) {
  rewrite(bytes_.substr(0, 16));
  expect_load_fails_with("truncated");
}

TEST(SnapshotTest, ResidentEntriesWinOverSnapshot) {
  const auto cache = std::make_shared<SweepCache>();
  const auto session = make_session(12, cache);
  populate(*session);
  const std::string path = temp_path("somrm_snap_resident.bin");
  serve::save_snapshot(*cache, path);

  // A cache that already holds one of the keys: the load must keep the
  // resident entry and only insert the two missing ones.
  const auto cache2 = std::make_shared<SweepCache>();
  const auto session2 = make_session(12, cache2);
  session2->query(SessionQuery{});
  const auto resident = cache2->entries_snapshot();
  ASSERT_EQ(resident.size(), 1u);
  EXPECT_EQ(serve::load_snapshot(*cache2, path), 2u);
  std::remove(path.c_str());
  EXPECT_EQ(cache2->stats().entries, 3u);
  for (const auto& [key, value] : cache2->entries_snapshot()) {
    if (key == resident[0].first) {
      EXPECT_EQ(value, resident[0].second);
    }
  }
}

TEST(SnapshotTest, ReloadRespectsByteBudgetKeepingMruTail) {
  const auto cache = std::make_shared<SweepCache>();
  const auto session = make_session(12, cache);
  populate(*session);
  const auto saved = cache->entries_snapshot();  // MRU first
  ASSERT_EQ(saved.size(), 3u);
  const std::string path = temp_path("somrm_snap_budget.bin");
  serve::save_snapshot(*cache, path);

  // Destination budget of one entry: only the snapshot's most recently
  // used sweep survives the reload.
  SweepCache small(saved[0].second->byte_size());
  serve::load_snapshot(small, path);
  std::remove(path.c_str());
  const auto kept = small.entries_snapshot();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].first, saved[0].first);
}

TEST(SnapshotTest, EngineLifecycleSavesAndWarmStarts) {
  const std::string path = temp_path("somrm_snap_engine.bin");
  std::remove(path.c_str());
  SessionQuery q;
  q.terminal_weights = make_weights(12, 1);
  MomentResult original;
  {
    ServeEngineOptions opts;
    opts.num_workers = 0;
    opts.snapshot_path = path;  // missing file: cold start, not an error
    ServeEngine engine(make_session(12, std::make_shared<SweepCache>()), opts);
    auto fut = engine.submit(q);
    ASSERT_TRUE(engine.drain_one());
    original = fut.get().result;
    EXPECT_EQ(engine.save_snapshot(), 1u);
  }
  {
    const auto cache = std::make_shared<SweepCache>();
    ServeEngineOptions opts;
    opts.num_workers = 0;
    opts.snapshot_path = path;
    ServeEngine engine(make_session(12, cache), opts);
    EXPECT_EQ(cache->stats().entries, 1u);  // warmed in the constructor
    auto fut = engine.submit(q);
    ASSERT_TRUE(engine.drain_one());
    expect_results_equal(fut.get().result, original);
    EXPECT_EQ(cache->stats().misses, 0u);
    EXPECT_EQ(cache->stats().hits, 1u);
  }
  std::remove(path.c_str());

  // No snapshot_path configured -> save_snapshot is a logic error.
  ServeEngineOptions bare;
  bare.num_workers = 0;
  ServeEngine engine(make_session(12, std::make_shared<SweepCache>()), bare);
  EXPECT_THROW(engine.save_snapshot(), std::logic_error);
}

TEST(SnapshotTest, CorruptSnapshotRefusesEngineStart) {
  const std::string path = temp_path("somrm_snap_corrupt_start.bin");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "SOMRMSWP garbage that is certainly not a valid snapshot";
  }
  ServeEngineOptions opts;
  opts.num_workers = 0;
  opts.snapshot_path = path;
  EXPECT_THROW(
      ServeEngine(make_session(12, std::make_shared<SweepCache>()), opts),
      SnapshotError);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Observability bugfixes: over-budget flag, gauge resampling
// ---------------------------------------------------------------------------

TEST(SweepCacheOverBudgetTest, FlagSurfacesThroughStatsResultAndReport) {
  const auto cache = std::make_shared<SweepCache>(/*byte_budget=*/1);
  const auto session = make_session(12, cache);
  // One sweep larger than the whole budget: retained anyway (the MRU entry
  // is never evicted), which used to leave the cache silently over budget.
  const MomentResult r = session->query(SessionQuery{});
  const auto stats = cache->stats();
  EXPECT_GT(stats.bytes, stats.byte_budget);
  EXPECT_TRUE(stats.over_budget);
  EXPECT_TRUE(r.stats.cache_over_budget);
  EXPECT_NE(obs::report(r.stats).find("over budget"), std::string::npos);

  // Plenty of budget: the flag stays down and the report line is clean.
  const auto roomy_cache = std::make_shared<SweepCache>();
  const auto roomy = make_session(12, roomy_cache);
  const MomentResult r2 = roomy->query(SessionQuery{});
  EXPECT_FALSE(roomy_cache->stats().over_budget);
  EXPECT_FALSE(r2.stats.cache_over_budget);
  EXPECT_EQ(obs::report(r2.stats).find("over budget"), std::string::npos);
}

TEST(GaugeResampleTest, EvictionResamplesCacheBytesAndPeakRss) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  const auto cache = std::make_shared<SweepCache>();
  const auto session = make_session(12, cache);
  session->query(SessionQuery{});
  const std::size_t one_entry = cache->stats().bytes;
  ASSERT_GT(one_entry, 0u);

  // Poison both gauges, then trigger an eviction: evict_locked must
  // resample them (they used to keep whatever the last query set, so a
  // budget-shrink eviction left session.cache.bytes showing freed memory).
  obs::gauge("session.cache.bytes").set(-1);
  obs::gauge("mem.peak_rss_bytes").set(-1);
  cache->set_byte_budget(one_entry);
  SessionQuery qw;
  qw.terminal_weights = make_weights(12, 1);
  session->query(qw);
  ASSERT_GT(cache->stats().evictions, 0u);
  EXPECT_EQ(obs::gauge("session.cache.bytes").value(),
            static_cast<std::int64_t>(cache->stats().bytes));
  // Peak RSS can grow between the resample and this read (the sampler is a
  // live /proc read), so assert the poison was replaced by a real sample:
  // positive, and no larger than the monotone current peak.
  const std::int64_t rss = obs::gauge("mem.peak_rss_bytes").value();
  EXPECT_GT(rss, 0);
  EXPECT_LE(rss, obs::peak_rss_bytes());
}

TEST(GaugeResampleTest, EngineWorkerTickResamplesGauges) {
  if (!obs::kEnabled) GTEST_SKIP() << "observability compiled out";
  const auto cache = std::make_shared<SweepCache>();
  const auto session = make_session(12, cache);
  ServeEngineOptions opts;
  opts.num_workers = 0;
  ServeEngine engine(session, opts);
  auto fut = engine.submit(SessionQuery{});
  ASSERT_TRUE(engine.drain_one());
  fut.get();

  // Poison the gauges after the batch, then run a pure-hit batch: even
  // with no sweep and no eviction, the worker tick must refresh both (the
  // stale-gauge fix — a long hit-only serving run used to export the
  // values from its last miss).
  obs::gauge("session.cache.bytes").set(-1);
  obs::gauge("mem.peak_rss_bytes").set(-1);
  auto fut2 = engine.submit(SessionQuery{});
  ASSERT_TRUE(engine.drain_one());
  fut2.get();
  EXPECT_EQ(fut2.valid(), false);
  EXPECT_EQ(obs::gauge("session.cache.bytes").value(),
            static_cast<std::int64_t>(cache->stats().bytes));
  // Same bound-not-equality check as above: peak RSS may move under the
  // test's feet, but a resampled gauge is positive and never exceeds it.
  const std::int64_t rss = obs::gauge("mem.peak_rss_bytes").value();
  EXPECT_GT(rss, 0);
  EXPECT_LE(rss, obs::peak_rss_bytes());
}

}  // namespace
}  // namespace somrm
