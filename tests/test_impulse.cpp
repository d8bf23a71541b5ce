// Tests for the impulse-reward extension: model validation, the impulse
// randomization solver against compound-Poisson closed forms, agreement
// with the plain solver at zero impulses, and Monte Carlo cross-checks.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/impulse_randomization.hpp"
#include "core/moment_utils.hpp"
#include "core/ode_solver.hpp"
#include "core/randomization.hpp"
#include "linalg/parallel.hpp"
#include "linalg/simd.hpp"
#include "prob/normal.hpp"
#include "prob/poisson.hpp"
#include "sim/impulse_simulator.hpp"

namespace somrm::core {
namespace {

using linalg::CsrMatrix;
using linalg::Triplet;
using linalg::Vec;

/// Symmetric 2-state chain with rate lambda: its jump process is a plain
/// Poisson process of rate lambda, so a uniform impulse makes B(t) compound
/// Poisson — closed-form moments via cumulants kappa_j = lambda t E[X^j].
SecondOrderMrm symmetric_chain(double lambda, Vec drifts, Vec variances) {
  auto gen = ctmc::Generator::from_rates(
      2, std::vector<Triplet>{{0, 1, lambda}, {1, 0, lambda}});
  return SecondOrderMrm(std::move(gen), std::move(drifts),
                        std::move(variances), Vec{1.0, 0.0});
}

std::vector<double> compound_poisson_moments(double rate_t, double jump_mean,
                                             double jump_var,
                                             std::size_t order) {
  // kappa_j = lambda t * E[X^j] for compound Poisson with jumps X.
  const auto jump_moments =
      prob::normal_raw_moments(jump_mean, jump_var, order);
  std::vector<double> kappa(order);
  for (std::size_t j = 1; j <= order; ++j)
    kappa[j - 1] = rate_t * jump_moments[j];
  return moments_from_cumulants(kappa);
}

TEST(ImpulseModelTest, ValidationRejectsBadMatrices) {
  auto base = symmetric_chain(1.0, Vec{0.0, 0.0}, Vec{0.0, 0.0});
  // Impulse on a non-existent transition (diagonal).
  CsrMatrix diag = CsrMatrix::diagonal(Vec{1.0, 1.0});
  EXPECT_THROW(
      SecondOrderImpulseMrm(base, diag, CsrMatrix::from_triplets(2, 2, {})),
      std::invalid_argument);
  // Negative impulse variance.
  const std::vector<Triplet> neg{{0, 1, -0.5}};
  EXPECT_THROW(SecondOrderImpulseMrm(
                   base, CsrMatrix::from_triplets(2, 2, {}),
                   CsrMatrix::from_triplets(2, 2, neg)),
               std::invalid_argument);
  // Wrong shape.
  EXPECT_THROW(SecondOrderImpulseMrm(base,
                                     CsrMatrix::from_triplets(3, 3, {}),
                                     CsrMatrix::from_triplets(2, 2, {})),
               std::invalid_argument);
}

// The impulse solver routes through the shared validate_solver_inputs, so
// bad times/options fail fast with the same caller-tagged messages as the
// plain solver.
TEST(ImpulseValidationTest, RejectsBadSolverInputs) {
  auto base = symmetric_chain(1.0, Vec{0.0, 0.0}, Vec{0.0, 0.0});
  const SecondOrderImpulseMrm model(base, CsrMatrix::from_triplets(2, 2, {}),
                                    CsrMatrix::from_triplets(2, 2, {}));
  const ImpulseMomentSolver solver(model);
  EXPECT_THROW(solver.solve_multi({}), std::invalid_argument);
  EXPECT_THROW(solver.solve(-0.5), std::invalid_argument);
  EXPECT_THROW(solver.solve(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  MomentSolverOptions bad;
  bad.epsilon = -1.0;
  EXPECT_THROW(solver.solve(1.0, bad), std::invalid_argument);
  bad.epsilon = 1e-9;
  bad.center = std::numeric_limits<double>::infinity();
  EXPECT_THROW(solver.solve(1.0, bad), std::invalid_argument);
}

TEST(ImpulseModelTest, UniformImpulseBuilderCoversAllTransitions) {
  auto base = symmetric_chain(2.0, Vec{1.0, 1.0}, Vec{0.0, 0.0});
  const auto model =
      SecondOrderImpulseMrm::uniform_impulse(base, 0.7, 0.1);
  EXPECT_DOUBLE_EQ(model.impulse_mean().at(0, 1), 0.7);
  EXPECT_DOUBLE_EQ(model.impulse_mean().at(1, 0), 0.7);
  EXPECT_DOUBLE_EQ(model.impulse_var().at(0, 1), 0.1);
  EXPECT_FALSE(model.has_no_impulses());
  EXPECT_DOUBLE_EQ(model.max_abs_impulse_mean(), 0.7);
  EXPECT_DOUBLE_EQ(model.max_impulse_variance(), 0.1);
}

TEST(ImpulseSolverTest, ZeroImpulsesMatchPlainSolver) {
  auto gen = ctmc::Generator::from_rates(
      3, std::vector<Triplet>{{0, 1, 2.0}, {1, 2, 1.0}, {2, 0, 3.0},
                              {1, 0, 0.5}});
  const SecondOrderMrm base(std::move(gen), Vec{5.0, -1.0, 2.0},
                            Vec{0.1, 0.2, 0.3}, Vec{1.0, 0.0, 0.0});
  const SecondOrderImpulseMrm model =
      SecondOrderImpulseMrm::uniform_impulse(base, 0.0, 0.0);
  EXPECT_TRUE(model.has_no_impulses());

  MomentSolverOptions opts;
  opts.max_moment = 4;
  opts.epsilon = 1e-12;
  const auto plain = RandomizationMomentSolver(base).solve(0.8, opts);
  const auto impulse = ImpulseMomentSolver(model).solve(0.8, opts);
  for (std::size_t j = 0; j <= 4; ++j)
    EXPECT_NEAR(impulse.weighted[j], plain.weighted[j],
                1e-9 * (1.0 + std::abs(plain.weighted[j])))
        << "moment " << j;
}

TEST(ImpulseSolverTest, DeterministicImpulseCompoundPoisson) {
  // Zero rate reward + uniform deterministic impulse c on a symmetric
  // chain: B(t) = c * N(t), N(t) ~ Poisson(lambda t).
  const double lambda = 3.0, c = 0.8, t = 1.2;
  const auto model = SecondOrderImpulseMrm::uniform_impulse(
      symmetric_chain(lambda, Vec{0.0, 0.0}, Vec{0.0, 0.0}), c, 0.0);
  MomentSolverOptions opts;
  opts.max_moment = 5;
  opts.epsilon = 1e-12;
  const auto res = ImpulseMomentSolver(model).solve(t, opts);
  const auto exact = compound_poisson_moments(lambda * t, c, 0.0, 5);
  for (std::size_t j = 0; j <= 5; ++j)
    EXPECT_NEAR(res.weighted[j], exact[j],
                1e-8 * (1.0 + std::abs(exact[j])))
        << "moment " << j;
}

TEST(ImpulseSolverTest, NormalImpulseCompoundPoisson) {
  // Random N(m, w) impulses on the Poisson jump chain.
  const double lambda = 2.0, m = -0.4, w = 0.3, t = 0.9;
  const auto model = SecondOrderImpulseMrm::uniform_impulse(
      symmetric_chain(lambda, Vec{0.0, 0.0}, Vec{0.0, 0.0}), m, w);
  MomentSolverOptions opts;
  opts.max_moment = 4;
  opts.epsilon = 1e-12;
  const auto res = ImpulseMomentSolver(model).solve(t, opts);
  const auto exact = compound_poisson_moments(lambda * t, m, w, 4);
  for (std::size_t j = 0; j <= 4; ++j)
    EXPECT_NEAR(res.weighted[j], exact[j],
                1e-8 * (1.0 + std::abs(exact[j])))
        << "moment " << j;
}

TEST(ImpulseSolverTest, DriftPlusImpulseConvolution) {
  // Uniform drift r and variance s2 plus compound-Poisson impulses on the
  // symmetric chain: B(t) = N(rt, s2 t) + CP(lambda t), independent =>
  // cumulants add.
  const double lambda = 2.5, c = 0.6, r = 1.3, s2 = 0.4, t = 0.7;
  const auto model = SecondOrderImpulseMrm::uniform_impulse(
      symmetric_chain(lambda, Vec{r, r}, Vec{s2, s2}), c, 0.0);
  MomentSolverOptions opts;
  opts.max_moment = 4;
  opts.epsilon = 1e-12;
  const auto res = ImpulseMomentSolver(model).solve(t, opts);

  std::vector<double> kappa(4, 0.0);
  kappa[0] = r * t + lambda * t * c;                    // mean
  kappa[1] = s2 * t + lambda * t * c * c;               // variance
  kappa[2] = lambda * t * c * c * c;                    // 3rd cumulant
  kappa[3] = lambda * t * c * c * c * c;                // 4th cumulant
  const auto exact = moments_from_cumulants(kappa);
  for (std::size_t j = 0; j <= 4; ++j)
    EXPECT_NEAR(res.weighted[j], exact[j],
                1e-8 * (1.0 + std::abs(exact[j])))
        << "moment " << j;
}

TEST(ImpulseSolverTest, NegativeImpulseMeansSupported) {
  const double lambda = 4.0, c = -1.1, t = 0.6;
  const auto model = SecondOrderImpulseMrm::uniform_impulse(
      symmetric_chain(lambda, Vec{0.0, 0.0}, Vec{0.0, 0.0}), c, 0.0);
  MomentSolverOptions opts;
  opts.max_moment = 3;
  opts.epsilon = 1e-12;
  const auto res = ImpulseMomentSolver(model).solve(t, opts);
  const auto exact = compound_poisson_moments(lambda * t, c, 0.0, 3);
  for (std::size_t j = 1; j <= 3; ++j)
    EXPECT_NEAR(res.weighted[j], exact[j],
                1e-8 * (1.0 + std::abs(exact[j])));
  EXPECT_LT(res.weighted[1], 0.0);
}

TEST(ImpulseSolverTest, AsymmetricImpulsesAgainstSimulation) {
  // Structurally rich case with different impulses per transition: validate
  // against the Monte Carlo impulse simulator.
  auto gen = ctmc::Generator::from_rates(
      3, std::vector<Triplet>{{0, 1, 3.0}, {1, 2, 2.0}, {2, 0, 1.0},
                              {1, 0, 1.0}});
  const SecondOrderMrm base(gen, Vec{2.0, 0.5, -1.0}, Vec{0.2, 0.5, 0.1},
                            Vec{1.0, 0.0, 0.0});
  const std::vector<Triplet> means{{0, 1, 0.5}, {1, 2, -0.3}, {2, 0, 1.0}};
  const std::vector<Triplet> vars{{0, 1, 0.1}, {2, 0, 0.4}};
  const SecondOrderImpulseMrm model(
      base, linalg::CsrMatrix::from_triplets(3, 3, means),
      linalg::CsrMatrix::from_triplets(3, 3, vars));

  MomentSolverOptions opts;
  opts.epsilon = 1e-11;
  const auto res = ImpulseMomentSolver(model).solve(1.0, opts);

  sim::SimulationOptions sopts;
  sopts.num_replications = 200000;
  sopts.seed = 404;
  const auto est = sim::ImpulseSimulator(model).estimate_moments(1.0, sopts);
  for (std::size_t j = 1; j <= 3; ++j)
    EXPECT_NEAR(est.moments[j], res.weighted[j],
                5.0 * est.standard_errors[j] + 1e-9)
        << "moment " << j;
}

TEST(ImpulseSolverTest, MultiTimeMatchesSingleTime) {
  const auto model = SecondOrderImpulseMrm::uniform_impulse(
      symmetric_chain(2.0, Vec{1.0, -0.5}, Vec{0.3, 0.6}), 0.4, 0.05);
  const ImpulseMomentSolver solver(model);
  MomentSolverOptions opts;
  opts.epsilon = 1e-11;
  const std::vector<double> times{0.2, 0.8, 1.5};
  const auto multi = solver.solve_multi(times, opts);
  for (std::size_t i = 0; i < times.size(); ++i) {
    const auto single = solver.solve(times[i], opts);
    for (std::size_t j = 0; j <= 3; ++j)
      EXPECT_NEAR(multi[i].weighted[j], single.weighted[j],
                  1e-10 * (1.0 + std::abs(single.weighted[j])));
  }
}

TEST(ImpulseSolverTest, EpsilonHonored) {
  const auto model = SecondOrderImpulseMrm::uniform_impulse(
      symmetric_chain(3.0, Vec{1.0, 1.0}, Vec{0.5, 0.5}), 0.7, 0.2);
  const ImpulseMomentSolver solver(model);
  MomentSolverOptions loose, tight;
  loose.epsilon = 1e-5;
  tight.epsilon = 1e-13;
  const auto rl = solver.solve(1.0, loose);
  const auto rt = solver.solve(1.0, tight);
  for (std::size_t j = 0; j <= 3; ++j)
    EXPECT_NEAR(rl.weighted[j], rt.weighted[j],
                1e-5 * (1.0 + std::abs(rt.weighted[j])));
}

TEST(ImpulseSolverTest, CenterOptionOffsetsRateRewardOnly) {
  // center = r removes the drift contribution; impulses remain.
  const double lambda = 2.0, c = 0.5, r = 3.0, t = 0.8;
  const auto model = SecondOrderImpulseMrm::uniform_impulse(
      symmetric_chain(lambda, Vec{r, r}, Vec{0.0, 0.0}), c, 0.0);
  MomentSolverOptions opts;
  opts.max_moment = 3;
  opts.epsilon = 1e-12;
  opts.center = r;
  const auto res = ImpulseMomentSolver(model).solve(t, opts);
  const auto exact = compound_poisson_moments(lambda * t, c, 0.0, 3);
  for (std::size_t j = 0; j <= 3; ++j)
    EXPECT_NEAR(res.weighted[j], exact[j],
                1e-8 * (1.0 + std::abs(exact[j])));
}

TEST(ImpulseSolverTest, OdeBaselineAgrees) {
  // Third deterministic route: RK4 on the impulse-extended Theorem-2
  // system must match the impulse randomization solver.
  auto gen = ctmc::Generator::from_rates(
      3, std::vector<Triplet>{{0, 1, 3.0}, {1, 2, 2.0}, {2, 0, 1.0},
                              {1, 0, 1.0}});
  const SecondOrderMrm base(gen, Vec{2.0, 0.5, -1.0}, Vec{0.2, 0.5, 0.1},
                            Vec{1.0, 0.0, 0.0});
  const std::vector<Triplet> means{{0, 1, 0.5}, {1, 2, -0.3}, {2, 0, 1.0}};
  const std::vector<Triplet> vars{{0, 1, 0.1}, {2, 0, 0.4}};
  const SecondOrderImpulseMrm model(
      base, linalg::CsrMatrix::from_triplets(3, 3, means),
      linalg::CsrMatrix::from_triplets(3, 3, vars));

  MomentSolverOptions ropts;
  ropts.epsilon = 1e-12;
  const auto rand_res = ImpulseMomentSolver(model).solve(0.9, ropts);

  OdeSolverOptions oopts;
  oopts.num_steps = 300;
  const auto ode_res = solve_moments_ode(model, 0.9, oopts);
  for (std::size_t j = 0; j <= 3; ++j)
    EXPECT_NEAR(ode_res.weighted[j], rand_res.weighted[j],
                1e-7 * (1.0 + std::abs(rand_res.weighted[j])))
        << "moment " << j;
}

// ---------------------------------------------------------------------------
// Property sweep over jump rate, impulse size and horizon: the compound-
// Poisson closed form must hold across the grid, and the mean must be
// linear in the impulse mean.
// ---------------------------------------------------------------------------

class ImpulsePropertyTest
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(ImpulsePropertyTest, CompoundPoissonClosedFormHolds) {
  const auto [lambda, c, t] = GetParam();
  const auto model = SecondOrderImpulseMrm::uniform_impulse(
      symmetric_chain(lambda, Vec{0.0, 0.0}, Vec{0.0, 0.0}), c, 0.0);
  MomentSolverOptions opts;
  opts.max_moment = 4;
  opts.epsilon = 1e-12;
  const auto res = ImpulseMomentSolver(model).solve(t, opts);
  const auto exact = compound_poisson_moments(lambda * t, c, 0.0, 4);
  for (std::size_t j = 0; j <= 4; ++j)
    EXPECT_NEAR(res.weighted[j], exact[j],
                1e-7 * (1.0 + std::abs(exact[j])))
        << "lambda " << lambda << " c " << c << " t " << t << " moment " << j;
}

TEST_P(ImpulsePropertyTest, MeanLinearInImpulseMean) {
  const auto [lambda, c, t] = GetParam();
  MomentSolverOptions opts;
  opts.max_moment = 1;
  opts.epsilon = 1e-12;
  const auto base = symmetric_chain(lambda, Vec{1.0, 2.0}, Vec{0.1, 0.2});
  const auto m1 = ImpulseMomentSolver(SecondOrderImpulseMrm::uniform_impulse(
                                          base, c, 0.0))
                      .solve(t, opts)
                      .weighted[1];
  const auto m2 = ImpulseMomentSolver(SecondOrderImpulseMrm::uniform_impulse(
                                          base, 2.0 * c, 0.0))
                      .solve(t, opts)
                      .weighted[1];
  const auto m0 = ImpulseMomentSolver(SecondOrderImpulseMrm::uniform_impulse(
                                          base, 0.0, 0.0))
                      .solve(t, opts)
                      .weighted[1];
  // E[B] = E[B_rate] + E[#jumps] * c: linear in c.
  EXPECT_NEAR(m2 - m0, 2.0 * (m1 - m0), 1e-8 * (1.0 + std::abs(m2)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ImpulsePropertyTest,
    ::testing::Combine(::testing::Values(0.5, 2.0, 8.0),   // lambda
                       ::testing::Values(-0.7, 0.3, 1.5),  // impulse mean
                       ::testing::Values(0.2, 1.0)));      // horizon

/// A birth-death chain on @p n states, banded or with its labels scattered
/// by a stride (@p shuffled, which the sweep undoes by RCM); drifts of both
/// signs.
SecondOrderMrm stride_chain(std::size_t n, bool shuffled) {
  std::vector<Triplet> rates;
  const auto label = [n, shuffled](std::size_t i) {
    return shuffled ? (i * 17 + 5) % n : i;
  };
  for (std::size_t i = 0; i + 1 < n; ++i) {
    rates.push_back(
        {label(i), label(i + 1), 1.0 + 0.1 * static_cast<double>(i % 7)});
    rates.push_back(
        {label(i + 1), label(i), 0.8 + 0.05 * static_cast<double>(i % 5)});
  }
  Vec drifts(n), vars(n), initial(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    drifts[i] = (i % 4 == 0 ? -0.5 : 1.0) + 0.01 * static_cast<double>(i % 9);
    vars[i] = 0.1 + 0.02 * static_cast<double>(i % 6);
  }
  initial[label(0)] = 1.0;
  return SecondOrderMrm(ctmc::Generator::from_rates(n, rates),
                        std::move(drifts), std::move(vars),
                        std::move(initial));
}

bool same_bits(const std::vector<MomentResult>& a,
               const std::vector<MomentResult>& b) {
  const auto eq = [](const Vec& x, const Vec& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  if (a.size() != b.size()) return false;
  for (std::size_t t = 0; t < a.size(); ++t) {
    if (!eq(a[t].weighted, b[t].weighted) ||
        a[t].per_state.size() != b[t].per_state.size() ||
        a[t].truncation_point != b[t].truncation_point ||
        std::memcmp(&a[t].error_bound, &b[t].error_bound, sizeof(double)) != 0)
      return false;
    for (std::size_t j = 0; j < a[t].per_state.size(); ++j)
      if (!eq(a[t].per_state[j], b[t].per_state[j])) return false;
  }
  return true;
}

TEST(ImpulseSolverTest, BitIdenticalAcrossSimdLevelsThreadsAndReorders) {
  // The impulse sweep runs on the shared core: every SIMD level and thread
  // count must reproduce the scalar one-thread run bit for bit, on a banded
  // chain (swept in its own order) and a relabelled one (swept in RCM order,
  // with Q' and both impulse matrices permuted). 2,501 states split into
  // uneven parallel ranges at 2 and 4 threads; n = 3 and n = 9 cover narrow
  // and wide panels.
  const std::vector<double> times{0.2, 0.7};
  for (const bool shuffled : {false, true}) {
    const ImpulseMomentSolver solver(SecondOrderImpulseMrm::uniform_impulse(
        stride_chain(2501, shuffled), -0.3, 0.2));
    for (const std::size_t n : {3u, 9u}) {
      MomentSolverOptions opts;
      opts.max_moment = n;
      linalg::simd::set_level(linalg::simd::Level::kScalar);
      linalg::set_num_threads(1);
      const auto reference = solver.solve_multi(times, opts);
      const obs::SolverStats& stats = reference.front().stats;
      EXPECT_EQ(stats.reorder, shuffled ? "rcm" : "none");
      EXPECT_EQ(stats.bandwidth_after < stats.bandwidth_before, shuffled);
      // set_level clamps, so kAvx2 runs the scalar kernel on non-AVX2 hosts.
      for (const linalg::simd::Level level :
           {linalg::simd::Level::kScalar, linalg::simd::Level::kAvx2})
        for (const std::size_t threads : {1u, 2u, 4u}) {
          linalg::simd::set_level(level);
          linalg::set_num_threads(threads);
          const auto got = solver.solve_multi(times, opts);
          EXPECT_TRUE(same_bits(got, reference))
              << "n " << n << " shuffled " << shuffled << " level "
              << linalg::simd::level_name(level) << " threads " << threads;
          EXPECT_EQ(got.front().stats.reorder, stats.reorder);
        }
    }
  }
  linalg::simd::set_level(linalg::simd::highest_supported());
  linalg::set_num_threads(0);
}

TEST(ImpulseSolverTest, ErrorBoundIsTheImpulseTailAtG) {
  // The reported error_bound is the generalized Theorem-4 tail
  // (4 d qt)^n * sum_{k >= G+1-n} Pois(k; qt) at the truncation point G,
  // positive and within epsilon.
  const auto model = SecondOrderImpulseMrm::uniform_impulse(
      symmetric_chain(3.0, Vec{1.0, 1.0}, Vec{0.5, 0.5}), 0.7, 0.2);
  MomentSolverOptions opts;
  opts.max_moment = 3;
  opts.epsilon = 1e-9;
  const auto res = ImpulseMomentSolver(model).solve(1.0, opts);
  const double qt = res.q * 1.0;
  const double n = static_cast<double>(opts.max_moment);
  const double formula = std::exp(
      n * (std::log(4.0) + std::log(res.d) + std::log(qt)) +
      prob::log_poisson_tail(qt, res.truncation_point + 1 - opts.max_moment));
  EXPECT_GT(res.error_bound, 0.0);
  EXPECT_LE(res.error_bound, opts.epsilon);
  EXPECT_EQ(res.error_bound, formula);
}

TEST(ImpulseSimulatorTest, ReproducibleAndValidated) {
  const auto model = SecondOrderImpulseMrm::uniform_impulse(
      symmetric_chain(2.0, Vec{1.0, 2.0}, Vec{0.1, 0.2}), 0.3, 0.1);
  const sim::ImpulseSimulator simulator(model);
  const auto a = simulator.sample_rewards(1.0, 50, 9);
  const auto b = simulator.sample_rewards(1.0, 50, 9);
  EXPECT_EQ(a, b);
  somrm::prob::Rng rng(1);
  EXPECT_THROW(simulator.sample_reward(-1.0, rng), std::invalid_argument);
}

TEST(ImpulseSolverTest, StatsSimdNamesTheLevelThatRan) {
  // The impulse sweep's SpMMs dispatch on the active level, and the q = 0
  // closed form runs no kernel at all.
  const auto model = SecondOrderImpulseMrm::uniform_impulse(
      symmetric_chain(2.0, Vec{1.0, 0.5}, Vec{0.2, 0.1}), 0.3, 0.05);
  MomentSolverOptions opts;
  opts.max_moment = 3;
  for (const linalg::simd::Level level :
       {linalg::simd::Level::kScalar, linalg::simd::highest_supported()}) {
    linalg::simd::set_level(level);
    EXPECT_EQ(ImpulseMomentSolver(model).solve(0.5, opts).stats.simd,
              linalg::simd::level_name(level));
  }
  linalg::simd::set_level(linalg::simd::highest_supported());
  const SecondOrderMrm frozen(ctmc::Generator::from_rates(2, {}),
                              Vec{1.0, -0.5}, Vec{0.2, 0.1}, Vec{0.5, 0.5});
  EXPECT_EQ(ImpulseMomentSolver(SecondOrderImpulseMrm::uniform_impulse(
                                    frozen, 0.3, 0.05))
                .solve(0.5, opts)
                .stats.simd,
            "none");
}

}  // namespace
}  // namespace somrm::core
