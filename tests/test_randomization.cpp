// Tests for the randomization moment solver (Theorems 3-4) — the paper's
// core algorithm. Anchors:
//  * models whose reward is exactly Brownian (all states share r, sigma^2):
//    every moment has the N(rt, sigma^2 t) closed form regardless of the
//    chain, which exercises the full recursion including S';
//  * the degenerate no-transition chain (closed-form path);
//  * numerical integration of E[B(t)] = int_0^t p(u) . r du via the
//    transient solver;
//  * internal consistency properties (variance >= 0, mean independent of
//    sigma^2, multi-time vs single-time, epsilon honored, shift transform).

#include "core/randomization.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "core/impulse_randomization.hpp"
#include "core/moment_utils.hpp"
#include "ctmc/transient.hpp"
#include "linalg/parallel.hpp"
#include "linalg/simd.hpp"
#include "models/onoff.hpp"
#include "prob/normal.hpp"
#include "prob/poisson.hpp"

namespace somrm::core {
namespace {

using linalg::Triplet;
using linalg::Vec;

ctmc::Generator ring_generator(std::size_t n, double rate) {
  std::vector<Triplet> rates;
  for (std::size_t i = 0; i < n; ++i)
    rates.push_back({i, (i + 1) % n, rate * (1.0 + 0.3 * static_cast<double>(i))});
  return ctmc::Generator::from_rates(n, rates);
}

SecondOrderMrm uniform_reward_model(std::size_t n, double r, double s2) {
  return SecondOrderMrm(ring_generator(n, 2.0), Vec(n, r), Vec(n, s2),
                        linalg::unit_vec(n, 0));
}

SecondOrderMrm varied_model(std::size_t n, double sigma2_scale);  // below

TEST(RandomizationTest, UniformRewardsMatchBrownianClosedForm) {
  // All states share (r, sigma^2): B(t) ~ N(r t, sigma^2 t) exactly.
  const double r = 1.7, s2 = 0.8, t = 0.9;
  const RandomizationMomentSolver solver(uniform_reward_model(4, r, s2));
  MomentSolverOptions opts;
  opts.max_moment = 5;
  opts.epsilon = 1e-12;
  const auto res = solver.solve(t, opts);
  const auto exact = prob::brownian_raw_moments(r, s2, t, 5);
  for (std::size_t j = 0; j <= 5; ++j)
    EXPECT_NEAR(res.weighted[j], exact[j],
                1e-9 * std::abs(exact[j]) + 1e-9)
        << "moment " << j;
}

TEST(RandomizationTest, UniformNegativeDriftClosedForm) {
  // Negative drift goes through the shift transform; the closed form must
  // still hold exactly.
  const double r = -2.3, s2 = 1.1, t = 0.6;
  const RandomizationMomentSolver solver(uniform_reward_model(3, r, s2));
  MomentSolverOptions opts;
  opts.max_moment = 4;
  opts.epsilon = 1e-12;
  const auto res = solver.solve(t, opts);
  const auto exact = prob::brownian_raw_moments(r, s2, t, 4);
  for (std::size_t j = 0; j <= 4; ++j)
    EXPECT_NEAR(res.weighted[j], exact[j],
                1e-9 * std::abs(exact[j]) + 1e-9);
}

TEST(RandomizationTest, DegenerateChainUsesClosedForm) {
  auto gen = ctmc::Generator::from_rates(2, std::vector<Triplet>{});
  const SecondOrderMrm m(std::move(gen), Vec{1.0, -3.0}, Vec{0.5, 2.0},
                         Vec{0.25, 0.75});
  const RandomizationMomentSolver solver(m);
  const auto res = solver.solve(2.0);
  const auto m0 = prob::brownian_raw_moments(1.0, 0.5, 2.0, 3);
  const auto m1 = prob::brownian_raw_moments(-3.0, 2.0, 2.0, 3);
  for (std::size_t j = 0; j <= 3; ++j) {
    EXPECT_DOUBLE_EQ(res.per_state[j][0], m0[j]);
    EXPECT_DOUBLE_EQ(res.per_state[j][1], m1[j]);
    EXPECT_NEAR(res.weighted[j], 0.25 * m0[j] + 0.75 * m1[j], 1e-12);
  }
}

TEST(RandomizationTest, MeanMatchesTransientIntegral) {
  // E[B(t) | Z(0)=i] = int_0^t sum_k p_ik(u) r_k du; integrate with Simpson.
  auto gen = ctmc::Generator::from_rates(
      3, std::vector<Triplet>{{0, 1, 2.0}, {1, 2, 1.0}, {2, 0, 3.0},
                              {1, 0, 0.5}});
  const Vec drifts{5.0, -1.0, 2.0};
  const SecondOrderMrm m(gen, drifts, Vec{0.1, 0.2, 0.3}, Vec{1.0, 0.0, 0.0});
  const double t = 1.2;

  const std::size_t intervals = 2000;  // even
  double integral = 0.0;
  for (std::size_t k = 0; k <= intervals; ++k) {
    const double u = t * static_cast<double>(k) / intervals;
    const Vec p = ctmc::transient_distribution(gen, m.initial(), u);
    const double f = linalg::dot(p, drifts);
    const double w = (k == 0 || k == intervals) ? 1.0 : (k % 2 == 1 ? 4.0 : 2.0);
    integral += w * f;
  }
  integral *= t / static_cast<double>(intervals) / 3.0;

  const RandomizationMomentSolver solver(m);
  MomentSolverOptions opts;
  opts.epsilon = 1e-12;
  const auto res = solver.solve(t, opts);
  EXPECT_NEAR(res.weighted[1], integral, 1e-8);
}

TEST(RandomizationTest, ZerothMomentIsOnePerState) {
  const RandomizationMomentSolver solver(uniform_reward_model(5, 2.0, 1.0));
  MomentSolverOptions opts;
  opts.epsilon = 1e-10;
  const auto res = solver.solve(3.0, opts);
  for (double v : res.per_state[0]) EXPECT_NEAR(v, 1.0, 1e-9);
}

TEST(RandomizationTest, TimeZeroGivesDeterministicZeroReward) {
  const RandomizationMomentSolver solver(uniform_reward_model(3, 1.0, 1.0));
  const auto res = solver.solve(0.0);
  EXPECT_DOUBLE_EQ(res.weighted[0], 1.0);
  EXPECT_DOUBLE_EQ(res.weighted[1], 0.0);
  EXPECT_DOUBLE_EQ(res.weighted[2], 0.0);
}

TEST(RandomizationTest, TimeZeroInsideMultiTimeGridIsExact) {
  // t = 0 as the first grid point must come back exactly deterministic
  // (B(0) = 0 with probability 1), not "small": weighted and per-state
  // moments of every order >= 1 are exactly 0.0 and the zeroth is 1.0.
  const RandomizationMomentSolver solver(uniform_reward_model(3, 1.0, 1.0));
  const std::vector<double> times{0.0, 0.5, 2.0};
  MomentSolverOptions opts;
  opts.max_moment = 3;
  const auto multi = solver.solve_multi(times, opts);
  ASSERT_EQ(multi.size(), times.size());
  EXPECT_EQ(multi[0].time, 0.0);
  EXPECT_EQ(multi[0].weighted[0], 1.0);
  for (std::size_t j = 1; j <= opts.max_moment; ++j) {
    EXPECT_EQ(multi[0].weighted[j], 0.0) << "moment " << j;
    for (double v : multi[0].per_state[j]) EXPECT_EQ(v, 0.0);
  }
  // The later grid points are unaffected by the t = 0 entry.
  const auto single = solver.solve(2.0, opts);
  for (std::size_t j = 0; j <= opts.max_moment; ++j)
    EXPECT_EQ(multi[2].weighted[j], single.weighted[j]);
}

TEST(RandomizationTest, MultiTimeMatchesSingleTimeCalls) {
  const RandomizationMomentSolver solver(uniform_reward_model(4, 1.5, 0.7));
  const std::vector<double> times{0.1, 0.4, 1.0, 2.5};
  MomentSolverOptions opts;
  opts.epsilon = 1e-11;
  const auto multi = solver.solve_multi(times, opts);
  ASSERT_EQ(multi.size(), times.size());
  for (std::size_t i = 0; i < times.size(); ++i) {
    const auto single = solver.solve(times[i], opts);
    for (std::size_t j = 0; j <= opts.max_moment; ++j)
      EXPECT_NEAR(multi[i].weighted[j], single.weighted[j],
                  1e-10 * (1.0 + std::abs(single.weighted[j])));
  }
}

TEST(RandomizationTest, EpsilonControlsAccuracy) {
  const RandomizationMomentSolver solver(uniform_reward_model(3, 2.0, 1.5));
  MomentSolverOptions loose, tight;
  loose.epsilon = 1e-4;
  tight.epsilon = 1e-13;
  const auto rl = solver.solve(1.0, loose);
  const auto rt = solver.solve(1.0, tight);
  EXPECT_LT(rl.truncation_point, rt.truncation_point);
  for (std::size_t j = 0; j <= 3; ++j)
    EXPECT_NEAR(rl.weighted[j], rt.weighted[j], 2e-4);
  // Theorem-4 bound at the loose setting must itself be below epsilon.
  EXPECT_LT(rl.error_bound, loose.epsilon);
}

TEST(RandomizationTest, ScalePoliciesAgreeWhenBothValid) {
  // Drift-dominated model: the paper's d is sub-stochastic too, and the
  // expansion value must not depend on d.
  const SecondOrderMrm m(ring_generator(3, 3.0), Vec{5.0, 2.0, 1.0},
                         Vec{0.2, 0.1, 0.05}, linalg::unit_vec(3, 0));
  const RandomizationMomentSolver solver(m);
  MomentSolverOptions safe, paper;
  safe.epsilon = paper.epsilon = 1e-12;
  paper.scale_policy = DriftScalePolicy::kPaper;
  const auto rs = solver.solve(0.8, safe);
  const auto rp = solver.solve(0.8, paper);
  for (std::size_t j = 0; j <= 3; ++j)
    EXPECT_NEAR(rs.weighted[j], rp.weighted[j],
                1e-9 * (1.0 + std::abs(rs.weighted[j])));
}

TEST(RandomizationTest, TruncationPointMonotoneInOrderAndEpsilon) {
  const double qt = 50.0, d = 0.5;
  EXPECT_LE(RandomizationMomentSolver::truncation_point(qt, 1, d, 1e-9),
            RandomizationMomentSolver::truncation_point(qt, 4, d, 1e-9));
  EXPECT_LE(RandomizationMomentSolver::truncation_point(qt, 2, d, 1e-6),
            RandomizationMomentSolver::truncation_point(qt, 2, d, 1e-12));
  EXPECT_EQ(RandomizationMomentSolver::truncation_point(0.0, 2, d, 1e-9), 0u);
  EXPECT_EQ(RandomizationMomentSolver::truncation_point(qt, 2, 0.0, 1e-9),
            0u);
}

TEST(RandomizationTest, CenteredSolveMatchesBrownianCentralMoments) {
  // Uniform rewards, center = drift: moments of B(t) - r t = N(0, s2 t).
  const double r = 1.7, s2 = 0.8, t = 0.9;
  const RandomizationMomentSolver solver(uniform_reward_model(4, r, s2));
  MomentSolverOptions opts;
  opts.max_moment = 6;
  opts.epsilon = 1e-12;
  opts.center = r;
  const auto res = solver.solve(t, opts);
  const auto exact = prob::brownian_raw_moments(0.0, s2, t, 6);
  for (std::size_t j = 0; j <= 6; ++j)
    EXPECT_NEAR(res.weighted[j], exact[j], 1e-9 * (1.0 + std::abs(exact[j])))
        << "moment " << j;
}

TEST(RandomizationTest, CenteredSolveConsistentWithBinomialShift) {
  // For moderate orders the two routes agree: raw moments shifted by
  // -c t must equal the natively centered moments.
  const SecondOrderMrm m = varied_model(5, 1.5);
  const RandomizationMomentSolver solver(m);
  const double t = 0.7, c = 2.1;
  MomentSolverOptions raw_opts, centered_opts;
  raw_opts.max_moment = centered_opts.max_moment = 4;
  raw_opts.epsilon = centered_opts.epsilon = 1e-12;
  centered_opts.center = c;
  const auto raw = solver.solve(t, raw_opts);
  const auto centered = solver.solve(t, centered_opts);
  const auto mapped = shift_raw_moments(raw.weighted, -c * t);
  for (std::size_t j = 0; j <= 4; ++j)
    EXPECT_NEAR(centered.weighted[j], mapped[j],
                1e-8 * (1.0 + std::abs(mapped[j])))
        << "moment " << j;
}

TEST(RandomizationTest, CenteredHighOrderMomentsAvoidCancellation) {
  // High-order central moments via centered solve stay accurate where the
  // binomial route from raw moments loses all precision. Anchor: uniform
  // rewards => central moments are exactly those of N(0, s2 t), even at
  // order 20 with a large drift.
  const double r = 50.0, s2 = 2.0, t = 0.5;
  const RandomizationMomentSolver solver(uniform_reward_model(3, r, s2));
  MomentSolverOptions opts;
  opts.max_moment = 20;
  opts.epsilon = 1e-13;
  opts.center = r;
  const auto res = solver.solve(t, opts);
  const auto exact = prob::brownian_raw_moments(0.0, s2, t, 20);
  // E[B_c^20] = 19!! * (s2 t)^10 ~ 6.5e8 * 1 — must match to ~1e-8 rel.
  EXPECT_NEAR(res.weighted[20], exact[20], 1e-7 * exact[20]);
  EXPECT_NEAR(res.weighted[19], 0.0, 1e-7 * exact[20]);
}

TEST(RandomizationTest, TerminalWeightsOneRecoverPlainSolve) {
  const SecondOrderMrm m = varied_model(4, 1.0);
  const RandomizationMomentSolver solver(m);
  MomentSolverOptions opts;
  opts.epsilon = 1e-12;
  const auto plain = solver.solve(0.9, opts);
  const auto weighted =
      solver.solve_terminal_weighted(0.9, linalg::ones(4), opts);
  for (std::size_t j = 0; j <= 3; ++j)
    for (std::size_t i = 0; i < 4; ++i)
      EXPECT_NEAR(weighted.per_state[j][i], plain.per_state[j][i],
                  1e-9 * (1.0 + std::abs(plain.per_state[j][i])));
}

TEST(RandomizationTest, TerminalIndicatorsSumToPlainSolve) {
  // sum_k E[B^j ; Z(t)=k] = E[B^j].
  const SecondOrderMrm m = varied_model(5, 2.0);
  const RandomizationMomentSolver solver(m);
  MomentSolverOptions opts;
  opts.epsilon = 1e-12;
  const double t = 0.6;
  const auto plain = solver.solve(t, opts);
  linalg::Vec total(4, 0.0);
  for (std::size_t k = 0; k < 5; ++k) {
    const auto part =
        solver.solve_terminal_weighted(t, linalg::unit_vec(5, k), opts);
    for (std::size_t j = 0; j <= 3; ++j) total[j] += part.weighted[j];
  }
  for (std::size_t j = 0; j <= 3; ++j)
    EXPECT_NEAR(total[j], plain.weighted[j],
                1e-8 * (1.0 + std::abs(plain.weighted[j])));
}

TEST(RandomizationTest, TerminalZeroOrderIsTransientProbability) {
  // E[B^0 ; Z(t)=k] = Pr(Z(t)=k).
  const SecondOrderMrm m = varied_model(4, 1.0);
  const RandomizationMomentSolver solver(m);
  MomentSolverOptions opts;
  opts.max_moment = 0;
  opts.epsilon = 1e-13;
  const double t = 0.8;
  const auto p = ctmc::transient_distribution(m.generator(), m.initial(), t);
  for (std::size_t k = 0; k < 4; ++k) {
    const auto part =
        solver.solve_terminal_weighted(t, linalg::unit_vec(4, k), opts);
    EXPECT_NEAR(part.weighted[0], p[k], 1e-10) << "state " << k;
  }
}

TEST(RandomizationTest, TerminalWeightedValidation) {
  const SecondOrderMrm m = varied_model(3, 1.0);
  const RandomizationMomentSolver solver(m);
  EXPECT_THROW(solver.solve_terminal_weighted(1.0, linalg::ones(2)),
               std::invalid_argument);
  EXPECT_THROW(solver.solve_terminal_weighted(1.0, linalg::zeros(3)),
               std::invalid_argument);
  const linalg::Vec neg{1.0, -0.5, 0.0};
  EXPECT_THROW(solver.solve_terminal_weighted(1.0, neg),
               std::invalid_argument);
}

TEST(RandomizationTest, InputValidation) {
  const RandomizationMomentSolver solver(uniform_reward_model(2, 1.0, 1.0));
  EXPECT_THROW(solver.solve(-1.0), std::invalid_argument);
  MomentSolverOptions bad;
  bad.epsilon = 0.0;
  EXPECT_THROW(solver.solve(1.0, bad), std::invalid_argument);
}

// One test per validate_solver_inputs rejection, each checking that the
// message names the caller and the constraint (so a bad option fails fast
// with an actionable error instead of a downstream NaN).
TEST(RandomizationValidationTest, RejectsEmptyTimeList) {
  const RandomizationMomentSolver solver(uniform_reward_model(2, 1.0, 1.0));
  try {
    solver.solve_multi({});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("solve_multi"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("must not be empty"),
              std::string::npos);
  }
}

TEST(RandomizationValidationTest, RejectsNegativeTime) {
  const RandomizationMomentSolver solver(uniform_reward_model(2, 1.0, 1.0));
  const double times[] = {0.5, -0.25};
  try {
    solver.solve_multi(times);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(">= 0"), std::string::npos);
  }
}

TEST(RandomizationValidationTest, RejectsNonFiniteTime) {
  const RandomizationMomentSolver solver(uniform_reward_model(2, 1.0, 1.0));
  EXPECT_THROW(solver.solve(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(solver.solve(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(RandomizationValidationTest, RejectsDuplicateTimePoints) {
  const RandomizationMomentSolver solver(uniform_reward_model(2, 1.0, 1.0));
  const double times[] = {0.5, 0.5};
  try {
    solver.solve_multi(times);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate time point"),
              std::string::npos)
        << e.what();
  }
}

TEST(RandomizationValidationTest, RejectsUnsortedTimePoints) {
  const RandomizationMomentSolver solver(uniform_reward_model(2, 1.0, 1.0));
  const double times[] = {0.25, 1.0, 0.5};
  try {
    solver.solve_multi(times);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("sorted ascending"),
              std::string::npos)
        << e.what();
  }
}

TEST(RandomizationValidationTest, RejectsNonPositiveEpsilon) {
  const RandomizationMomentSolver solver(uniform_reward_model(2, 1.0, 1.0));
  MomentSolverOptions bad;
  for (double eps : {0.0, -1e-9, std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    bad.epsilon = eps;
    EXPECT_THROW(solver.solve(1.0, bad), std::invalid_argument)
        << "epsilon = " << eps;
  }
}

TEST(RandomizationValidationTest, RejectsNonFiniteCenter) {
  const RandomizationMomentSolver solver(uniform_reward_model(2, 1.0, 1.0));
  MomentSolverOptions bad;
  bad.center = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(solver.solve(1.0, bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Property sweep: variance non-negative, mean invariant to sigma^2, even
// central moments monotone in sigma^2, across chain sizes and times.
// ---------------------------------------------------------------------------

class RandomizationPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

SecondOrderMrm varied_model(std::size_t n, double sigma2_scale) {
  std::vector<Triplet> rates;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    rates.push_back({i, i + 1, 1.0 + static_cast<double>(i)});
    rates.push_back({i + 1, i, 2.0});
  }
  auto gen = ctmc::Generator::from_rates(n, rates);
  Vec drifts(n), vars(n);
  for (std::size_t i = 0; i < n; ++i) {
    drifts[i] = static_cast<double>(n - i);  // decreasing rewards
    vars[i] = sigma2_scale * static_cast<double>(i);
  }
  return SecondOrderMrm(std::move(gen), std::move(drifts), std::move(vars),
                        linalg::unit_vec(n, 0));
}

TEST_P(RandomizationPropertyTest, VarianceNonNegativePerState) {
  const auto [n, t] = GetParam();
  const RandomizationMomentSolver solver(varied_model(n, 1.0));
  MomentSolverOptions opts;
  opts.max_moment = 2;
  opts.epsilon = 1e-11;
  const auto res = solver.solve(t, opts);
  for (std::size_t i = 0; i < n; ++i) {
    const double var =
        res.per_state[2][i] - res.per_state[1][i] * res.per_state[1][i];
    EXPECT_GE(var, -1e-8) << "state " << i << " t " << t;
  }
}

TEST_P(RandomizationPropertyTest, MeanIndependentOfVariances) {
  const auto [n, t] = GetParam();
  MomentSolverOptions opts;
  opts.max_moment = 1;
  opts.epsilon = 1e-12;
  const RandomizationMomentSolver first(varied_model(n, 0.0));
  const RandomizationMomentSolver second(varied_model(n, 3.0));
  const double m1 = first.solve(t, opts).weighted[1];
  const double m2 = second.solve(t, opts).weighted[1];
  EXPECT_NEAR(m1, m2, 1e-8 * (1.0 + std::abs(m1)));
}

TEST_P(RandomizationPropertyTest, SecondMomentMonotoneInVariance) {
  const auto [n, t] = GetParam();
  MomentSolverOptions opts;
  opts.max_moment = 2;
  opts.epsilon = 1e-11;
  double prev = -1.0;
  for (double scale : {0.0, 1.0, 5.0}) {
    const RandomizationMomentSolver solver(varied_model(n, scale));
    const double m2 = solver.solve(t, opts).weighted[2];
    EXPECT_GE(m2, prev - 1e-9);
    prev = m2;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomizationPropertyTest,
    ::testing::Combine(::testing::Values<std::size_t>(2, 5, 12),
                       ::testing::Values(0.05, 0.5, 2.0)));

// ---------------------------------------------------------------------------
// Thread-count invariance: the fused sweep partitions rows deterministically
// and every write is row-owned, so results must be BIT-identical for every
// thread count (a stronger guarantee than the 1e-13 relative bound the
// cross-solver tests rely on).
// ---------------------------------------------------------------------------

class RandomizationThreadTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void TearDown() override { linalg::set_num_threads(0); }
};

TEST_P(RandomizationThreadTest, MomentsBitIdenticalToSingleThread) {
  const auto model = models::make_onoff_multiplexer(models::table1_params(1.0));
  const RandomizationMomentSolver solver(model);
  MomentSolverOptions opts;
  opts.max_moment = 3;
  opts.epsilon = 1e-10;
  const double times[] = {0.1, 1.0, 5.0};

  linalg::set_num_threads(1);
  const auto reference = solver.solve_multi(times, opts);

  linalg::set_num_threads(GetParam());
  const auto parallel = solver.solve_multi(times, opts);

  ASSERT_EQ(parallel.size(), reference.size());
  for (std::size_t ti = 0; ti < reference.size(); ++ti) {
    for (std::size_t j = 0; j <= opts.max_moment; ++j) {
      EXPECT_EQ(parallel[ti].weighted[j], reference[ti].weighted[j])
          << "t " << times[ti] << " moment " << j;
      for (std::size_t i = 0; i < model.num_states(); ++i)
        ASSERT_EQ(parallel[ti].per_state[j][i], reference[ti].per_state[j][i])
            << "t " << times[ti] << " moment " << j << " state " << i;
    }
  }
}

TEST_P(RandomizationThreadTest, TerminalWeightedBitIdenticalToSingleThread) {
  const auto model = models::make_onoff_multiplexer(models::table1_params(1.0));
  const RandomizationMomentSolver solver(model);
  MomentSolverOptions opts;
  opts.max_moment = 2;
  opts.epsilon = 1e-10;
  Vec weights(model.num_states());
  for (std::size_t i = 0; i < weights.size(); ++i)
    weights[i] = 1.0 + 0.25 * static_cast<double>(i % 3);

  linalg::set_num_threads(1);
  const auto reference = solver.solve_terminal_weighted(1.0, weights, opts);

  linalg::set_num_threads(GetParam());
  const auto parallel = solver.solve_terminal_weighted(1.0, weights, opts);

  for (std::size_t j = 0; j <= opts.max_moment; ++j) {
    EXPECT_EQ(parallel.weighted[j], reference.weighted[j]) << "moment " << j;
    for (std::size_t i = 0; i < model.num_states(); ++i)
      ASSERT_EQ(parallel.per_state[j][i], reference.per_state[j][i])
          << "moment " << j << " state " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, RandomizationThreadTest,
                         ::testing::Values<std::size_t>(1, 2, 4));

TEST(RandomizationTest, TerminalWeightedFillsErrorBound) {
  // Regression: solve_terminal_weighted used to leave error_bound at 0.
  // The Theorem-4 bound applies unchanged (the normalized seed is
  // elementwise <= h, so Lemma 2's |U^(n)(k)| <= prefactor still holds).
  const SecondOrderMrm m = varied_model(4, 1.0);
  const RandomizationMomentSolver solver(m);
  MomentSolverOptions opts;
  opts.epsilon = 1e-8;
  const auto res =
      solver.solve_terminal_weighted(0.9, linalg::ones(4), opts);
  EXPECT_GT(res.error_bound, 0.0);
  EXPECT_LT(res.error_bound, opts.epsilon);
  // And it matches the plain solve's bound machinery at the same G.
  const auto plain = solver.solve(0.9, opts);
  EXPECT_EQ(res.truncation_point, plain.truncation_point);
}

// ---------------------------------------------------------------------------
// SIMD levels and threads: the sweep's row kernel at the AVX2 level and at
// 4 threads against the scalar kernel at 1 thread, bit for bit, across the
// sweep's branches — every width 1..34 (the compile-time widths 1..8 and
// the 8-lane blocks beyond, with every tail), plain, terminal-weighted and
// impulse sweeps, shift and centering, q = 0, banded and relabelled state
// orders (the sweep reorders the latter by RCM), thread splits and the last
// rows of tiny models.
// ---------------------------------------------------------------------------

/// Birth-death chain with bounded rates (q stays ~7 at any size): forward
/// and backward transitions, drifts of +-[0.5, 2] (negative on every third
/// state when @p negative, which forces the drift shift), uniform initial
/// law. A single state has no transition, so n = 1 is the q = 0 closed
/// form. @p shuffled relabels state i as (7 i + 1) mod n (n coprime to 7),
/// scattering the tridiagonal band that the banded numbering keeps.
SecondOrderMrm lane_model(std::size_t n, bool negative, bool shuffled = false) {
  const auto label = [&](std::size_t i) { return shuffled ? (7 * i + 1) % n : i; };
  std::vector<Triplet> rates;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double fwd = 2.0 * (1.0 + 0.3 * static_cast<double>(i % 7));
    const double back = 0.7 + 0.1 * static_cast<double>(i % 5);
    rates.push_back({label(i), label(i + 1), fwd});
    rates.push_back({label(i + 1), label(i), back});
  }
  Vec drifts(n), vars(n);
  for (std::size_t i = 0; i < n; ++i) {
    drifts[label(i)] = (negative && i % 3 == 0 ? -1.0 : 1.0) *
                       (0.5 + 0.25 * static_cast<double>(i % 7));
    vars[label(i)] = 0.1 + 0.05 * static_cast<double>(i % 4);
  }
  return SecondOrderMrm(ctmc::Generator::from_rates(n, rates),
                        std::move(drifts), std::move(vars),
                        Vec(n, 1.0 / static_cast<double>(n)));
}

/// Restores the auto dispatch level and the default thread count.
class RandomizationSimdTest : public ::testing::Test {
 protected:
  void TearDown() override {
    linalg::simd::set_level(linalg::simd::highest_supported());
    linalg::set_num_threads(0);
  }
};

/// Impulses on the transitions out of every state i with i % 4 != 0 (so
/// every A~_l has empty rows), with mean @p mean: a zero mean leaves every
/// odd A~_l without a stored entry.
SecondOrderImpulseMrm lane_impulse_model(SecondOrderMrm base, double mean) {
  const linalg::CsrMatrix& q = base.generator().matrix();
  linalg::CsrBuilder means(q.rows(), q.cols()), vars(q.rows(), q.cols());
  for (std::size_t i = 0; i < q.rows(); ++i) {
    if (i % 4 == 0) continue;
    q.visit_row(i, [&](std::size_t col, double v) {
      if (col == i || v <= 0.0) return;
      means.add(i, col, mean * (1.0 + 0.1 * static_cast<double>(col % 3)));
      vars.add(i, col, 0.15);
    });
  }
  return SecondOrderImpulseMrm(std::move(base),
                               std::move(means).build(/*keep zeros*/ true),
                               std::move(vars).build());
}

/// The bit patterns of every output double of a solve.
std::vector<std::uint64_t> result_bits(
    const std::vector<MomentResult>& results) {
  std::vector<std::uint64_t> out;
  const auto add = [&](double x) { out.push_back(std::bit_cast<std::uint64_t>(x)); };
  for (const MomentResult& r : results) {
    add(r.error_bound);
    out.push_back(r.truncation_point);
    for (double x : r.weighted) add(x);
    for (const Vec& col : r.per_state)
      for (double x : col) add(x);
  }
  return out;
}

enum SweepKind { kPlainSweep, kWeightedSweep, kImpulseSweep };

const char* sweep_kind_name(int kind) {
  constexpr const char* kNames[] = {"_plain", "_weighted", "_impulse"};
  return kNames[kind];
}

class RandomizationSimdGridTest
    : public RandomizationSimdTest,
      public ::testing::WithParamInterface<std::tuple<std::size_t, int>> {};

TEST_P(RandomizationSimdGridTest, VectorLevelsBitIdenticalToScalar) {
  const auto [n, kind] = GetParam();
  const std::vector<double> few{0.1, 0.4, 1.0};
  // More active time points than lanes.
  const std::vector<double> many{0.05, 0.1,  0.15, 0.2,  0.25, 0.3,
                                 0.35, 0.4,  0.45, 0.5,  0.55, 0.6};
  struct Case {
    std::size_t states;
    bool negative;
    std::vector<const std::vector<double>*> grids;
  };
  // Tiny models cover q = 0 (one state) and the last rows in one range;
  // 2500 states splits into uneven parallel ranges at 4 threads.
  const std::vector<Case> cases{{1, false, {&few, &many}},
                                {2, false, {&few, &many}},
                                {31, false, {&few, &many}},
                                {31, true, {&few, &many}},
                                {2500, true, {&many}}};
  // The reference runs the scalar kernel at 1 thread; every other
  // (level, threads) pair must reproduce it. set_level clamps, so kAvx2
  // runs the scalar kernel on a host without AVX2.
  const auto for_each_run = [](const auto& fn) {
    for (const linalg::simd::Level level :
         {linalg::simd::Level::kScalar, linalg::simd::Level::kAvx2})
      for (const std::size_t threads : {1u, 4u}) {
        if (level == linalg::simd::Level::kScalar && threads == 1) continue;
        linalg::simd::set_level(level);
        linalg::set_num_threads(threads);
        fn(std::string(" level ") + linalg::simd::level_name(level) +
           " threads " + std::to_string(threads));
      }
  };
  for (const Case& c : cases)
    for (const bool shuffled : {false, true}) {
      const SecondOrderMrm model = lane_model(c.states, c.negative, shuffled);
      const RandomizationMomentSolver solver(model);
      const ImpulseMomentSolver impulse_solver(
          lane_impulse_model(model, c.negative ? -0.3 : 0.0));
      // Two states relabelled are still tridiagonal: nothing to narrow.
      const char* reorder = shuffled && c.states > 2 ? "rcm" : "none";
      Vec w;
      if (kind == kWeightedSweep) {
        w.resize(c.states);
        for (std::size_t i = 0; i < c.states; ++i)
          w[i] = 1.0 + 0.25 * static_cast<double>(i % 3);
      }
      for (const double center : {0.0, 0.37})
        for (const std::vector<double>* times : c.grids) {
          MomentSolverOptions opts;
          opts.max_moment = n;
          opts.center = center;
          const std::string where =
              "states " + std::to_string(c.states) + " center " +
              std::to_string(center) + " shuffled " +
              std::to_string(shuffled) + " times " +
              std::to_string(times->size());
          linalg::simd::set_level(linalg::simd::Level::kScalar);
          linalg::set_num_threads(1);
          if (kind == kImpulseSweep) {
            const auto ref = impulse_solver.solve_multi(*times, opts);
            const obs::SolverStats& stats = ref.front().stats;
            EXPECT_EQ(stats.simd, stats.kernel == "degenerate" ? "none"
                                                               : "scalar")
                << where;
            EXPECT_EQ(stats.reorder, reorder) << where;
            for_each_run([&](const std::string& run) {
              const auto got = impulse_solver.solve_multi(*times, opts);
              EXPECT_TRUE(result_bits(got) == result_bits(ref))
                  << where << run;
            });
            continue;
          }
          const RetainedSweep ref = solver.sweep_retained(*times, opts, w);
          EXPECT_EQ(ref.stats.simd, ref.degenerate ? "none" : "scalar")
              << where;
          EXPECT_EQ(ref.stats.reorder, reorder) << where;
          for_each_run([&](const std::string& run) {
            const RetainedSweep got = solver.sweep_retained(*times, opts, w);
            EXPECT_TRUE(bit_identical(ref, got)) << where << run;
            EXPECT_EQ(got.stats.simd,
                      got.degenerate
                          ? "none"
                          : linalg::simd::level_name(
                                linalg::simd::active_level()))
                << where << run;
          });
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    OrdersAndSweeps, RandomizationSimdGridTest,
    ::testing::Combine(::testing::Range<std::size_t>(0, 34),
                       ::testing::Values(kPlainSweep, kWeightedSweep,
                                         kImpulseSweep)),
    [](const auto& p) {
      return "n" + std::to_string(std::get<0>(p.param)) +
             sweep_kind_name(std::get<1>(p.param));
    });

TEST_F(RandomizationSimdTest, PlainSweepOnesColumnIsOneValuePerTimePoint) {
  // The plain sweep fills acc column 0 from one scalar chain per time point;
  // every row must hold the same bits, and they must equal that chain,
  // 0 + w_0 + w_1 + ... + w_G over the time point's Poisson window.
  const RandomizationMomentSolver solver(lane_model(2500, false));
  std::vector<double> times;
  for (int i = 1; i <= 12; ++i) times.push_back(0.05 * i);
  MomentSolverOptions opts;
  opts.max_moment = 4;
  linalg::set_num_threads(4);
  linalg::simd::set_level(linalg::simd::Level::kScalar);
  const RetainedSweep reference = solver.sweep_retained(times, opts);
  for (std::size_t t = 0; t < times.size(); ++t) {
    const std::size_t g = reference.truncation_points[t];
    const prob::PoissonWindow window =
        prob::poisson_weight_window(reference.q * times[t], g);
    double chain = 0.0;
    for (std::size_t k = 0; k <= g; ++k) chain += window.weight(k);
    EXPECT_EQ(std::memcmp(&chain, reference.acc[t].row_data(0), sizeof chain),
              0)
        << "t " << times[t];
  }
  // set_level clamps, so kAvx2 runs the scalar kernel on non-AVX2 hosts.
  for (const linalg::simd::Level level :
       {linalg::simd::Level::kAvx2, linalg::simd::Level::kScalar}) {
    linalg::simd::set_level(level);
    const RetainedSweep sweep = solver.sweep_retained(times, opts);
    EXPECT_TRUE(bit_identical(sweep, reference))
        << linalg::simd::level_name(level);
    for (std::size_t t = 0; t < times.size(); ++t) {
      const linalg::Panel& acc = sweep.acc[t];
      for (std::size_t i = 1; i < acc.rows(); ++i)
        ASSERT_EQ(std::memcmp(acc.row_data(i), acc.row_data(0), sizeof(double)),
                  0)
            << "t " << times[t] << " row " << i << " "
            << linalg::simd::level_name(level);
    }
  }
}

}  // namespace
}  // namespace somrm::core
