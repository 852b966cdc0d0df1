// Tests for kernels, GP posterior math (paper eq. 17), UCB weights, and the
// classic GP-UCB acquisition rule.  The Cholesky factor is in test_linalg.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numbers>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gp/acquisition.hpp"
#include "gp/cholesky.hpp"
#include "gp/gaussian_process.hpp"
#include "gp/kernel.hpp"

namespace dragster::gp {
namespace {

Kernel se(double variance = 1.0, double lengthscale = 1.0) {
  return SquaredExponentialKernel(variance, std::vector{lengthscale});
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

TEST(Kernel, SquaredExponentialValues) {
  SquaredExponentialKernel k(2.0, {1.0});
  const std::vector<double> x{0.0};
  const std::vector<double> y{1.0};
  EXPECT_DOUBLE_EQ(k(x, x), 2.0);
  EXPECT_NEAR(k(x, y), 2.0 * std::exp(-0.5), 1e-12);
}

TEST(Kernel, ArdLengthscalesWeightDimensions) {
  SquaredExponentialKernel k(1.0, {1.0, 10.0});
  const std::vector<double> x{0.0, 0.0};
  const std::vector<double> step_dim0{1.0, 0.0};
  const std::vector<double> step_dim1{0.0, 1.0};
  EXPECT_LT(k(x, step_dim0), k(x, step_dim1));  // dim 1 is smoother
}

TEST(Kernel, Matern52AtZeroAndDecay) {
  Matern52Kernel k(3.0, {2.0});
  const std::vector<double> x{0.0};
  EXPECT_DOUBLE_EQ(k(x, x), 3.0);
  const std::vector<double> far{20.0};
  EXPECT_LT(k(x, far), 1e-3);
}

TEST(Kernel, RejectsBadHyperparameters) {
  EXPECT_THROW(SquaredExponentialKernel(0.0, {1.0}), std::invalid_argument);
  EXPECT_THROW(SquaredExponentialKernel(1.0, {}), std::invalid_argument);
  EXPECT_THROW(SquaredExponentialKernel(1.0, {-1.0}), std::invalid_argument);
}

TEST(Gp, PriorBeforeObservations) {
  GaussianProcess gp(se(4.0), 0.01, 7.0);
  const Posterior post = gp.predict(std::vector{0.5});
  EXPECT_DOUBLE_EQ(post.mean, 7.0);
  EXPECT_DOUBLE_EQ(post.variance, 4.0);
}

TEST(Gp, InterpolatesObservationWithLowNoise) {
  GaussianProcess gp(se(), 1e-8);
  gp.add_observation({1.0}, 3.0);
  const Posterior post = gp.predict(std::vector{1.0});
  EXPECT_NEAR(post.mean, 3.0, 1e-4);
  EXPECT_LT(post.variance, 1e-4);
}

TEST(Gp, VarianceGrowsAwayFromData) {
  GaussianProcess gp(se(), 1e-4);
  gp.add_observation({0.0}, 1.0);
  const double near = gp.predict(std::vector{0.1}).variance;
  const double far = gp.predict(std::vector{3.0}).variance;
  EXPECT_LT(near, far);
  EXPECT_LE(far, 1.0 + 1e-9);
}

TEST(Gp, PosteriorMatchesDirectFormula) {
  // Two observations; compare against a hand-computed eq. (17) posterior.
  const double noise = 0.01;
  GaussianProcess gp(se(), noise);
  gp.add_observation({0.0}, 1.0);
  gp.add_observation({1.0}, 2.0);

  const double k01 = std::exp(-0.5);
  // K + s^2 I = [[1+s, k01], [k01, 1+s]]
  const double a = 1.0 + noise;
  const double det = a * a - k01 * k01;
  const std::vector<double> x{0.5};
  const double kx0 = std::exp(-0.5 * 0.25);
  const double kx1 = kx0;
  // alpha = (K+sI)^{-1} y
  const double alpha0 = (a * 1.0 - k01 * 2.0) / det;
  const double alpha1 = (-k01 * 1.0 + a * 2.0) / det;
  const double expected_mean = kx0 * alpha0 + kx1 * alpha1;

  const Posterior post = gp.predict(x);
  EXPECT_NEAR(post.mean, expected_mean, 1e-10);

  const double q0 = (a * kx0 - k01 * kx1) / det;
  const double q1 = (-k01 * kx0 + a * kx1) / det;
  const double expected_var = 1.0 - (kx0 * q0 + kx1 * q1);
  EXPECT_NEAR(post.variance, expected_var, 1e-10);
}

TEST(Gp, RecoversSmoothFunctionFromNoisySamples) {
  common::Rng rng(31);
  GaussianProcess gp(se(4.0, 1.5), 0.01);
  auto truth = [](double x) { return 2.0 * std::sin(x); };
  for (int i = 0; i < 40; ++i) {
    const double x = rng.uniform(0.0, 6.0);
    gp.add_observation({x}, truth(x) + rng.normal(0.0, 0.1));
  }
  for (double x = 0.5; x < 6.0; x += 0.7)
    EXPECT_NEAR(gp.predict(std::vector{x}).mean, truth(x), 0.3) << "at x=" << x;
}

TEST(Gp, CopyIsIndependent) {
  GaussianProcess gp(se(), 0.01);
  gp.add_observation({0.0}, 1.0);
  GaussianProcess copy = gp;
  copy.add_observation({1.0}, 5.0);
  EXPECT_EQ(gp.num_observations(), 1u);
  EXPECT_EQ(copy.num_observations(), 2u);
  EXPECT_NE(gp.predict(std::vector{1.0}).mean, copy.predict(std::vector{1.0}).mean);
}

TEST(Gp, ResetClearsObservations) {
  GaussianProcess gp(se(), 0.01, 3.0);
  gp.add_observation({0.0}, 10.0);
  gp.reset();
  EXPECT_EQ(gp.num_observations(), 0u);
  EXPECT_DOUBLE_EQ(gp.predict(std::vector{0.0}).mean, 3.0);
}

TEST(Gp, RejectsDimensionMismatch) {
  GaussianProcess gp(se(), 0.01);
  EXPECT_THROW(gp.add_observation({1.0, 2.0}, 0.0), std::invalid_argument);
  EXPECT_THROW((void)gp.predict(std::vector{1.0, 2.0}), std::invalid_argument);
}

TEST(Gp, IncrementalManyObservationsStayStable) {
  common::Rng rng(13);
  GaussianProcess gp(se(1.0, 2.0), 0.05);
  for (int i = 0; i < 200; ++i) {
    const double x = static_cast<double>(i % 10);
    gp.add_observation({x}, std::sin(x) + rng.normal(0.0, 0.2));
  }
  const Posterior post = gp.predict(std::vector{4.0});
  EXPECT_TRUE(std::isfinite(post.mean));
  EXPECT_NEAR(post.mean, std::sin(4.0), 0.25);
  EXPECT_LT(post.variance, 0.05);
}

TEST(Gp, RepeatedInputsShareOneRow) {
  GaussianProcess gp(se(), 0.01);
  for (int i = 0; i < 30; ++i) gp.add_observation({static_cast<double>(i % 3)}, 1.0);
  EXPECT_EQ(gp.num_observations(), 30u);
  EXPECT_EQ(gp.distinct_inputs(), 3u);
  gp.reset();
  EXPECT_EQ(gp.num_observations(), 0u);
  EXPECT_EQ(gp.distinct_inputs(), 0u);
}

TEST(Gp, RejectsNonFiniteInputsAndTargets) {
  GaussianProcess gp(se(), 0.01);
  EXPECT_THROW(gp.add_observation({std::nan("")}, 1.0), Error);
  EXPECT_THROW(gp.add_observation({std::numeric_limits<double>::infinity()}, 1.0), Error);
  EXPECT_THROW(gp.add_observation({1.0}, std::nan("")), Error);
  gp.add_observation({1.0}, 1e308);
  EXPECT_THROW(gp.add_observation({1.0}, 1e308), Error);  // the row's sum would overflow
  EXPECT_EQ(gp.num_observations(), 1u);
}

TEST(Gp, PredictBatchMatchesPredict) {
  GaussianProcess gp(Matern52Kernel(2.0, std::vector{2.0, 0.75}), 0.01, 1.0);
  common::Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    const auto tasks = static_cast<double>(rng.uniform_int(1, 10));
    const auto cpu = 0.5 * static_cast<double>(rng.uniform_int(1, 4));
    gp.add_observation({tasks, cpu}, rng.normal(1.0, 0.2));
  }
  const std::vector<double> xs{1.0, 0.5, 4.5, 1.25, 10.0, 2.0};
  std::vector<Posterior> out(3);
  gp.predict_batch(xs, 3, out);
  for (std::size_t q = 0; q < 3; ++q) {
    const Posterior one = gp.predict(std::span<const double>(xs).subspan(2 * q, 2));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[q].mean), std::bit_cast<std::uint64_t>(one.mean));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(out[q].variance),
              std::bit_cast<std::uint64_t>(one.variance));
  }
  EXPECT_THROW(gp.predict_batch(xs, 2, out), Error);
}

/// The dense posterior the table replaces: every sample is its own row of
/// K + sigma^2 I.  Factors once and answers every query.
std::vector<Posterior> dense_posteriors(const Kernel& kernel, double noise, double prior_mean,
                                        const std::vector<std::vector<double>>& xs,
                                        const std::vector<double>& ys,
                                        const std::vector<std::vector<double>>& queries) {
  const std::size_t n = xs.size();
  std::vector<double> k(n * n);  // row-major
  std::vector<double> centered(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) k[i * n + j] = kernel(xs[i], xs[j]);
    k[i * n + i] += noise;
    centered[i] = ys[i] - prior_mean;
  }
  const Cholesky chol(k, n);
  const std::vector<double> alpha = chol.solve(centered);
  std::vector<Posterior> out;
  for (const std::vector<double>& q : queries) {
    std::vector<double> kq(n);
    for (std::size_t i = 0; i < n; ++i) kq[i] = kernel(xs[i], q);
    const std::vector<double> v = chol.solve_lower(kq);
    out.push_back({prior_mean + dot(kq, alpha), std::max(0.0, kernel(q, q) - dot(v, v))});
  }
  return out;
}

TEST(Gp, GridTableMatchesDenseReference) {
  // 24 seeded sequences over SE and Matern, d = 1 (tasks 1..10) and d = 2
  // (tasks x cpu in {0.5, 1, 2, 4}).  Inputs are drawn from a few hot grid
  // points so most samples repeat one; the table must give the dense
  // posterior on and off the grid, at three points along each sequence.
  constexpr int kSequences = 24;
  constexpr std::size_t kObservations = 300;
  const double cpus[] = {0.5, 1.0, 2.0, 4.0};
  std::size_t compared = 0;
  for (int s = 0; s < kSequences; ++s) {
    SCOPED_TRACE("sequence " + std::to_string(s));
    common::Rng rng(0x6B1D + static_cast<std::uint64_t>(s));
    const bool matern = s % 2 == 1;
    const std::size_t dim = (s / 2) % 2 == 0 ? 1 : 2;
    std::vector<double> lengthscales{rng.uniform(1.5, 3.0)};
    if (dim == 2) lengthscales.push_back(0.75);
    const double signal = rng.uniform(0.5, 3.0);
    const double noise = rng.uniform(0.004, 0.05);
    const double prior_mean = rng.uniform(0.0, 2.0);
    const Kernel kernel = matern ? Kernel(Matern52Kernel(signal, lengthscales))
                                 : Kernel(SquaredExponentialKernel(signal, lengthscales));
    GaussianProcess gp(kernel, noise, prior_mean);

    std::vector<std::vector<double>> hot;
    for (int h = 0; h < 4; ++h) {
      std::vector<double> x{static_cast<double>(rng.uniform_int(1, 10))};
      if (dim == 2) x.push_back(cpus[rng.uniform_int(0, 3)]);
      hot.push_back(x);
    }
    std::vector<std::vector<double>> queries;
    for (int t = 1; t <= 10; ++t) {
      queries.push_back({static_cast<double>(t)});
      queries.push_back({t + 0.37});
      if (dim == 2) {
        queries.back().push_back(1.5);
        queries[queries.size() - 2].push_back(cpus[t % 4]);
      }
    }
    queries.push_back(std::vector<double>(dim, -3.0));
    queries.push_back(std::vector<double>(dim, 25.0));

    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    for (std::size_t i = 1; i <= kObservations; ++i) {
      std::vector<double> x;
      if (rng.bernoulli(0.8)) {
        x = hot[static_cast<std::size_t>(rng.uniform_int(0, 3))];
      } else {
        x = {static_cast<double>(rng.uniform_int(1, 10))};
        if (dim == 2) x.push_back(cpus[rng.uniform_int(0, 3)]);
      }
      const double y = 1.0 + 0.3 * std::sin(x[0]) + rng.normal(0.0, std::sqrt(noise));
      xs.push_back(x);
      ys.push_back(y);
      gp.add_observation(x, y);
      if (i != 20 && i != 150 && i != kObservations) continue;
      ASSERT_EQ(gp.num_observations(), i);
      ASSERT_LE(gp.distinct_inputs(), dim == 1 ? 10u : 40u);
      const std::vector<Posterior> dense =
          dense_posteriors(kernel, noise, prior_mean, xs, ys, queries);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const Posterior table = gp.predict(queries[q]);
        const double kqq = kernel(queries[q], queries[q]);
        EXPECT_LE(std::abs(table.mean - dense[q].mean),
                  1e-9 * std::max(1.0, std::abs(dense[q].mean)))
            << "query " << q << " after " << i;
        EXPECT_LE(std::abs(table.variance - dense[q].variance), 1e-9 * kqq)
            << "query " << q << " after " << i;
        ++compared;
      }
    }
    EXPECT_GE(gp.num_observations(), 5 * gp.distinct_inputs());  // mostly repeats
  }
  EXPECT_EQ(compared, static_cast<std::size_t>(kSequences) * 3 * 22);
}

TEST(UcbBeta, MatchesPaperFormula) {
  const std::size_t cands = 100;
  const double delta = 2.0;
  const double expected =
      2.0 * std::log(100.0 * 9.0 * std::numbers::pi * std::numbers::pi * delta / 6.0);  // t = 3
  EXPECT_NEAR(ucb_beta(cands, 3, delta), expected, 1e-9);
}

TEST(UcbBeta, GrowsWithTimeAndCandidates) {
  EXPECT_LT(ucb_beta(10, 2, 2.0), ucb_beta(10, 20, 2.0));
  EXPECT_LT(ucb_beta(10, 5, 2.0), ucb_beta(1000, 5, 2.0));
}

TEST(UcbBeta, RejectsPaperInvalidDelta) {
  EXPECT_THROW((void)ucb_beta(10, 1, 1.0), std::invalid_argument);
}

TEST(Acquisition, ClassicUcbPicksHighMeanWhenNoUncertainty) {
  GaussianProcess gp(se(), 1e-6);
  gp.add_observation({1.0}, 1.0);
  gp.add_observation({2.0}, 5.0);
  gp.add_observation({3.0}, 3.0);
  const std::vector<Candidate> cands{{1.0}, {2.0}, {3.0}};
  const auto result = select_ucb(gp, cands, 0.01);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->index, 1u);
}

TEST(Acquisition, ClassicUcbExploresWithLargeBeta) {
  GaussianProcess gp(se(), 1e-6);
  gp.add_observation({1.0}, 5.0);
  const std::vector<Candidate> cands{{1.0}, {10.0}};  // far point unexplored
  const auto result = select_ucb(gp, cands, 100.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->index, 1u);
}

TEST(Acquisition, FeasibilityFilterSkipsCandidates) {
  GaussianProcess gp(se(), 1e-6);
  gp.add_observation({1.0}, 1.0);
  gp.add_observation({2.0}, 10.0);
  const std::vector<Candidate> cands{{1.0}, {2.0}};
  const auto result =
      select_ucb(gp, cands, 0.0, [](const Candidate& c) { return c[0] < 1.5; });
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->index, 0u);
}

TEST(Acquisition, AllInfeasibleReturnsNullopt) {
  GaussianProcess gp(se(), 1e-6);
  gp.add_observation({1.0}, 1.0);
  const std::vector<Candidate> cands{{1.0}};
  const auto result = select_ucb(gp, cands, 0.0, [](const Candidate&) { return false; });
  EXPECT_FALSE(result.has_value());
}

TEST(Acquisition, IntegerGridEnumeratesFully) {
  const auto grid = integer_grid(2, 1, 3);
  EXPECT_EQ(grid.size(), 9u);
  // Every pair present exactly once.
  std::set<std::pair<int, int>> seen;
  for (const auto& c : grid) seen.emplace(static_cast<int>(c[0]), static_cast<int>(c[1]));
  EXPECT_EQ(seen.size(), 9u);
}

}  // namespace
}  // namespace dragster::gp
