// Unit and property tests for the dense linear algebra under the GP: the
// jittered Cholesky factor of an n x n row-major matrix (gp/cholesky.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gp/cholesky.hpp"

namespace dragster::gp {
namespace {

/// a * b for n x n row-major matrices.
std::vector<double> multiply(const std::vector<double>& a, const std::vector<double>& b,
                             std::size_t n) {
  std::vector<double> out(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t k = 0; k < n; ++k)
      for (std::size_t j = 0; j < n; ++j) out[i * n + j] += a[i * n + k] * b[k * n + j];
  return out;
}

std::vector<double> transposed(const std::vector<double>& a, std::size_t n) {
  std::vector<double> out(n * n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) out[c * n + r] = a[r * n + c];
  return out;
}

TEST(Cholesky, SolvesKnownSystem) {
  // A = [[4,2],[2,3]] is SPD; the solution must satisfy both rows.
  const Cholesky chol({4.0, 2.0, 2.0, 3.0}, 2);
  const std::vector<double> x = chol.solve({8.0, 7.0});
  EXPECT_NEAR(4.0 * x[0] + 2.0 * x[1], 8.0, 1e-12);
  EXPECT_NEAR(2.0 * x[0] + 3.0 * x[1], 7.0, 1e-12);
}

TEST(Cholesky, FactorReconstructsMatrix) {
  const std::vector<double> a{9.0, 3.0, 0.0, 3.0, 5.0, 1.0, 0.0, 1.0, 7.0};
  const Cholesky chol(a, 3);
  const std::vector<double>& l = chol.factor();
  const std::vector<double> reconstructed = multiply(l, transposed(l, 3), 3);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(reconstructed[i], a[i], 1e-10);
}

TEST(Cholesky, JitterRescuesSemidefinite) {
  // Rank-1 matrix: factorization needs jitter but must not throw.
  EXPECT_NO_THROW(Cholesky({1.0, 1.0, 1.0, 1.0}, 2));
}

TEST(Cholesky, RejectsIndefinite) {
  EXPECT_THROW(Cholesky({1.0, 0.0, 0.0, -5.0}, 2), dragster::Error);
}

TEST(Cholesky, NearSingularFactorsWithJitterAndSolves) {
  // Rank-2 3x3 (two identical rows): positive definite only through the
  // escalating jitter, and the jittered factor must still solve accurately
  // at the jitter's scale.
  const Cholesky chol({1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 2.0}, 3, 1e-8);
  const std::vector<double> x = chol.solve({2.0, 2.0, 2.0});
  for (double v : x) EXPECT_TRUE(std::isfinite(v));
  EXPECT_NEAR(x[0] + x[1], 2.0, 1e-4);
  EXPECT_NEAR(2.0 * x[2], 2.0, 1e-6);
}

TEST(Cholesky, IndefiniteErrorReportsFinalJitter) {
  // The exception must say how much jitter was tried so GP debugging does
  // not start from a bare "not positive definite".
  try {
    const Cholesky chol({1.0, 0.0, 0.0, -5.0}, 2);
    FAIL() << "expected dragster::Error";
  } catch (const dragster::Error& error) {
    EXPECT_NE(std::string(error.what()).find("jitter"), std::string::npos) << error.what();
  }
}

class CholeskyRandomSolve : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyRandomSolve, ResidualIsTiny) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 2 + static_cast<std::size_t>(GetParam()) % 9;
  std::vector<double> b(n * n);
  for (double& v : b) v = rng.normal();
  std::vector<double> a = multiply(b, transposed(b, n), n);
  for (std::size_t i = 0; i < n; ++i) a[i * n + i] += 1.0;

  std::vector<double> rhs(n);
  for (double& v : rhs) v = rng.normal(0.0, 10.0);
  const Cholesky chol(a, n);
  const std::vector<double> x = chol.solve(rhs);
  for (std::size_t r = 0; r < n; ++r) {
    double back = 0.0;
    for (std::size_t c = 0; c < n; ++c) back += a[r * n + c] * x[c];
    EXPECT_LT(std::abs(back - rhs[r]), 1e-8) << "row " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, CholeskyRandomSolve, ::testing::Range(1, 16));

}  // namespace
}  // namespace dragster::gp
