// Unit and property tests for the dense linear algebra substrate.
#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"

namespace dragster::linalg {
namespace {

TEST(Matrix, InitializerListAndIndexing) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  m(1, 0) = 9.0;
  EXPECT_DOUBLE_EQ(m(1, 0), 9.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, IdentityMultiplication) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix result = a * Matrix::identity(2);
  EXPECT_DOUBLE_EQ(result(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(result(1, 1), 4.0);
}

TEST(Matrix, MultiplyKnownValues) {
  const Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix b{{7.0, 8.0}, {9.0, 10.0}, {11.0, 12.0}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
}

TEST(Matrix, ShapeMismatchThrows) {
  const Matrix a(2, 3);
  const Matrix b(2, 3);
  EXPECT_THROW(a * b, std::invalid_argument);
}

TEST(Matrix, MatVecKnownValues) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Vector x{5.0, 6.0};
  const Vector y = a * x;
  EXPECT_DOUBLE_EQ(y[0], 17.0);
  EXPECT_DOUBLE_EQ(y[1], 39.0);
}

TEST(Matrix, TransposeRoundTrip) {
  const Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix att = a.transposed().transposed();
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) EXPECT_DOUBLE_EQ(att(r, c), a(r, c));
}

TEST(VectorOps, DotAndNorm) {
  const Vector a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
}

TEST(VectorOps, Axpy) {
  const Vector x{1.0, 2.0};
  Vector y{10.0, 20.0};
  axpy(0.5, x, y);
  EXPECT_DOUBLE_EQ(y[0], 10.5);
  EXPECT_DOUBLE_EQ(y[1], 21.0);
}

TEST(VectorOps, MaxAbsDiff) {
  const Vector a{1.0, 5.0};
  const Vector b{1.5, 4.0};
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 1.0);
}

TEST(Cholesky, SolvesKnownSystem) {
  // A = [[4,2],[2,3]] is SPD; A x = b with b = (8, 7) has x = (1.4?, ...)
  const Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  const Cholesky chol(a);
  const Vector x = chol.solve({8.0, 7.0});
  EXPECT_NEAR(4.0 * x[0] + 2.0 * x[1], 8.0, 1e-12);
  EXPECT_NEAR(2.0 * x[0] + 3.0 * x[1], 7.0, 1e-12);
}

TEST(Cholesky, FactorReconstructsMatrix) {
  const Matrix a{{9.0, 3.0, 0.0}, {3.0, 5.0, 1.0}, {0.0, 1.0, 7.0}};
  const Cholesky chol(a);
  const Matrix l = chol.factor();
  const Matrix reconstructed = l * l.transposed();
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_NEAR(reconstructed(r, c), a(r, c), 1e-10);
}

TEST(Cholesky, JitterRescuesSemidefinite) {
  // Rank-1 matrix: factorization needs jitter but must not throw.
  const Matrix a{{1.0, 1.0}, {1.0, 1.0}};
  EXPECT_NO_THROW(Cholesky{a});
}

TEST(Cholesky, RejectsIndefinite) {
  const Matrix a{{1.0, 0.0}, {0.0, -5.0}};
  EXPECT_THROW(Cholesky{a}, dragster::Error);
}

TEST(Cholesky, NearSingularFactorsWithJitterAndSolves) {
  // Rank-2 3x3 (two identical rows): positive definite only through the
  // escalating jitter, and the jittered factor must still solve accurately
  // at the jitter's scale.
  const Matrix a{{1.0, 1.0, 0.0}, {1.0, 1.0, 0.0}, {0.0, 0.0, 2.0}};
  const Cholesky chol(a, 1e-8);
  const Vector x = chol.solve({2.0, 2.0, 2.0});
  for (double v : x) EXPECT_TRUE(std::isfinite(v));
  EXPECT_NEAR(x[0] + x[1], 2.0, 1e-4);
  EXPECT_NEAR(2.0 * x[2], 2.0, 1e-6);
}

TEST(Cholesky, IndefiniteErrorReportsFinalJitter) {
  // The exception must say how much jitter was tried so GP debugging does
  // not start from a bare "not positive definite".
  const Matrix a{{1.0, 0.0}, {0.0, -5.0}};
  try {
    const Cholesky chol(a);
    FAIL() << "expected dragster::Error";
  } catch (const dragster::Error& error) {
    EXPECT_NE(std::string(error.what()).find("jitter"), std::string::npos) << error.what();
  }
}

class CholeskyRandomSolve : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyRandomSolve, ResidualIsTiny) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 2 + static_cast<std::size_t>(GetParam()) % 9;
  Matrix b(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) b(r, c) = rng.normal();
  Matrix a = b * b.transposed();
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 1.0;

  Vector rhs(n);
  for (std::size_t i = 0; i < n; ++i) rhs[i] = rng.normal(0.0, 10.0);
  const Cholesky chol(a);
  const Vector x = chol.solve(rhs);
  const Vector back = a * x;
  EXPECT_LT(max_abs_diff(back, rhs), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(RandomSystems, CholeskyRandomSolve, ::testing::Range(1, 16));

}  // namespace
}  // namespace dragster::linalg
