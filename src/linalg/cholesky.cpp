#include "linalg/cholesky.hpp"

#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace dragster::linalg {
namespace {

/// Escalation bound for the retry loop: jitter * 10^(kMaxJitterAttempts-1)
/// is the largest diagonal boost tried before giving up.
constexpr int kMaxJitterAttempts = 12;

std::string format_jitter(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

// In-place lower-triangular factorization; returns false on a non-positive
// pivot so the caller can retry with jitter.
bool try_factor(Matrix& l) {
  const std::size_t n = l.rows();
  for (std::size_t j = 0; j < n; ++j) {
    double diag = l(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double value = l(i, j);
      for (std::size_t k = 0; k < j; ++k) value -= l(i, k) * l(j, k);
      l(i, j) = value / ljj;
    }
    for (std::size_t c = j + 1; c < n; ++c) l(j, c) = 0.0;
  }
  return true;
}

}  // namespace

Cholesky::Cholesky(const Matrix& a, double jitter) {
  DRAGSTER_REQUIRE(a.rows() == a.cols(), "Cholesky requires a square matrix");
  double added = 0.0;
  for (int attempt = 0; attempt < kMaxJitterAttempts; ++attempt) {
    l_ = a;
    if (added > 0.0)
      for (std::size_t i = 0; i < l_.rows(); ++i) l_(i, i) += added;
    if (try_factor(l_)) {
      if (added > 0.0)
        DRAGSTER_LOG(kWarn) << "Cholesky: matrix needed diagonal jitter " << format_jitter(added)
                            << " to factor (near-singular kernel matrix?)";
      return;
    }
    added = attempt == 0 ? jitter : added * 10.0;
  }
  // `added` overshot by one escalation when the loop exited; report the
  // largest value actually tried.
  throw dragster::Error("Cholesky: matrix is not positive definite even with jitter " +
                        format_jitter(added / 10.0));
}

Vector Cholesky::solve_lower(const Vector& b) const {
  DRAGSTER_REQUIRE(b.size() == l_.rows(), "size mismatch in Cholesky::solve_lower");
  const std::size_t n = l_.rows();
  Vector z(n);
  for (std::size_t i = 0; i < n; ++i) {
    double value = b[i];
    for (std::size_t k = 0; k < i; ++k) value -= l_(i, k) * z[k];
    z[i] = value / l_(i, i);
  }
  return z;
}

Vector Cholesky::solve(const Vector& b) const {
  Vector z = solve_lower(b);
  const std::size_t n = l_.rows();
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double value = z[ii];
    for (std::size_t k = ii + 1; k < n; ++k) value -= l_(k, ii) * x[k];
    x[ii] = value / l_(ii, ii);
  }
  return x;
}

}  // namespace dragster::linalg
