#include "gp/cholesky.hpp"

#include <cmath>
#include <cstdio>
#include <string>

#include "common/error.hpp"
#include "common/logging.hpp"

namespace dragster::gp {
namespace {

/// Escalation bound for the retry loop: jitter * 10^(kMaxJitterAttempts-1)
/// is the largest diagonal boost tried before giving up.
constexpr int kMaxJitterAttempts = 12;

std::string format_jitter(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

// In-place lower-triangular factorization of the n x n row-major `l`;
// returns false on a non-positive pivot so the caller can retry with jitter.
bool try_factor(std::vector<double>& l, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    double diag = l[j * n + j];
    for (std::size_t k = 0; k < j; ++k) diag -= l[j * n + k] * l[j * n + k];
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    l[j * n + j] = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double value = l[i * n + j];
      for (std::size_t k = 0; k < j; ++k) value -= l[i * n + k] * l[j * n + k];
      l[i * n + j] = value / ljj;
    }
    for (std::size_t c = j + 1; c < n; ++c) l[j * n + c] = 0.0;
  }
  return true;
}

}  // namespace

Cholesky::Cholesky(const std::vector<double>& a, std::size_t n, double jitter) : n_(n) {
  DRAGSTER_REQUIRE(a.size() == n * n, "Cholesky requires a square matrix");
  double added = 0.0;
  for (int attempt = 0; attempt < kMaxJitterAttempts; ++attempt) {
    l_ = a;
    if (added > 0.0)
      for (std::size_t i = 0; i < n_; ++i) l_[i * n_ + i] += added;
    if (try_factor(l_, n_)) {
      if (added > 0.0)
        common::warn("Cholesky: matrix needed diagonal jitter " + format_jitter(added) +
                     " to factor (near-singular kernel matrix?)");
      return;
    }
    added = attempt == 0 ? jitter : added * 10.0;
  }
  // `added` overshot by one escalation when the loop exited; report the
  // largest value actually tried.
  throw dragster::Error("Cholesky: matrix is not positive definite even with jitter " +
                        format_jitter(added / 10.0));
}

std::vector<double> Cholesky::solve_lower(const std::vector<double>& b) const {
  DRAGSTER_REQUIRE(b.size() == n_, "size mismatch in Cholesky::solve_lower");
  std::vector<double> z(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    double value = b[i];
    for (std::size_t k = 0; k < i; ++k) value -= l_[i * n_ + k] * z[k];
    z[i] = value / l_[i * n_ + i];
  }
  return z;
}

std::vector<double> Cholesky::solve(const std::vector<double>& b) const {
  const std::vector<double> z = solve_lower(b);
  std::vector<double> x(n_);
  for (std::size_t ii = n_; ii-- > 0;) {
    double value = z[ii];
    for (std::size_t k = ii + 1; k < n_; ++k) value -= l_[k * n_ + ii] * x[k];
    x[ii] = value / l_[ii * n_ + ii];
  }
  return x;
}

}  // namespace dragster::gp
