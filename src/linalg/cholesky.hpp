// Cholesky factorization of a symmetric positive-definite matrix.
//
// The GP posterior (paper eq. 17) solves (K + sigma^2 D)^{-1} against kernel
// vectors; Cholesky is the numerically sound way to do that for SPD kernels.
// The GP refactors its m x m table matrix (m <= |X|) after every
// observation.
#pragma once

#include "linalg/matrix.hpp"

namespace dragster::linalg {

class Cholesky {
 public:
  /// Factors the SPD matrix `a` as L L^T.  If `a` is near-singular, a jitter
  /// of escalating magnitude (starting at `jitter`) is added to the diagonal;
  /// throws dragster::Error if factorization still fails after escalation.
  explicit Cholesky(const Matrix& a, double jitter = 1e-10);

  /// Solves A x = b.
  [[nodiscard]] Vector solve(const Vector& b) const;

  /// Solves L z = b (forward substitution).
  [[nodiscard]] Vector solve_lower(const Vector& b) const;

  [[nodiscard]] std::size_t size() const noexcept { return l_.rows(); }
  [[nodiscard]] const Matrix& factor() const noexcept { return l_; }

 private:
  Matrix l_;
};

}  // namespace dragster::linalg
