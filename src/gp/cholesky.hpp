// Cholesky factorization of a symmetric positive-definite matrix.
//
// The GP posterior (paper eq. 17) solves (K + sigma^2 D)^{-1} against kernel
// vectors; Cholesky is the numerically sound way to do that for SPD kernels.
// The GP refactors its m x m table matrix (m <= |X|) after every
// observation.  Matrices are n x n, row-major in a std::vector<double>.
#pragma once

#include <cstddef>
#include <vector>

namespace dragster::gp {

class Cholesky {
 public:
  /// Factors the SPD n x n matrix `a` as L L^T.  If `a` is near-singular, a
  /// jitter of escalating magnitude (starting at `jitter`) is added to the
  /// diagonal; throws dragster::Error if factorization still fails after
  /// escalation.
  Cholesky(const std::vector<double>& a, std::size_t n, double jitter = 1e-10);

  /// Solves A x = b.
  [[nodiscard]] std::vector<double> solve(const std::vector<double>& b) const;

  /// Solves L z = b (forward substitution).
  [[nodiscard]] std::vector<double> solve_lower(const std::vector<double>& b) const;

  /// L, n x n row-major; the upper triangle is zero.
  [[nodiscard]] const std::vector<double>& factor() const noexcept { return l_; }

 private:
  std::size_t n_;
  std::vector<double> l_;
};

}  // namespace dragster::gp
