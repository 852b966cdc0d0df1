// Dense row-major matrix / vector algebra.
//
// This is the minimal linear-algebra substrate the Gaussian process needs:
// dense symmetric kernels of a few hundred observations.  We therefore keep
// the implementation simple, cache-friendly (row-major, contiguous) and
// fully checked rather than pulling in an external BLAS.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace dragster::linalg {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Row-wise construction from nested initializer lists (tests/fixtures).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  double& operator()(std::size_t r, std::size_t c) noexcept { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const noexcept { return data_[r * cols_ + c]; }

  [[nodiscard]] std::span<double> row(std::size_t r) noexcept;
  [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept;

  [[nodiscard]] Matrix transposed() const;

  Matrix& operator+=(const Matrix& other);
  Matrix& operator*=(double scalar);

  [[nodiscard]] bool same_shape(const Matrix& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

[[nodiscard]] Matrix operator*(const Matrix& a, const Matrix& b);
[[nodiscard]] Vector operator*(const Matrix& a, const Vector& x);

/// Inner product; spans must match in size.
[[nodiscard]] double dot(std::span<const double> a, std::span<const double> b);

/// Euclidean norm.
[[nodiscard]] double norm2(std::span<const double> a);

/// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// Max |a_i - b_i|; spans must match in size.
[[nodiscard]] double max_abs_diff(std::span<const double> a, std::span<const double> b);

}  // namespace dragster::linalg
