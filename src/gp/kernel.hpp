// Covariance kernels for the Gaussian-process capacity model.
//
// The paper adopts the squared-exponential kernel (its regret bound uses
// Gamma_T = O((log T)^{d+1}) which is specific to SE); Matern-5/2 is provided
// as a drop-in alternative for the sensitivity ablation.
#pragma once

#include <memory>
#include <span>
#include <vector>

namespace dragster::gp {

class Kernel {
 public:
  virtual ~Kernel() = default;

  /// k(x, x'); inputs must match the kernel dimension.
  [[nodiscard]] virtual double operator()(std::span<const double> x,
                                          std::span<const double> y) const = 0;

  /// Input dimensionality d.
  [[nodiscard]] virtual std::size_t dimension() const noexcept = 0;

  /// Prior variance k(x, x) — constant for stationary kernels.
  [[nodiscard]] virtual double prior_variance() const noexcept = 0;

  [[nodiscard]] virtual std::unique_ptr<Kernel> clone() const = 0;
};

/// k(x,x') = s^2 exp(-1/2 sum_j ((x_j-x'_j)/l_j)^2) with per-dimension (ARD)
/// lengthscales.
class SquaredExponentialKernel final : public Kernel {
 public:
  SquaredExponentialKernel(double signal_variance, std::vector<double> lengthscales);

  [[nodiscard]] double operator()(std::span<const double> x,
                                  std::span<const double> y) const override;
  [[nodiscard]] std::size_t dimension() const noexcept override { return lengthscales_.size(); }
  [[nodiscard]] double prior_variance() const noexcept override { return signal_variance_; }
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override;

  [[nodiscard]] const std::vector<double>& lengthscales() const noexcept { return lengthscales_; }

 private:
  double signal_variance_;
  std::vector<double> lengthscales_;
};

/// Matern-5/2 with ARD lengthscales.
class Matern52Kernel final : public Kernel {
 public:
  Matern52Kernel(double signal_variance, std::vector<double> lengthscales);

  [[nodiscard]] double operator()(std::span<const double> x,
                                  std::span<const double> y) const override;
  [[nodiscard]] std::size_t dimension() const noexcept override { return lengthscales_.size(); }
  [[nodiscard]] double prior_variance() const noexcept override { return signal_variance_; }
  [[nodiscard]] std::unique_ptr<Kernel> clone() const override;

 private:
  double signal_variance_;
  std::vector<double> lengthscales_;
};

}  // namespace dragster::gp
