// Covariance kernels for the Gaussian-process capacity model.
//
// The paper adopts the squared-exponential kernel (its regret bound uses
// Gamma_T = O((log T)^{d+1}) which is specific to SE); Matern-5/2 is provided
// as a drop-in alternative for the sensitivity ablation.  The pair is closed,
// so Kernel is one value type that carries its form; the two named subclasses
// only pick the form and add no state, so a Kernel copy of either keeps it.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace dragster::gp {

class Kernel {
 public:
  /// k(x, x'); inputs must match the kernel dimension.
  [[nodiscard]] double operator()(std::span<const double> x, std::span<const double> y) const;

  /// Input dimensionality d.
  [[nodiscard]] std::size_t dimension() const noexcept { return lengthscales_.size(); }

  /// Prior variance k(x, x) — constant for stationary kernels.
  [[nodiscard]] double prior_variance() const noexcept { return signal_variance_; }

 protected:
  enum class Form { kSquaredExponential, kMatern52 };

  Kernel(Form form, double signal_variance, std::vector<double> lengthscales);

 private:
  Form form_;
  double signal_variance_;
  std::vector<double> lengthscales_;
};

/// k(x,x') = s^2 exp(-1/2 sum_j ((x_j-x'_j)/l_j)^2) with per-dimension (ARD)
/// lengthscales.
class SquaredExponentialKernel final : public Kernel {
 public:
  SquaredExponentialKernel(double signal_variance, std::vector<double> lengthscales)
      : Kernel(Form::kSquaredExponential, signal_variance, std::move(lengthscales)) {}
};

/// Matern-5/2 with ARD lengthscales.
class Matern52Kernel final : public Kernel {
 public:
  Matern52Kernel(double signal_variance, std::vector<double> lengthscales)
      : Kernel(Form::kMatern52, signal_variance, std::move(lengthscales)) {}
};

}  // namespace dragster::gp
