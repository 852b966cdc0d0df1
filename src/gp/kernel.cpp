#include "gp/kernel.hpp"

#include <cmath>

#include "common/error.hpp"

namespace dragster::gp {
namespace {

double scaled_sq_dist(std::span<const double> x, std::span<const double> y,
                      const std::vector<double>& lengthscales) {
  DRAGSTER_REQUIRE(x.size() == lengthscales.size() && y.size() == lengthscales.size(),
                   "kernel input dimension mismatch");
  double sum = 0.0;
  for (std::size_t j = 0; j < x.size(); ++j) {
    const double d = (x[j] - y[j]) / lengthscales[j];
    sum += d * d;
  }
  return sum;
}

void validate(double signal_variance, const std::vector<double>& lengthscales) {
  DRAGSTER_REQUIRE(signal_variance > 0.0, "signal variance must be positive");
  DRAGSTER_REQUIRE(!lengthscales.empty(), "kernel needs at least one dimension");
  for (double l : lengthscales) DRAGSTER_REQUIRE(l > 0.0, "lengthscales must be positive");
}

}  // namespace

SquaredExponentialKernel::SquaredExponentialKernel(double signal_variance,
                                                   std::vector<double> lengthscales)
    : signal_variance_(signal_variance), lengthscales_(std::move(lengthscales)) {
  validate(signal_variance_, lengthscales_);
}

double SquaredExponentialKernel::operator()(std::span<const double> x,
                                            std::span<const double> y) const {
  return signal_variance_ * std::exp(-0.5 * scaled_sq_dist(x, y, lengthscales_));
}

std::unique_ptr<Kernel> SquaredExponentialKernel::clone() const {
  return std::make_unique<SquaredExponentialKernel>(*this);
}

Matern52Kernel::Matern52Kernel(double signal_variance, std::vector<double> lengthscales)
    : signal_variance_(signal_variance), lengthscales_(std::move(lengthscales)) {
  validate(signal_variance_, lengthscales_);
}

double Matern52Kernel::operator()(std::span<const double> x, std::span<const double> y) const {
  const double r = std::sqrt(scaled_sq_dist(x, y, lengthscales_));
  const double a = std::sqrt(5.0) * r;
  return signal_variance_ * (1.0 + a + a * a / 3.0) * std::exp(-a);
}

std::unique_ptr<Kernel> Matern52Kernel::clone() const {
  return std::make_unique<Matern52Kernel>(*this);
}

}  // namespace dragster::gp
