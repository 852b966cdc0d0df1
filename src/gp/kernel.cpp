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

}  // namespace

Kernel::Kernel(Form form, double signal_variance, std::vector<double> lengthscales)
    : form_(form), signal_variance_(signal_variance), lengthscales_(std::move(lengthscales)) {
  DRAGSTER_REQUIRE(signal_variance_ > 0.0, "signal variance must be positive");
  DRAGSTER_REQUIRE(!lengthscales_.empty(), "kernel needs at least one dimension");
  for (double l : lengthscales_) DRAGSTER_REQUIRE(l > 0.0, "lengthscales must be positive");
}

double Kernel::operator()(std::span<const double> x, std::span<const double> y) const {
  const double sq_dist = scaled_sq_dist(x, y, lengthscales_);
  if (form_ == Form::kSquaredExponential) return signal_variance_ * std::exp(-0.5 * sq_dist);
  const double a = std::sqrt(5.0) * std::sqrt(sq_dist);
  return signal_variance_ * (1.0 + a + a * a / 3.0) * std::exp(-a);
}

}  // namespace dragster::gp
