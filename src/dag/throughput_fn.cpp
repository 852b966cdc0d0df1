#include "dag/throughput_fn.hpp"

#include <cmath>

#include "common/error.hpp"

namespace dragster::dag {
namespace {

void check_arity(std::size_t expected, std::size_t actual) {
  DRAGSTER_REQUIRE(expected == actual, "throughput function arity mismatch");
}

}  // namespace

LinearFn::LinearFn(std::vector<double> weights) : weights_(std::move(weights)) {
  DRAGSTER_REQUIRE(!weights_.empty(), "LinearFn needs at least one weight");
  for (double w : weights_) DRAGSTER_REQUIRE(w >= 0.0, "LinearFn weights must be non-negative");
}

double LinearFn::eval(std::span<const double> inputs) const {
  check_arity(weights_.size(), inputs.size());
  return linear_eval(weights_, inputs);
}

void LinearFn::backprop(std::span<const double> inputs, double adjoint,
                        std::span<double> input_adjoints) const {
  check_arity(weights_.size(), inputs.size());
  check_arity(weights_.size(), input_adjoints.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) input_adjoints[i] += adjoint * weights_[i];
}

std::unique_ptr<ThroughputFn> LinearFn::clone() const { return std::make_unique<LinearFn>(*this); }

MinWeightedFn::MinWeightedFn(std::vector<double> weights) : weights_(std::move(weights)) {
  DRAGSTER_REQUIRE(!weights_.empty(), "MinWeightedFn needs at least one weight");
  for (double w : weights_)
    DRAGSTER_REQUIRE(w >= 0.0, "MinWeightedFn weights must be non-negative");
}

double MinWeightedFn::eval(std::span<const double> inputs) const {
  check_arity(weights_.size(), inputs.size());
  return min_weighted_eval(weights_, inputs);
}

void MinWeightedFn::backprop(std::span<const double> inputs, double adjoint,
                             std::span<double> input_adjoints) const {
  check_arity(weights_.size(), inputs.size());
  check_arity(weights_.size(), input_adjoints.size());
  const std::size_t j = min_weighted_index(weights_, inputs);
  input_adjoints[j] += adjoint * weights_[j];
}

std::unique_ptr<ThroughputFn> MinWeightedFn::clone() const {
  return std::make_unique<MinWeightedFn>(*this);
}

TanhFn::TanhFn(double scale, std::vector<double> weights) {
  DRAGSTER_REQUIRE(scale > 0.0, "TanhFn scale must be positive");
  DRAGSTER_REQUIRE(!weights.empty(), "TanhFn needs at least one weight");
  params_.reserve(weights.size() + 1);
  params_.push_back(scale);
  for (double w : weights) {
    DRAGSTER_REQUIRE(w >= 0.0, "TanhFn weights must be non-negative");
    params_.push_back(w);
  }
}

double TanhFn::dot(std::span<const double> inputs) const {
  check_arity(arity(), inputs.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) sum += params_[i + 1] * inputs[i];
  return sum;
}

double TanhFn::eval(std::span<const double> inputs) const {
  return params_[0] * std::tanh(dot(inputs));
}

void TanhFn::backprop(std::span<const double> inputs, double adjoint,
                      std::span<double> input_adjoints) const {
  check_arity(arity(), input_adjoints.size());
  const double t = std::tanh(dot(inputs));
  const double dot_adjoint = (adjoint * params_[0]) * (1.0 - t * t);
  for (std::size_t i = 0; i < inputs.size(); ++i) input_adjoints[i] += dot_adjoint * params_[i + 1];
}

std::unique_ptr<ThroughputFn> TanhFn::clone() const { return std::make_unique<TanhFn>(*this); }

CustomFn::CustomFn(std::size_t arity, EvalFn eval, BackpropFn backprop, std::string label)
    : arity_(arity),
      eval_(std::move(eval)),
      backprop_(std::move(backprop)),
      label_(std::move(label)) {
  DRAGSTER_REQUIRE(arity_ > 0, "CustomFn arity must be positive");
  DRAGSTER_REQUIRE(eval_ != nullptr, "CustomFn needs an evaluator");
  DRAGSTER_REQUIRE(backprop_ != nullptr, "CustomFn needs a backprop callback");
}

double CustomFn::eval(std::span<const double> inputs) const {
  check_arity(arity_, inputs.size());
  return eval_(inputs);
}

void CustomFn::backprop(std::span<const double> inputs, double adjoint,
                        std::span<double> input_adjoints) const {
  check_arity(arity_, inputs.size());
  check_arity(arity_, input_adjoints.size());
  backprop_(inputs, adjoint, input_adjoints);
}

std::unique_ptr<ThroughputFn> CustomFn::clone() const { return std::make_unique<CustomFn>(*this); }

std::unique_ptr<ThroughputFn> identity_fn() { return std::make_unique<LinearFn>(std::vector{1.0}); }

std::unique_ptr<ThroughputFn> selectivity_fn(double selectivity) {
  return std::make_unique<LinearFn>(std::vector{selectivity});
}

}  // namespace dragster::dag
