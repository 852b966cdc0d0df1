#include "dag/throughput_fn.hpp"

#include <utility>

#include "common/error.hpp"

namespace dragster::dag {
namespace {

std::vector<double> tanh_params(double scale, std::vector<double> weights) {
  weights.insert(weights.begin(), scale);
  return weights;
}

}  // namespace

ThroughputFn::ThroughputFn(Form form, std::vector<double> params)
    : form_(form),
      arity_(params.size() - (form == Form::kTanh ? 1 : 0)),
      params_(std::move(params)) {}

ThroughputFn::ThroughputFn(std::size_t arity, EvalFn eval, BackpropFn backprop)
    : form_(Form::kCustom), arity_(arity), eval_(std::move(eval)), backprop_(std::move(backprop)) {
  DRAGSTER_REQUIRE(arity_ > 0, "CustomFn arity must be positive");
  DRAGSTER_REQUIRE(eval_ != nullptr, "CustomFn needs an evaluator");
  DRAGSTER_REQUIRE(backprop_ != nullptr, "CustomFn needs a backprop callback");
}

void ThroughputFn::arity_mismatch() {
  raise_requirement_failure("inputs.size() == arity()", __FILE__, __LINE__,
                            "throughput function arity mismatch");
}

void ThroughputFn::backprop(std::span<const double> inputs, double adjoint,
                            std::span<double> input_adjoints) const {
  if (inputs.size() != arity_ || input_adjoints.size() != arity_) [[unlikely]]
    arity_mismatch();
  switch (form_) {
    case Form::kLinear:
      for (std::size_t i = 0; i < inputs.size(); ++i) input_adjoints[i] += adjoint * params_[i];
      return;
    case Form::kMinWeighted: {
      const std::size_t j = min_weighted_index(params_, inputs);
      input_adjoints[j] += adjoint * params_[j];
      return;
    }
    case Form::kTanh: {
      const double t = std::tanh(linear_eval(tanh_weights(), inputs));
      const double dot_adjoint = (adjoint * params_[0]) * (1.0 - t * t);
      for (std::size_t i = 0; i < inputs.size(); ++i)
        input_adjoints[i] += dot_adjoint * params_[i + 1];
      return;
    }
    case Form::kCustom:
      break;
  }
  backprop_(inputs, adjoint, input_adjoints);
}

LinearFn::LinearFn(std::vector<double> weights) : ThroughputFn(Form::kLinear, std::move(weights)) {
  DRAGSTER_REQUIRE(arity() > 0, "LinearFn needs at least one weight");
  for (double w : params()) DRAGSTER_REQUIRE(w >= 0.0, "LinearFn weights must be non-negative");
}

MinWeightedFn::MinWeightedFn(std::vector<double> weights)
    : ThroughputFn(Form::kMinWeighted, std::move(weights)) {
  DRAGSTER_REQUIRE(arity() > 0, "MinWeightedFn needs at least one weight");
  for (double w : params())
    DRAGSTER_REQUIRE(w >= 0.0, "MinWeightedFn weights must be non-negative");
}

TanhFn::TanhFn(double scale, std::vector<double> weights)
    : ThroughputFn(Form::kTanh, tanh_params(scale, std::move(weights))) {
  DRAGSTER_REQUIRE(scale > 0.0, "TanhFn scale must be positive");
  DRAGSTER_REQUIRE(arity() > 0, "TanhFn needs at least one weight");
  for (double w : params().subspan(1))
    DRAGSTER_REQUIRE(w >= 0.0, "TanhFn weights must be non-negative");
}

CustomFn::CustomFn(std::size_t arity, EvalFn eval, BackpropFn backprop)
    : ThroughputFn(arity, std::move(eval), std::move(backprop)) {}

ThroughputFn identity_fn() { return LinearFn({1.0}); }

ThroughputFn selectivity_fn(double selectivity) { return LinearFn({selectivity}); }

}  // namespace dragster::dag
