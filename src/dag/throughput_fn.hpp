// Edge throughput functions h_{i,j} (paper eq. 2a-2c, eq. 3).
//
// h_{i,j} maps the throughput vector *received by operator i* to the demand
// operator i would emit toward successor j if capacity were unlimited.  All
// built-in forms are increasing and concave in each input, which is what the
// paper's convexity argument for f_t(y) requires.  Each form evaluates its
// demand and back-propagates an adjoint through it, which is all the reverse
// sweep in FlowSolver::lagrangian needs for dL/dy.
//
// The paper's set of forms is closed, so ThroughputFn is one value type: a
// form tag, the form's parameters and arity, and for a custom form its two
// callbacks.  LinearFn, MinWeightedFn, TanhFn and CustomFn only construct
// one, and a DAG edge stores the ThroughputFn itself.  The simulator's step
// plan, FlowSolver and the controller evaluate through the one inline
// eval(); the throughput learner reads the tag through form().
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace dragster::dag {

/// Paper eq. (2a) arithmetic: k . e summed in index order.  `weights` has at
/// least `inputs.size()` entries.
[[nodiscard]] inline double linear_eval(std::span<const double> weights,
                                        std::span<const double> inputs) noexcept {
  double sum = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) sum += weights[i] * inputs[i];
  return sum;
}

/// Paper eq. (2b): the index j minimizing k_j * e_j; on a tie the first index
/// is the active one.  `inputs` is non-empty.
[[nodiscard]] inline std::size_t min_weighted_index(std::span<const double> weights,
                                                    std::span<const double> inputs) noexcept {
  std::size_t active = 0;
  double best = weights[0] * inputs[0];
  for (std::size_t i = 1; i < inputs.size(); ++i) {
    const double candidate = weights[i] * inputs[i];
    if (candidate < best) {  // strict: a tie keeps the earlier index
      best = candidate;
      active = i;
    }
  }
  return active;
}

class ThroughputFn {
 public:
  /// The snapshot of the throughput learner stores these values.
  enum class Form : std::uint8_t { kLinear, kMinWeighted, kTanh, kCustom };
  using EvalFn = std::function<double(std::span<const double>)>;
  using BackpropFn = std::function<void(std::span<const double>, double, std::span<double>)>;

  /// Demand toward the successor given the inputs received by the operator.
  [[nodiscard]] double eval(std::span<const double> inputs) const {
    if (inputs.size() != arity_) [[unlikely]] arity_mismatch();
    switch (form_) {
      case Form::kLinear:
        return linear_eval(params_, inputs);
      case Form::kMinWeighted: {
        const std::size_t j = min_weighted_index(params_, inputs);
        return params_[j] * inputs[j];
      }
      case Form::kTanh:
        return params_[0] * std::tanh(linear_eval(tanh_weights(), inputs));
      case Form::kCustom:
        break;
    }
    return eval_(inputs);
  }

  /// Adds `adjoint * d eval / d inputs[i]` to `input_adjoints[i]` (a
  /// subgradient at kinks).  Both spans have the function's arity.
  void backprop(std::span<const double> inputs, double adjoint,
                std::span<double> input_adjoints) const;

  [[nodiscard]] Form form() const noexcept { return form_; }

  /// Number of inputs this function consumes (the operator's in-degree).
  [[nodiscard]] std::size_t arity() const noexcept { return arity_; }

  /// Mutable parameter view for online learning (Theorem 2): the weights,
  /// led by the scale for Tanh; empty for a custom form.
  [[nodiscard]] std::span<double> params() noexcept { return params_; }
  [[nodiscard]] std::span<const double> params() const noexcept { return params_; }

 protected:
  /// A built-in form over `params` (Tanh: [scale, weights...]).
  ThroughputFn(Form form, std::vector<double> params);
  /// A custom form; both callbacks must be set.
  ThroughputFn(std::size_t arity, EvalFn eval, BackpropFn backprop);

 private:
  [[noreturn]] static void arity_mismatch();
  [[nodiscard]] std::span<const double> tanh_weights() const noexcept {
    return std::span<const double>(params_).subspan(1);
  }

  Form form_;
  std::size_t arity_;
  std::vector<double> params_;
  EvalFn eval_;          ///< custom form only
  BackpropFn backprop_;  ///< custom form only
};

/// Paper eq. (2a):  h(e) = k . e   (inner product).
class LinearFn final : public ThroughputFn {
 public:
  explicit LinearFn(std::vector<double> weights);
};

/// Paper eq. (2b):  h(e) = min_j (k_j * e_j)  — bottleneck predecessor.
/// On a tie the first index is the active one.
class MinWeightedFn final : public ThroughputFn {
 public:
  explicit MinWeightedFn(std::vector<double> weights);
};

/// Paper eq. (2c):  h(e) = k1 * tanh(k . e) — saturating concave form.
/// Parameters are laid out as [k1, k_0, ..., k_{n-1}].
class TanhFn final : public ThroughputFn {
 public:
  TanhFn(double scale, std::vector<double> weights);
};

/// User-supplied concave form (paper: "the developer could ... exactly
/// provide its throughput function").  Requires an evaluator and a matching
/// backprop callback (same contract as ThroughputFn::backprop) so gradients
/// stay exact.
class CustomFn final : public ThroughputFn {
 public:
  CustomFn(std::size_t arity, EvalFn eval, BackpropFn backprop);
};

/// Convenience: identity pass-through for single-input operators
/// (selectivity 1.0) — a LinearFn with weight 1.
[[nodiscard]] ThroughputFn identity_fn();

/// LinearFn with a single weight (per-tuple selectivity).
[[nodiscard]] ThroughputFn selectivity_fn(double selectivity);

}  // namespace dragster::dag
