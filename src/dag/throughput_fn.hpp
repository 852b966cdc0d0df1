// Edge throughput functions h_{i,j} (paper eq. 2a-2c, eq. 3).
//
// h_{i,j} maps the throughput vector *received by operator i* to the demand
// operator i would emit toward successor j if capacity were unlimited.  All
// built-in forms are increasing and concave in each input, which is what the
// paper's convexity argument for f_t(y) requires.  Each form evaluates its
// demand and back-propagates an adjoint through it, which is all the reverse
// sweep in FlowSolver::lagrangian needs for dL/dy.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace dragster::dag {

class ThroughputFn {
 public:
  virtual ~ThroughputFn() = default;

  /// Demand toward the successor given the inputs received by the operator.
  [[nodiscard]] virtual double eval(std::span<const double> inputs) const = 0;

  /// Adds `adjoint * d eval / d inputs[i]` to `input_adjoints[i]` (a
  /// subgradient at kinks).  Both spans have the function's arity.
  virtual void backprop(std::span<const double> inputs, double adjoint,
                        std::span<double> input_adjoints) const = 0;

  /// Number of inputs this function consumes (the operator's in-degree).
  [[nodiscard]] virtual std::size_t arity() const noexcept = 0;

  /// Mutable parameter view for online learning (Theorem 2); empty when the
  /// form has no learnable parameters.
  [[nodiscard]] virtual std::span<double> params() noexcept { return {}; }
  [[nodiscard]] virtual std::span<const double> params() const noexcept { return {}; }

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::unique_ptr<ThroughputFn> clone() const = 0;
};

/// Paper eq. (2a) arithmetic: k . e summed in index order.  `weights` has at
/// least `inputs.size()` entries.  LinearFn::eval and the simulator's step
/// plan both evaluate through here.
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

/// Paper eq. (2b): min_j (k_j * e_j), shared like linear_eval.
[[nodiscard]] inline double min_weighted_eval(std::span<const double> weights,
                                              std::span<const double> inputs) noexcept {
  const std::size_t j = min_weighted_index(weights, inputs);
  return weights[j] * inputs[j];
}

/// Paper eq. (2a):  h(e) = k . e   (inner product).
class LinearFn final : public ThroughputFn {
 public:
  explicit LinearFn(std::vector<double> weights);

  [[nodiscard]] double eval(std::span<const double> inputs) const override;
  void backprop(std::span<const double> inputs, double adjoint,
                std::span<double> input_adjoints) const override;
  [[nodiscard]] std::size_t arity() const noexcept override { return weights_.size(); }
  [[nodiscard]] std::span<double> params() noexcept override { return weights_; }
  [[nodiscard]] std::span<const double> params() const noexcept override { return weights_; }
  [[nodiscard]] std::string name() const override { return "linear"; }
  [[nodiscard]] std::unique_ptr<ThroughputFn> clone() const override;

 private:
  std::vector<double> weights_;
};

/// Paper eq. (2b):  h(e) = min_j (k_j * e_j)  — bottleneck predecessor.
/// On a tie the first index is the active one.
class MinWeightedFn final : public ThroughputFn {
 public:
  explicit MinWeightedFn(std::vector<double> weights);

  [[nodiscard]] double eval(std::span<const double> inputs) const override;
  void backprop(std::span<const double> inputs, double adjoint,
                std::span<double> input_adjoints) const override;
  [[nodiscard]] std::size_t arity() const noexcept override { return weights_.size(); }
  [[nodiscard]] std::span<double> params() noexcept override { return weights_; }
  [[nodiscard]] std::span<const double> params() const noexcept override { return weights_; }
  [[nodiscard]] std::string name() const override { return "min_weighted"; }
  [[nodiscard]] std::unique_ptr<ThroughputFn> clone() const override;

 private:
  std::vector<double> weights_;
};

/// Paper eq. (2c):  h(e) = k1 * tanh(k . e) — saturating concave form.
/// Parameters are laid out as [k1, k_0, ..., k_{n-1}].
class TanhFn final : public ThroughputFn {
 public:
  TanhFn(double scale, std::vector<double> weights);

  [[nodiscard]] double eval(std::span<const double> inputs) const override;
  void backprop(std::span<const double> inputs, double adjoint,
                std::span<double> input_adjoints) const override;
  [[nodiscard]] std::size_t arity() const noexcept override { return params_.size() - 1; }
  [[nodiscard]] std::span<double> params() noexcept override { return params_; }
  [[nodiscard]] std::span<const double> params() const noexcept override { return params_; }
  [[nodiscard]] std::string name() const override { return "tanh"; }
  [[nodiscard]] std::unique_ptr<ThroughputFn> clone() const override;

 private:
  [[nodiscard]] double dot(std::span<const double> inputs) const;

  std::vector<double> params_;  // [scale, weights...]
};

/// User-supplied concave form (paper: "the developer could ... exactly
/// provide its throughput function").  Requires an evaluator and a matching
/// backprop callback (same contract as ThroughputFn::backprop) so gradients
/// stay exact.
class CustomFn final : public ThroughputFn {
 public:
  using EvalFn = std::function<double(std::span<const double>)>;
  using BackpropFn = std::function<void(std::span<const double>, double, std::span<double>)>;

  CustomFn(std::size_t arity, EvalFn eval, BackpropFn backprop, std::string label = "custom");

  [[nodiscard]] double eval(std::span<const double> inputs) const override;
  void backprop(std::span<const double> inputs, double adjoint,
                std::span<double> input_adjoints) const override;
  [[nodiscard]] std::size_t arity() const noexcept override { return arity_; }
  [[nodiscard]] std::string name() const override { return label_; }
  [[nodiscard]] std::unique_ptr<ThroughputFn> clone() const override;

 private:
  std::size_t arity_;
  EvalFn eval_;
  BackpropFn backprop_;
  std::string label_;
};

/// Convenience: identity pass-through for single-input operators
/// (selectivity 1.0) — a LinearFn with weight 1.
[[nodiscard]] std::unique_ptr<ThroughputFn> identity_fn();

/// LinearFn with a single weight (per-tuple selectivity).
[[nodiscard]] std::unique_ptr<ThroughputFn> selectivity_fn(double selectivity);

}  // namespace dragster::dag
