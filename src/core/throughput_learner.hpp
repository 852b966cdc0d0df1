// Online learning of the throughput-function parameters (paper Theorem 2).
//
// When the developer does not supply exact h_{i,j}, Dragster starts from a
// parameterized form and fits its parameters from the observed per-edge
// flows.  Theorem 2 shows the regret order is preserved as long as the
// prediction error shrinks as o(1/sqrt(T)); recursive least squares on the
// (linear-in-parameters) built-in forms achieves the required rate under
// persistent excitation.
//
// LinearFn/MinWeightedFn: h = k . e is linear in k -> RLS directly.
// TanhFn: h = k1 tanh(k . e); we fit via normalized gradient steps.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dag/stream_dag.hpp"
#include "resilience/snapshot.hpp"

namespace dragster::core {

/// Recursive-least-squares estimator for y = w . x with forgetting.
class RlsEstimator {
 public:
  /// `dim` parameters, `forgetting` in (0, 1]; 1 = ordinary RLS.
  explicit RlsEstimator(std::size_t dim, double forgetting = 0.995,
                        double initial_covariance = 1e4);

  void observe(std::span<const double> x, double y);

  [[nodiscard]] const std::vector<double>& weights() const noexcept { return w_; }
  [[nodiscard]] double predict(std::span<const double> x) const;
  [[nodiscard]] std::size_t observations() const noexcept { return count_; }

  /// Snapshot hooks: weights, covariance, and count under `prefix` keys.
  void save_state(resilience::SnapshotWriter& writer, const std::string& prefix) const;
  void load_state(const resilience::SnapshotReader& reader, const std::string& prefix);

 private:
  std::vector<double> w_;
  std::vector<std::vector<double>> p_;  // covariance
  double forgetting_;
  std::size_t count_ = 0;
};

/// Fits every learnable edge function of a DAG from per-edge flow
/// observations.  Call observe() once per slot with the report's averaged
/// edge rates; apply() writes the fitted parameters back into the DAG copy
/// the controller plans with.
class ThroughputLearner {
 public:
  /// `dag` must be validated; the learner keeps per-edge estimators for all
  /// operator edges of a built-in form (a custom form has no parameters).
  explicit ThroughputLearner(const dag::StreamDag& dag, double forgetting = 0.995);

  /// `edge_rate` is the edge-indexed average realized flow of one slot.
  /// Truncated edges (where capacity, not h, set the flow) must be excluded
  /// by passing `saturated[node] = true` for capacity-bound operators.
  void observe(const dag::StreamDag& dag, std::span<const double> edge_rate,
               std::span<const bool> saturated);

  /// Writes fitted parameters into `dag` (same topology as construction).
  void apply(dag::StreamDag& dag) const;

  /// Worst-case relative parameter movement in the last observe() —
  /// convergence diagnostic used by tests and the Theorem 2 bench.
  [[nodiscard]] double last_update_delta() const noexcept { return last_delta_; }

  [[nodiscard]] std::size_t learnable_edges() const noexcept { return state_.size(); }

  /// Snapshot hooks: every estimator's weights/covariances into the writer's
  /// current section (keys prefixed `tl_`).  The learner must have been
  /// constructed from an identically shaped DAG before load_state(), which
  /// either restores every edge or throws and leaves the learner unchanged.
  void save_state(resilience::SnapshotWriter& writer) const;
  void load_state(const resilience::SnapshotReader& reader);

 private:
  struct EdgeState {
    std::size_t edge_index = 0;
    dag::ThroughputFn::Form kind = dag::ThroughputFn::Form::kLinear;
    std::optional<RlsEstimator> rls;       ///< linear form
    std::vector<RlsEstimator> branch;      ///< min_weighted: scalar per input
    std::vector<double> branch_weights;    ///< min_weighted current estimates
    std::vector<double> tanh_params;       ///< tanh: [k1, w...]
  };

  std::vector<EdgeState> state_;
  double last_delta_ = 0.0;
};

}  // namespace dragster::core
