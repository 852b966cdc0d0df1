// Steady-state flow propagation through the stream DAG (paper eq. 4) and
// the per-slot Lagrangian (eq. 13) with its gradient in y.
//
// This is the *analytic* model the controller plans with; the streamsim
// module adds buffers, noise and time.  Flows are computed in topological
// order: each operator's demand toward successor j is h_{i,j}(inputs) and
// the realized flow is min(alpha_{i,j} * y_i, demand); a source's flow is its
// demand (sources are not capacity-limited).
#pragma once

#include <span>
#include <vector>

#include "dag/stream_dag.hpp"

namespace dragster::dag {

struct FlowResult {
  std::vector<double> edge_flow;    ///< realized e_j^i per edge index
  std::vector<double> node_inflow;  ///< total received throughput per node
  std::vector<double> node_demand;  ///< sum_j h_{i,j}(inputs) per node (pre-truncation)
  std::vector<double> node_outflow; ///< total emitted throughput per node
  double app_throughput = 0.0;      ///< inflow at the sink = f_t(y)
  std::vector<double> inputs;       ///< scratch: in-edge flows of the node being solved
};

struct LagrangianResult {
  double value = 0.0;               ///< L_t(y, lambda) (paper eq. 13)
  double throughput = 0.0;          ///< f_t(y) term
  std::vector<double> dvalue_dy;    ///< dL/dy_i per node id (zero off operators)
};

class FlowSolver {
 public:
  /// The DAG must be validated and must outlive the solver.
  explicit FlowSolver(const StreamDag& dag);

  /// `source_rates` and `capacity` are node-indexed (size node_count);
  /// only source entries of `source_rates` and operator entries of
  /// `capacity` are read.  Infinite capacity is expressed with
  /// std::numeric_limits<double>::infinity().
  [[nodiscard]] FlowResult solve(std::span<const double> source_rates,
                                 std::span<const double> capacity) const;

  /// Solves into a caller-owned `result`, recomputing only the nodes at
  /// topological positions >= `from` and reading the entries of earlier
  /// nodes as they are.  Precondition for `from` > 0: `result` holds a
  /// solve of this DAG for the same `source_rates` and the same capacities
  /// of the nodes before `from` (nothing upstream of a node sits after it,
  /// so those entries cannot change).  `from` = 0 is a full solve into any
  /// `result`.  Allocation-free once `result` is sized for this DAG.
  void solve(std::span<const double> source_rates, std::span<const double> capacity,
             FlowResult& result, std::size_t from = 0) const;

  /// f_t(y): the sink inflow of a full solve.
  [[nodiscard]] double app_throughput(std::span<const double> source_rates,
                                      std::span<const double> capacity) const;

  /// L's value, f - sum_i lambda_i * max(0, observed_demand_i - y_i) with
  /// y = `capacity`, for the throughput f of a solve at that y; the hinge
  /// terms are subtracted in ascending operator id.  The one formula for
  /// L: lagrangian() and the saddle-point probes both call it.  A non-empty
  /// `hinge_slope` (node-indexed) receives lambda_i at every active hinge,
  /// that term's share of dL/dy_i; other entries are left as they are.
  [[nodiscard]] double lagrangian_value(double throughput, std::span<const double> capacity,
                                        std::span<const double> lambda,
                                        std::span<const double> observed_demand,
                                        std::span<double> hinge_slope = {}) const;

  /// Per-slot Lagrangian L(y, lambda) = f(y) - sum_i lambda_i l_i(y_i)
  /// (paper eq. 13) with its full gradient in y — the objective OGD (eq. 16)
  /// climbs; the saddle-point step (eq. 14) reads only values, through
  /// lagrangian_value().  The gradient comes from one reverse sweep over the
  /// DAG: each min in eq. (4) passes its adjoint to the active branch (the
  /// capacity share on a tie), and each h_{i,j} through
  /// ThroughputFn::backprop.
  ///
  /// Following the paper's eq. (11), the constraint uses the *observed*
  /// demand Sum_j h_{i,j}(e_i) as a per-slot constant (`observed_demand`,
  /// node-indexed: typically last slot's measured demand plus buffered
  /// backlog to drain), NOT the model demand as a function of y — otherwise
  /// the maximizer can "relieve" a downstream constraint by throttling the
  /// upstream operator, which is never what a scaler should plan.
  /// `lambda` is node-indexed; only operator entries are read.  An
  /// infinite capacity with an infinite observed demand makes the value NaN.
  [[nodiscard]] LagrangianResult lagrangian(std::span<const double> source_rates,
                                            std::span<const double> capacity,
                                            std::span<const double> lambda,
                                            std::span<const double> observed_demand) const;

  [[nodiscard]] const StreamDag& dag() const noexcept { return dag_; }

 private:
  const StreamDag& dag_;
};

}  // namespace dragster::dag
