// Online gradient-descent capacity update (paper eq. 16):
//   y_i(t) = y_i(t-1) + eta * dL_{t-1}(y_{t-1}, lambda_{t-1}) / dy_i
// The smooth alternative to the saddle-point argmax: one gradient step per
// slot, which the paper's Fig. 4(c) shows as a gradual trajectory without
// the saddle-point's exploratory jumps.
#pragma once

#include <span>
#include <vector>

#include "dag/flow_solver.hpp"

namespace dragster::online {

struct OgdOptions {
  double eta = 1.0;            ///< primal step size
  double y_min = 0.0;
  double y_max = 1e9;
  /// Same minimal-maximizer tie-break as the saddle-point solver.
  double capacity_regularization = 1e-3;
};

class OgdSolver {
 public:
  explicit OgdSolver(OgdOptions options = {});

  /// One projected gradient step from the previous target capacities.
  /// `observed_demand` (node-indexed) is each operator's measured demand
  /// including backlog to drain, as in SaddlePointSolver::solve.
  /// `eta_per_node` (node-indexed, optional) overrides the scalar step per
  /// operator — capacities span orders of magnitude across a DAG, so a
  /// single eta either stalls the big operators or slams the small ones
  /// between the box bounds.
  [[nodiscard]] std::vector<double> step(const dag::FlowSolver& flow,
                                         std::span<const double> source_rates,
                                         std::span<const double> lambda,
                                         std::span<const double> y_prev,
                                         std::span<const double> observed_demand,
                                         std::span<const double> eta_per_node = {}) const;

 private:
  OgdOptions options_;
};

}  // namespace dragster::online
