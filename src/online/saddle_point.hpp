// Online saddle-point step (paper eq. 14):
//   y_t = argmax_y L_{t-1}(y, lambda_{t-1})
//
// L is concave in y (composition of concave increasing h with min and affine
// terms), and concave in each coordinate separately, so the maximizer is
// found by cyclic coordinate ascent, sweeping until no coordinate moves.
// Under eq. (4) truncation and the Linear and MinWeighted h of eq. (2a-b)
// each 1-D slice is also piecewise linear, so its maximum sits at a kink,
// and the step walks the slice's kinks exactly (FlowSolver::tangent).  A
// slice that a Tanh or Custom edge makes non-linear gets a ternary search
// on Lagrangian values instead, robust to the flat plateaus and kinks the
// min() truncations create, where plain gradient ascent stalls.
//
// Two practical refinements, both documented design decisions (DESIGN.md):
//  * capacity_regularization epsilon selects the *minimal* maximizer — f is
//    flat once every operator saturates, and Dragster wants "just enough
//    capacity to handle the incoming tuples" (Remark 1);
//  * lambda_floor imposes a tiny effective multiplier on every constraint so
//    the epsilon pull-down stops exactly at each operator's demand point
//    instead of collapsing non-binding operators to zero.  It must exceed
//    epsilon (and both stay far below the O(1) gradient scale of f).
#pragma once

#include <span>
#include <vector>

#include "dag/flow_solver.hpp"

namespace dragster::online {

struct SaddlePointOptions {
  double y_min = 0.0;        ///< per-operator capacity lower bound
  double y_max = 1e9;        ///< per-operator capacity upper bound
  int rounds = 6;            ///< cap on cyclic coordinate-ascent sweeps
  int ternary_iterations = 48;  ///< search depth on a slice that is not piecewise linear
  double capacity_regularization = 1e-3;  ///< epsilon (see header comment)
  double lambda_floor = 5e-3;             ///< minimum effective multiplier
};

class SaddlePointSolver {
 public:
  explicit SaddlePointSolver(SaddlePointOptions options = {});

  /// Maximizes L(y, lambda) for the observed last-slot source rates,
  /// starting from `y_start`.  `observed_demand` adds backlog-drain load to
  /// each operator's constraint.  All four spans are node-indexed.  Returns
  /// the target capacity vector y_t (node-indexed; only operator entries are
  /// meaningful).  Each step re-solves the flows from the searched
  /// operator's topological position on, and allocates nothing per hop or
  /// probe.
  [[nodiscard]] std::vector<double> solve(const dag::FlowSolver& flow,
                                          std::span<const double> source_rates,
                                          std::span<const double> lambda,
                                          std::span<const double> y_start,
                                          std::span<const double> observed_demand) const;

 private:
  SaddlePointOptions options_;
};

}  // namespace dragster::online
