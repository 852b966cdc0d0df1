#include "online/saddle_point.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace dragster::online {

SaddlePointSolver::SaddlePointSolver(SaddlePointOptions options) : options_(options) {
  DRAGSTER_REQUIRE(options_.y_max > options_.y_min, "empty capacity box");
  DRAGSTER_REQUIRE(options_.rounds > 0, "need at least one sweep");
  DRAGSTER_REQUIRE(options_.ternary_iterations > 4, "ternary search too shallow");
  DRAGSTER_REQUIRE(options_.lambda_floor > options_.capacity_regularization,
                   "lambda_floor must exceed the epsilon regularizer");
}

std::vector<double> SaddlePointSolver::solve(const dag::FlowSolver& flow,
                                             std::span<const double> source_rates,
                                             std::span<const double> lambda,
                                             std::span<const double> y_start,
                                             std::span<const double> observed_demand) const {
  const dag::StreamDag& dag = flow.dag();
  const std::size_t n = dag.node_count();
  DRAGSTER_REQUIRE(source_rates.size() == n, "source_rates must be node-indexed");
  DRAGSTER_REQUIRE(lambda.size() == n, "lambda must be node-indexed");
  DRAGSTER_REQUIRE(y_start.size() == n, "y_start must be node-indexed");
  DRAGSTER_REQUIRE(observed_demand.size() == n, "observed_demand must be node-indexed");
  const std::vector<dag::NodeId>& ops = dag.operators();

  // Effective multipliers: floored so every constraint exerts at least a
  // whisker of upward pressure (see header).
  std::vector<double> lam(n, 0.0);
  for (dag::NodeId id : ops) lam[id] = std::max(lambda[id], options_.lambda_floor);

  std::vector<double> y(y_start.begin(), y_start.end());
  for (dag::NodeId id : ops) y[id] = std::clamp(y[id], options_.y_min, options_.y_max);

  // `state` always holds the flows at y, except downstream of the operator
  // being searched: a probe changes only that operator's capacity, so it
  // re-propagates eq. (4) from the operator's topological position on.
  dag::FlowResult state;
  flow.solve(source_rates, y, state);
  const double eps = options_.capacity_regularization;
  auto probe = [&](std::size_t pos) {
    flow.solve(source_rates, y, state, pos);
    double value = flow.lagrangian_value(state.app_throughput, y, lam, observed_demand);
    for (dag::NodeId id : ops) value -= eps * y[id];
    return value;
  };

  const std::vector<dag::NodeId>& order = dag.topo_order();
  for (int round = 0; round < options_.rounds; ++round) {
    double moved = 0.0;
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      const dag::NodeId id = order[pos];
      if (dag.component(id).kind != dag::ComponentKind::kOperator) continue;
      // Ternary search on the concave 1-D slice L(..., y_id, ...).
      double lo = options_.y_min;
      double hi = options_.y_max;
      for (int it = 0; it < options_.ternary_iterations && hi - lo > 1e-9 * options_.y_max;
           ++it) {
        const double m1 = lo + (hi - lo) / 3.0;
        const double m2 = hi - (hi - lo) / 3.0;
        y[id] = m1;
        const double v1 = probe(pos);
        y[id] = m2;
        const double v2 = probe(pos);
        if (v1 > v2) {
          hi = m2;
        } else {
          lo = m1;
        }
      }
      const double candidate = 0.5 * (lo + hi);
      moved = std::max(moved, std::abs(candidate - y[id]));
      y[id] = candidate;
      flow.solve(source_rates, y, state, pos);
    }
    if (moved < 1e-6 * options_.y_max) break;
  }
  return y;
}

}  // namespace dragster::online
