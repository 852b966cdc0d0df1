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
  // being searched: a step changes only that operator's capacity, so it
  // re-propagates eq. (4) from the operator's topological position on.
  dag::FlowResult state;
  flow.solve(source_rates, y, state);
  const double eps = options_.capacity_regularization;

  // Exact step.  With Linear and MinWeighted edges downstream the slice is
  // concave and piecewise linear, so it climbs from y_min one kink at a
  // time while L's right slope f' + lambda_i [y_i < d_i] - eps is positive.
  // A hop lands on the kink (the hinge at d_i and the box end exactly) and
  // crosses it.  Every hop crosses a different kink: an edge's truncation,
  // a MinWeighted switch, the hinge or the box.  A hop too short to move y,
  // or a walk longer than the slice can have kinks, means rounding has
  // defeated the walk, and the slice is searched instead, as is one the
  // tangent pass finds non-linear.
  const std::size_t max_hops = 4 * (dag.edge_count() + 1);
  auto walk = [&](std::size_t pos, dag::NodeId id) {
    y[id] = options_.y_min;
    flow.solve(source_rates, y, state, pos);
    for (std::size_t hop = 0; hop < max_hops; ++hop) {
      const dag::FlowTangent tangent = flow.tangent(y, state, pos);
      if (!tangent.linear) return false;
      const double demand = observed_demand[id];
      const bool hinge = !(0.0 >= demand - y[id]);  // lagrangian_value's active test
      if (!(tangent.slope + (hinge ? lam[id] : 0.0) - eps > 0.0)) return true;
      double next = y[id] + tangent.step;
      if (hinge && demand < next) next = demand;
      if (!(next < options_.y_max)) next = options_.y_max;
      if (!(next > y[id])) return false;
      y[id] = next;
      flow.solve(source_rates, y, state, pos);
      if (!(next < options_.y_max)) return true;
    }
    return false;
  };

  // Ternary search on a concave slice that is not piecewise linear, on
  // Lagrangian values.
  auto probe = [&](std::size_t pos) {
    flow.solve(source_rates, y, state, pos);
    double value = flow.lagrangian_value(state.app_throughput, y, lam, observed_demand);
    for (dag::NodeId id : ops) value -= eps * y[id];
    return value;
  };
  auto search = [&](std::size_t pos, dag::NodeId id) {
    double lo = options_.y_min;
    double hi = options_.y_max;
    for (int it = 0; it < options_.ternary_iterations && hi - lo > 1e-9 * options_.y_max; ++it) {
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
    y[id] = 0.5 * (lo + hi);
    flow.solve(source_rates, y, state, pos);
  };

  // Cyclic coordinate ascent until a sweep moves no coordinate, measured
  // against its value before its step.
  const std::vector<dag::NodeId>& order = dag.topo_order();
  for (int round = 0; round < options_.rounds; ++round) {
    double moved = 0.0;
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      const dag::NodeId id = order[pos];
      if (dag.component(id).kind != dag::ComponentKind::kOperator) continue;
      const double before = y[id];
      if (!walk(pos, id)) search(pos, id);
      moved = std::max(moved, std::abs(y[id] - before));
    }
    if (moved < 1e-6 * options_.y_max) break;
  }
  return y;
}

}  // namespace dragster::online
