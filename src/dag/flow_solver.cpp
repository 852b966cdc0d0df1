#include "dag/flow_solver.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dragster::dag {
namespace {

// alpha_{i,j} * y_i.  An edge with alpha = 0 gets no capacity, also when y_i
// is infinite (where the product would be NaN).
double capacity_share(const Edge& edge, double y) {
  return edge.alpha > 0.0 ? edge.alpha * y : 0.0;
}

}  // namespace

FlowSolver::FlowSolver(const StreamDag& dag) : dag_(dag) {
  DRAGSTER_REQUIRE(dag.validated(), "FlowSolver requires a validated DAG");
}

FlowResult FlowSolver::solve(std::span<const double> source_rates,
                             std::span<const double> capacity) const {
  FlowResult result;
  solve(source_rates, capacity, result);
  return result;
}

void FlowSolver::solve(std::span<const double> source_rates, std::span<const double> capacity,
                       FlowResult& result, std::size_t from) const {
  const std::size_t n = dag_.node_count();
  DRAGSTER_REQUIRE(source_rates.size() == n && capacity.size() == n,
                   "source_rates/capacity must be node-indexed");
  const std::vector<NodeId>& order = dag_.topo_order();
  DRAGSTER_REQUIRE(from <= order.size(), "solve() from past the topological order");
  if (from == 0) {
    result.edge_flow.resize(dag_.edge_count());
    result.node_inflow.resize(n);
    result.node_demand.resize(n);
    result.node_outflow.resize(n);
  }
  DRAGSTER_REQUIRE(result.edge_flow.size() == dag_.edge_count() &&
                       result.node_inflow.size() == n && result.node_demand.size() == n &&
                       result.node_outflow.size() == n,
                   "re-propagating needs a result solved on this DAG");

  // Every edge is the out-edge of exactly one node, so resetting a node's
  // sums and rewriting its out-edges recomputes it from scratch.
  for (std::size_t pos = from; pos < order.size(); ++pos) {
    const NodeId id = order[pos];
    const Component& comp = dag_.component(id);
    result.node_inflow[id] = 0.0;
    result.node_demand[id] = 0.0;
    result.node_outflow[id] = 0.0;
    if (comp.kind == ComponentKind::kSink) {
      for (std::size_t eidx : dag_.in_edges(id)) result.node_inflow[id] += result.edge_flow[eidx];
      continue;
    }

    // The input vector h_{i,j} consumes: the offered rate for a source, the
    // realized in-edge flows for an operator.
    std::span<const double> inputs = source_rates.subspan(id, 1);
    if (comp.kind == ComponentKind::kOperator) {
      result.inputs.clear();
      for (std::size_t eidx : dag_.in_edges(id)) result.inputs.push_back(result.edge_flow[eidx]);
      for (double v : result.inputs) result.node_inflow[id] += v;
      inputs = result.inputs;
    }

    for (std::size_t eidx : dag_.out_edges(id)) {
      const Edge& edge = dag_.edge(eidx);
      const double demand = edge.fn.eval(inputs);
      result.node_demand[id] += demand;
      // Sources are not capacity-limited; an operator edge is truncated at
      // its capacity share (eq. 4).
      const double flow = comp.kind == ComponentKind::kSource
                              ? demand
                              : std::min(capacity_share(edge, capacity[id]), demand);
      result.edge_flow[eidx] = flow;
      result.node_outflow[id] += flow;
    }
  }

  result.app_throughput = result.node_inflow[dag_.sink()];
}

double FlowSolver::app_throughput(std::span<const double> source_rates,
                                  std::span<const double> capacity) const {
  return solve(source_rates, capacity).app_throughput;
}

double FlowSolver::lagrangian_value(double throughput, std::span<const double> capacity,
                                    std::span<const double> lambda,
                                    std::span<const double> observed_demand,
                                    std::span<double> hinge_slope) const {
  const std::size_t n = dag_.node_count();
  DRAGSTER_REQUIRE(capacity.size() == n, "capacity must be node-indexed");
  DRAGSTER_REQUIRE(lambda.size() == n && observed_demand.size() == n,
                   "lambda/observed_demand must be node-indexed");
  DRAGSTER_REQUIRE(hinge_slope.empty() || hinge_slope.size() == n,
                   "hinge_slope must be node-indexed when present");

  // L = f(y) - sum_i lambda_i * max(0, observed_demand_i - y_i).
  // The hinge keeps the multiplier from pushing y past the point where the
  // constraint is already satisfied (complementary slackness during
  // transients).  An active hinge contributes +lambda_i to dL/dy_i.
  double value = throughput;
  for (NodeId id : dag_.operators()) {
    // draglint:allow(DL004 sparsity skip: an exactly-zero multiplier contributes nothing)
    if (lambda[id] == 0.0) continue;
    const double gap = observed_demand[id] - capacity[id];
    if (0.0 >= gap) continue;  // max(0, gap) = 0 on a tie too; a NaN gap stays active
    value -= gap * lambda[id];
    if (!hinge_slope.empty()) hinge_slope[id] = lambda[id];
  }
  return value;
}

LagrangianResult FlowSolver::lagrangian(std::span<const double> source_rates,
                                        std::span<const double> capacity,
                                        std::span<const double> lambda,
                                        std::span<const double> observed_demand) const {
  const FlowResult flow = solve(source_rates, capacity);

  // The hinge slopes are the first term of each dL/dy_i; the sweep below
  // adds the flow terms.
  LagrangianResult out;
  out.throughput = flow.app_throughput;
  out.dvalue_dy.assign(dag_.node_count(), 0.0);
  out.value = lagrangian_value(flow.app_throughput, capacity, lambda, observed_demand,
                               out.dvalue_dy);

  // One reverse sweep over the DAG.  edge_adjoint holds dL/d(edge flow);
  // every sink in-edge flow enters f(y) with weight 1.  An operator's
  // in-edge adjoints are complete once all its out-edges are visited, which
  // reverse topological order guarantees.  Out-edges are visited last to
  // first, so each sum accumulates in a fixed order.
  std::vector<double> edge_adjoint(dag_.edge_count(), 0.0);
  for (std::size_t eidx : dag_.in_edges(dag_.sink())) edge_adjoint[eidx] = 1.0;
  std::vector<double> inputs;
  std::vector<double> input_adjoints;
  const std::vector<NodeId>& order = dag_.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId id = *it;
    if (dag_.component(id).kind != ComponentKind::kOperator) continue;
    const std::vector<std::size_t>& in_edges = dag_.in_edges(id);
    inputs.clear();
    for (std::size_t eidx : in_edges) inputs.push_back(flow.edge_flow[eidx]);
    input_adjoints.assign(in_edges.size(), 0.0);

    const std::vector<std::size_t>& out_edges = dag_.out_edges(id);
    for (std::size_t k = out_edges.size(); k-- > 0;) {
      const std::size_t eidx = out_edges[k];
      const double adjoint = edge_adjoint[eidx];
      // draglint:allow(DL004 sparsity skip: propagating an exactly-zero adjoint is a no-op)
      if (adjoint == 0.0) continue;
      const Edge& edge = dag_.edge(eidx);
      if (flow.edge_flow[eidx] < capacity_share(edge, capacity[id])) {
        edge.fn.backprop(inputs, adjoint, input_adjoints);  // demand binds
      } else {
        out.dvalue_dy[id] += adjoint * edge.alpha;  // capacity share binds (or ties)
      }
    }
    for (std::size_t k = 0; k < in_edges.size(); ++k) edge_adjoint[in_edges[k]] = input_adjoints[k];
  }
  return out;
}

}  // namespace dragster::dag
