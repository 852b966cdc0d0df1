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
  const std::size_t n = dag_.node_count();
  DRAGSTER_REQUIRE(source_rates.size() == n && capacity.size() == n,
                   "source_rates/capacity must be node-indexed");

  FlowResult result;
  result.edge_flow.assign(dag_.edge_count(), 0.0);
  result.node_inflow.assign(n, 0.0);
  result.node_demand.assign(n, 0.0);
  result.node_outflow.assign(n, 0.0);

  std::vector<double> inputs;
  for (NodeId id : dag_.topo_order()) {
    const Component& comp = dag_.component(id);
    if (comp.kind == ComponentKind::kSink) {
      for (std::size_t eidx : dag_.in_edges(id)) result.node_inflow[id] += result.edge_flow[eidx];
      continue;
    }

    // Assemble the input vector h_{i,j} consumes: the offered rate for a
    // source, the realized in-edge flows for an operator.
    inputs.clear();
    if (comp.kind == ComponentKind::kSource) {
      inputs.push_back(source_rates[id]);
    } else {
      for (std::size_t eidx : dag_.in_edges(id)) inputs.push_back(result.edge_flow[eidx]);
      for (double v : inputs) result.node_inflow[id] += v;
    }

    for (std::size_t eidx : dag_.out_edges(id)) {
      const Edge& edge = dag_.edge(eidx);
      const double demand = edge.fn->eval(inputs);
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
  return result;
}

double FlowSolver::app_throughput(std::span<const double> source_rates,
                                  std::span<const double> capacity) const {
  return solve(source_rates, capacity).app_throughput;
}

LagrangianResult FlowSolver::lagrangian(std::span<const double> source_rates,
                                        std::span<const double> capacity,
                                        std::span<const double> lambda,
                                        std::span<const double> observed_demand) const {
  const std::size_t n = dag_.node_count();
  DRAGSTER_REQUIRE(lambda.size() == n && observed_demand.size() == n,
                   "lambda/observed_demand must be node-indexed");

  const FlowResult flow = solve(source_rates, capacity);  // checks the other two sizes

  LagrangianResult out;
  out.throughput = flow.app_throughput;
  out.value = flow.app_throughput;
  out.dvalue_dy.assign(n, 0.0);

  // L = f(y) - sum_i lambda_i * max(0, observed_demand_i - y_i).
  // The hinge keeps the multiplier from pushing y past the point where the
  // constraint is already satisfied (complementary slackness during
  // transients).  An active hinge contributes +lambda_i to dL/dy_i; it is
  // the first term of that sum, the sweep below adds the flow terms.
  for (NodeId id = 0; id < n; ++id) {
    if (dag_.component(id).kind != ComponentKind::kOperator) continue;
    // draglint:allow(DL004 sparsity skip: an exactly-zero multiplier contributes nothing)
    if (lambda[id] == 0.0) continue;
    const double gap = observed_demand[id] - capacity[id];
    if (0.0 >= gap) continue;  // max(0, gap) = 0 on a tie too; a NaN gap stays active
    out.value -= gap * lambda[id];
    out.dvalue_dy[id] = lambda[id];
  }

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
        edge.fn->backprop(inputs, adjoint, input_adjoints);  // demand binds
      } else {
        out.dvalue_dy[id] += adjoint * edge.alpha;  // capacity share binds (or ties)
      }
    }
    for (std::size_t k = 0; k < in_edges.size(); ++k) edge_adjoint[in_edges[k]] = input_adjoints[k];
  }
  return out;
}

}  // namespace dragster::dag
