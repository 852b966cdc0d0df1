// Tests for the truncated-flow solver (paper eq. 4) and its re-propagation
// from a topological position, the throughput function f_t(y) and its
// forward tangent in one capacity, and the Lagrangian (eq. 13) with its
// reverse-sweep gradient.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/rng.hpp"
#include "dag/flow_solver.hpp"
#include "dag/throughput_fn.hpp"
#include "test_support.hpp"
#include "workloads/workloads.hpp"

namespace dragster::dag {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct ChainFixture {
  StreamDag dag;
  NodeId src, a, b, sink;

  ChainFixture(double sel_a = 2.0, double sel_b = 1.0) {
    src = dag.add_source("src");
    a = dag.add_operator("a");
    b = dag.add_operator("b");
    sink = dag.add_sink("sink");
    dag.add_edge(src, a, selectivity_fn(1.0));
    dag.add_edge(a, b, selectivity_fn(sel_a));
    dag.add_edge(b, sink, selectivity_fn(sel_b));
    dag.validate();
  }

  std::vector<double> rates(double r) const {
    std::vector<double> v(dag.node_count(), 0.0);
    v[src] = r;
    return v;
  }
  std::vector<double> caps(double ya, double yb) const {
    std::vector<double> v(dag.node_count(), 0.0);
    v[a] = ya;
    v[b] = yb;
    return v;
  }
};

TEST(FlowSolver, UnconstrainedChainPropagatesSelectivity) {
  ChainFixture fx;
  const FlowSolver flow(fx.dag);
  const FlowResult r = flow.solve(fx.rates(100.0), fx.caps(kInf, kInf));
  EXPECT_DOUBLE_EQ(r.app_throughput, 200.0);
  EXPECT_DOUBLE_EQ(r.node_inflow[fx.b], 200.0);
  EXPECT_DOUBLE_EQ(r.node_demand[fx.a], 200.0);
}

TEST(FlowSolver, CapacityTruncatesPerEquation4) {
  ChainFixture fx;
  const FlowSolver flow(fx.dag);
  // a capped at 150 (demand 200); b unconstrained: sink gets 150.
  const FlowResult r = flow.solve(fx.rates(100.0), fx.caps(150.0, kInf));
  EXPECT_DOUBLE_EQ(r.app_throughput, 150.0);
  // b's demand equals what it actually received.
  EXPECT_DOUBLE_EQ(r.node_demand[fx.b], 150.0);
}

TEST(FlowSolver, DownstreamBottleneckDominates) {
  ChainFixture fx;
  const FlowSolver flow(fx.dag);
  const FlowResult r = flow.solve(fx.rates(100.0), fx.caps(kInf, 80.0));
  EXPECT_DOUBLE_EQ(r.app_throughput, 80.0);
}

TEST(FlowSolver, ThroughputMonotoneInCapacity) {
  ChainFixture fx;
  const FlowSolver flow(fx.dag);
  double prev = -1.0;
  for (double y = 20.0; y <= 260.0; y += 40.0) {
    const double f = flow.app_throughput(fx.rates(100.0), fx.caps(y, y));
    EXPECT_GE(f, prev);
    prev = f;
  }
  EXPECT_DOUBLE_EQ(prev, 200.0);  // saturates at demand
}

TEST(FlowSolver, AlphaSplitsCapacityAmongSuccessors) {
  StreamDag dag;
  const NodeId src = dag.add_source("s");
  const NodeId op = dag.add_operator("o");
  const NodeId k1 = dag.add_sink("k1");
  const NodeId k2 = dag.add_sink("k2");
  dag.add_edge(src, op, identity_fn());
  dag.add_edge(op, k1, selectivity_fn(1.0), 0.25);
  dag.add_edge(op, k2, selectivity_fn(1.0), 0.75);
  dag.validate();
  const FlowSolver flow(dag);
  std::vector<double> rates(dag.node_count(), 0.0);
  rates[src] = 100.0;
  std::vector<double> caps(dag.node_count(), 0.0);
  caps[op] = 80.0;  // demand per edge is 100, split caps at 20/60
  const FlowResult r = flow.solve(rates, caps);
  EXPECT_DOUBLE_EQ(r.edge_flow[dag.out_edges(op)[0]], 20.0);
  EXPECT_DOUBLE_EQ(r.edge_flow[dag.out_edges(op)[1]], 60.0);
}

TEST(FlowSolver, JoinUsesMinWeighted) {
  StreamDag dag;
  const NodeId s1 = dag.add_source("auctions");
  const NodeId s2 = dag.add_source("bids");
  const NodeId join = dag.add_operator("join");
  const NodeId sink = dag.add_sink("sink");
  dag.add_edge(s1, join, identity_fn());
  dag.add_edge(s2, join, identity_fn());
  dag.add_edge(join, sink, MinWeightedFn({1.0, 0.5}));
  dag.validate();
  const FlowSolver flow(dag);
  std::vector<double> rates(dag.node_count(), 0.0);
  rates[s1] = 30.0;
  rates[s2] = 40.0;  // weighted: min(30, 20) = 20
  std::vector<double> caps(dag.node_count(), 0.0);
  caps[join] = kInf;
  EXPECT_DOUBLE_EQ(flow.app_throughput(rates, caps), 20.0);
}

TEST(FlowSolver, SourceSplitIsNotCapacityLimited) {
  // A 50 tuples/s source split alpha = (0, 1) into two operators: both
  // edges carry the full 50, since alpha only splits operator capacity.
  StreamDag dag;
  const NodeId src = dag.add_source("s");
  const NodeId o1 = dag.add_operator("o1");
  const NodeId o2 = dag.add_operator("o2");
  dag.add_edge(src, o1, identity_fn(), 0.0);
  dag.add_edge(src, o2, identity_fn(), 1.0);
  dag.validate();
  const FlowSolver flow(dag);
  std::vector<double> rates(dag.node_count(), 0.0);
  rates[src] = 50.0;
  std::vector<double> caps(dag.node_count(), 0.0);
  caps[o1] = 100.0;
  caps[o2] = 100.0;
  const FlowResult r = flow.solve(rates, caps);
  EXPECT_DOUBLE_EQ(r.edge_flow[dag.out_edges(src)[0]], 50.0);
  EXPECT_DOUBLE_EQ(r.edge_flow[dag.out_edges(src)[1]], 50.0);
  EXPECT_DOUBLE_EQ(r.app_throughput, 100.0);
  const std::vector<double> zeros(dag.node_count(), 0.0);
  const LagrangianResult lr = flow.lagrangian(rates, caps, zeros, zeros);
  EXPECT_DOUBLE_EQ(lr.throughput, r.app_throughput);
  EXPECT_DOUBLE_EQ(lr.dvalue_dy[o1], 0.0);  // neither operator binds
  EXPECT_DOUBLE_EQ(lr.dvalue_dy[o2], 0.0);
}

TEST(FlowSolver, ZeroAlphaEdgeGetsNoCapacityEvenWhenUnlimited) {
  StreamDag dag;
  const NodeId src = dag.add_source("s");
  const NodeId op = dag.add_operator("o");
  const NodeId k1 = dag.add_sink("k1");
  const NodeId k2 = dag.add_sink("k2");
  dag.add_edge(src, op, identity_fn());
  dag.add_edge(op, k1, identity_fn(), 0.0);
  dag.add_edge(op, k2, identity_fn(), 1.0);
  dag.validate();
  const FlowSolver flow(dag);
  std::vector<double> rates(dag.node_count(), 0.0);
  rates[src] = 100.0;
  const std::vector<double> caps(dag.node_count(), kInf);
  const FlowResult r = flow.solve(rates, caps);
  EXPECT_DOUBLE_EQ(r.edge_flow[dag.out_edges(op)[0]], 0.0);  // not 0 * inf = NaN
  EXPECT_DOUBLE_EQ(r.edge_flow[dag.out_edges(op)[1]], 100.0);
  EXPECT_DOUBLE_EQ(r.app_throughput, 100.0);
}

TEST(FlowSolver, LagrangianGradientIdentifiesBottleneck) {
  ChainFixture fx;
  const FlowSolver flow(fx.dag);
  // a is the binding constraint: 150 < demand 200, b has slack.
  const std::vector<double> zeros(fx.dag.node_count(), 0.0);
  const LagrangianResult lr = flow.lagrangian(fx.rates(100.0), fx.caps(150.0, 400.0), zeros, zeros);
  EXPECT_GT(lr.dvalue_dy[fx.a], 0.5);
  EXPECT_DOUBLE_EQ(lr.dvalue_dy[fx.b], 0.0);
  EXPECT_DOUBLE_EQ(lr.throughput, 150.0);
  EXPECT_DOUBLE_EQ(lr.value, 150.0);
}

TEST(FlowSolver, LagrangianGradientMatchesFiniteDifference) {
  ChainFixture fx(1.5, 0.8);
  const FlowSolver flow(fx.dag);
  const std::vector<double> zeros(fx.dag.node_count(), 0.0);
  common::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const double ya = rng.uniform(20.0, 300.0);
    const double yb = rng.uniform(20.0, 300.0);
    const LagrangianResult lr = flow.lagrangian(fx.rates(100.0), fx.caps(ya, yb), zeros, zeros);
    const double h = 1e-5;
    const double fd_a = (flow.app_throughput(fx.rates(100.0), fx.caps(ya + h, yb)) -
                         flow.app_throughput(fx.rates(100.0), fx.caps(ya - h, yb))) /
                        (2.0 * h);
    // Skip kink points where the subgradient legitimately differs.
    const double fd_a2 = (flow.app_throughput(fx.rates(100.0), fx.caps(ya + h, yb)) -
                          flow.app_throughput(fx.rates(100.0), fx.caps(ya, yb))) /
                         h;
    if (std::abs(fd_a - fd_a2) < 1e-6) {
      EXPECT_NEAR(lr.dvalue_dy[fx.a], fd_a, 1e-5) << "ya=" << ya << " yb=" << yb;
    }
  }
}

TEST(FlowSolver, LagrangianValueMatchesDefinition) {
  ChainFixture fx;
  const FlowSolver flow(fx.dag);
  const auto rates = fx.rates(100.0);
  const auto caps = fx.caps(150.0, 90.0);
  std::vector<double> lambda(fx.dag.node_count(), 0.0);
  lambda[fx.a] = 2.0;
  lambda[fx.b] = 3.0;
  std::vector<double> demand(fx.dag.node_count(), 0.0);
  demand[fx.a] = 200.0;  // hinge: 2*(200-150) = 100
  demand[fx.b] = 50.0;   // hinge inactive: capacity 90 > 50
  const LagrangianResult lr = flow.lagrangian(rates, caps, lambda, demand);
  EXPECT_DOUBLE_EQ(lr.throughput, 90.0);
  EXPECT_DOUBLE_EQ(lr.value, 90.0 - 100.0);
}

TEST(FlowSolver, LagrangianGradientIncludesMultiplier) {
  ChainFixture fx;
  const FlowSolver flow(fx.dag);
  const auto rates = fx.rates(100.0);
  const auto caps = fx.caps(150.0, 300.0);
  std::vector<double> lambda(fx.dag.node_count(), 0.0);
  lambda[fx.a] = 2.0;
  std::vector<double> demand(fx.dag.node_count(), 0.0);
  demand[fx.a] = 200.0;  // active hinge at a (150 < 200)
  const LagrangianResult lr = flow.lagrangian(rates, caps, lambda, demand);
  // dL/dy_a = df/dy_a (=1, binding) + lambda (=2, hinge active).
  EXPECT_NEAR(lr.dvalue_dy[fx.a], 3.0, 1e-9);
}

TEST(FlowSolver, LagrangianReducesToThroughputWithZeroLambda) {
  ChainFixture fx;
  const FlowSolver flow(fx.dag);
  const auto rates = fx.rates(50.0);
  const auto caps = fx.caps(70.0, 70.0);
  const std::vector<double> lambda(fx.dag.node_count(), 0.0);
  const std::vector<double> demand(fx.dag.node_count(), 1e9);
  const LagrangianResult lr = flow.lagrangian(rates, caps, lambda, demand);
  EXPECT_DOUBLE_EQ(lr.value, lr.throughput);
}

TEST(FlowSolver, LagrangianGradientMatchesFiniteDifferenceOnBranchingDag) {
  BranchFixture fx;
  const FlowSolver flow(fx.dag);
  const std::size_t n = fx.dag.node_count();
  const std::vector<NodeId> ops = fx.dag.operators();
  std::vector<double> lambda(n, 0.0);
  lambda[fx.a] = 1.5;
  lambda[fx.b] = 0.7;
  lambda[fx.d] = 2.0;
  lambda[fx.j] = 0.4;  // c keeps lambda = 0
  common::Rng rng(21);
  int checked = 0;
  int active_hinges = 0;
  int inactive_hinges = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<double> rates(n, 0.0);
    rates[fx.src] = rng.uniform(100.0, 300.0);
    std::vector<double> caps(n, 0.0);
    std::vector<double> demand(n, 0.0);
    for (NodeId id : ops) {
      caps[id] = rng.uniform(20.0, 600.0);
      demand[id] = rng.uniform(50.0, 500.0);
      if (lambda[id] > 0.0) ++(demand[id] > caps[id] ? active_hinges : inactive_hinges);
    }
    const LagrangianResult lr = flow.lagrangian(rates, caps, lambda, demand);
    auto value_at = [&](NodeId id, double dy) {
      std::vector<double> moved = caps;
      moved[id] += dy;
      return flow.lagrangian(rates, moved, lambda, demand).value;
    };
    const double h = 1e-4;
    for (NodeId id : ops) {
      const double up = value_at(id, h);
      const double down = value_at(id, -h);
      // Skip kinks (a min switching branch or a hinge turning on), where the
      // one-sided slopes differ and any subgradient is legitimate.
      if (std::abs((up - lr.value) - (lr.value - down)) / h > 1e-4) continue;
      const double fd = (up - down) / (2.0 * h);
      EXPECT_NEAR(lr.dvalue_dy[id], fd, 1e-5) << "trial " << trial << " node " << id;
      ++checked;
    }
  }
  EXPECT_GT(checked, 800);  // most of the 1000 probes are off kinks
  EXPECT_GT(active_hinges, 100);
  EXPECT_GT(inactive_hinges, 100);
}

// FNV-1a over the bit patterns of value, throughput and dvalue_dy for a fixed
// seeded batch of Lagrangian evaluations.  Draws sit on a 500-step grid so
// capacity-share ties, MinWeighted ties and hinge ties all occur.
std::uint64_t lagrangian_bits_hash(const StreamDag& dag, std::uint64_t seed) {
  const FlowSolver flow(dag);
  const std::size_t n = dag.node_count();
  common::Rng rng(seed);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&hash](double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffU;
      hash *= 0x100000001b3ULL;
    }
  };
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<double> rates(n, 0.0);
    std::vector<double> caps(n, 0.0);
    std::vector<double> lambda(n, 0.0);
    std::vector<double> demand(n, 0.0);
    for (NodeId id = 0; id < n; ++id) {
      const ComponentKind kind = dag.component(id).kind;
      if (kind == ComponentKind::kSource) {
        rates[id] = 500.0 * static_cast<double>(rng.uniform_int(0, 200));
      } else if (kind == ComponentKind::kOperator) {
        caps[id] = 500.0 * static_cast<double>(rng.uniform_int(0, 200));
        demand[id] = 500.0 * static_cast<double>(rng.uniform_int(0, 200));
        lambda[id] = rng.uniform_int(0, 2) == 0 ? 0.0 : rng.uniform(0.0, 3.0);
      }
    }
    const LagrangianResult lr = flow.lagrangian(rates, caps, lambda, demand);
    mix(lr.value);
    mix(lr.throughput);
    for (double g : lr.dvalue_dy) mix(g);
  }
  return hash;
}

TEST(FlowSolver, LagrangianBitsArePinned) {
  // The expected hashes were produced by the scalar autodiff tape the
  // reverse sweep replaced.  Linear and MinWeighted edges only involve
  // exactly rounded + * min, so the pin holds on any libm.
  EXPECT_EQ(lagrangian_bits_hash(workloads::yahoo().dag, 13), 0xf3b19498405a6b58ULL);
  EXPECT_EQ(lagrangian_bits_hash(workloads::join().dag, 13), 0xa6637f71c8aaf80aULL);
  // The branching fixture adds Tanh and Custom edges, so backprop's other
  // two forms are pinned too.  Through std::tanh this pin depends on libm,
  // like Engine.SlotReportBitsArePinned.
  EXPECT_EQ(lagrangian_bits_hash(BranchFixture(/*custom_edge=*/true).dag, 13),
            0x3a10a324ff838771ULL);
}

// For every topological position p: solve at capacities A, redraw the
// capacities at positions >= p only, re-propagate from p into the same
// result, and compare every entry's bits with a fresh solve.  Capacities sit
// on a coarse grid and include 0 and infinity, so capacity-share and
// MinWeighted ties occur.
void expect_repropagation_matches_fresh_solve(const StreamDag& dag, std::uint64_t seed) {
  const FlowSolver flow(dag);
  const std::size_t n = dag.node_count();
  const std::vector<NodeId>& order = dag.topo_order();
  common::Rng rng(seed);
  auto redraw_from = [&](std::vector<double>& caps, std::size_t from) {
    for (std::size_t pos = from; pos < order.size(); ++pos) {
      if (dag.component(order[pos]).kind != ComponentKind::kOperator) continue;
      const auto step = rng.uniform_int(0, 40);
      caps[order[pos]] = step == 40 ? kInf : 50.0 * static_cast<double>(step);
    }
  };
  FlowResult result;
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> rates(n, 0.0);
    for (NodeId id : dag.sources()) rates[id] = 25.0 * static_cast<double>(rng.uniform_int(0, 80));
    for (std::size_t p = 0; p <= order.size(); ++p) {
      std::vector<double> caps(n, 0.0);
      redraw_from(caps, 0);
      flow.solve(rates, caps, result);
      redraw_from(caps, p);
      flow.solve(rates, caps, result, p);
      const FlowResult fresh = flow.solve(rates, caps);
      EXPECT_EQ(bits(result.edge_flow), bits(fresh.edge_flow)) << "trial " << trial << " p " << p;
      EXPECT_EQ(bits(result.edge_demand), bits(fresh.edge_demand)) << "trial " << trial;
      EXPECT_EQ(bits(result.node_inflow), bits(fresh.node_inflow)) << "trial " << trial;
      EXPECT_EQ(bits(result.node_demand), bits(fresh.node_demand)) << "trial " << trial;
      EXPECT_EQ(bits(result.node_outflow), bits(fresh.node_outflow)) << "trial " << trial;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(result.app_throughput),
                std::bit_cast<std::uint64_t>(fresh.app_throughput))
          << "trial " << trial << " p " << p;
    }
  }
}

TEST(FlowSolver, RepropagationMatchesFreshSolve) {
  expect_repropagation_matches_fresh_solve(workloads::yahoo().dag, 5);
  expect_repropagation_matches_fresh_solve(BranchFixture().dag, 6);
}

// tangent() at random points, capacities on a coarse grid so that shares
// meet demands and MinWeighted inputs tie: wherever f_t is piecewise linear
// in an operator's capacity, moving that capacity by up to `step` changes
// f_t by exactly slope * step.  Returns the number of linear cases seen.
int expect_tangent_exact_to_next_kink(const StreamDag& dag, std::uint64_t seed) {
  const FlowSolver flow(dag);
  const std::size_t n = dag.node_count();
  const std::vector<NodeId>& order = dag.topo_order();
  common::Rng rng(seed);
  FlowResult result;
  int linear = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> rates(n, 0.0);
    for (NodeId id : dag.sources()) rates[id] = 25.0 * static_cast<double>(rng.uniform_int(0, 80));
    std::vector<double> caps(n, 0.0);
    for (NodeId id : dag.operators()) caps[id] = 50.0 * static_cast<double>(rng.uniform_int(0, 40));
    flow.solve(rates, caps, result);
    const double f = result.app_throughput;
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      const NodeId id = order[pos];
      if (dag.component(id).kind != ComponentKind::kOperator) continue;
      const FlowTangent tangent = flow.tangent(caps, result, pos);
      if (!tangent.linear) continue;
      ++linear;
      EXPECT_GT(tangent.step, 0.0);
      const double reach = std::isfinite(tangent.step) ? tangent.step : 1e4;
      for (double h : {0.5 * reach, reach}) {
        std::vector<double> moved = caps;
        moved[id] += h;
        const double expected = f + tangent.slope * h;
        EXPECT_NEAR(flow.app_throughput(rates, moved), expected,
                    1e-9 * std::max({1.0, std::abs(f), std::abs(expected)}))
            << "trial " << trial << " operator " << id << " h " << h;
      }
    }
  }
  return linear;
}

TEST(FlowSolver, TangentIsExactUpToTheNextKink) {
  // Linear and MinWeighted edges only: every slice of every trial.
  EXPECT_EQ(expect_tangent_exact_to_next_kink(workloads::yahoo().dag, 21), 6 * 40);
  EXPECT_EQ(expect_tangent_exact_to_next_kink(workloads::join().dag, 22), 1 * 40);
  EXPECT_EQ(expect_tangent_exact_to_next_kink(workloads::window().dag, 23), 2 * 40);
  EXPECT_EQ(expect_tangent_exact_to_next_kink(workloads::wordcount().dag, 24), 2 * 40);
  // a's slice is linear only where its shares saturate.
  EXPECT_GT(expect_tangent_exact_to_next_kink(BranchFixture(/*custom_edge=*/true).dag, 25), 4 * 40);
}

// src1 -> a, src2 -> b, both into j whose edge to the sink is min(e_a, e_b).
struct TieFixture {
  StreamDag dag;
  NodeId s1, s2, a, b, j;

  TieFixture() {
    s1 = dag.add_source("s1");
    s2 = dag.add_source("s2");
    a = dag.add_operator("a");
    b = dag.add_operator("b");
    j = dag.add_operator("j");
    const NodeId sink = dag.add_sink("sink");
    dag.add_edge(s1, a, identity_fn());
    dag.add_edge(s2, b, identity_fn());
    dag.add_edge(a, j, identity_fn());
    dag.add_edge(b, j, identity_fn());
    dag.add_edge(j, sink, MinWeightedFn({1.0, 1.0}));
    dag.validate();
  }

  [[nodiscard]] FlowTangent tangent_in(NodeId op, double ya, double yb) const {
    const FlowSolver flow(dag);
    std::vector<double> rates(dag.node_count(), 0.0);
    rates[s1] = 1000.0;
    rates[s2] = 1000.0;
    std::vector<double> caps(dag.node_count(), kInf);
    caps[a] = ya;
    caps[b] = yb;
    FlowResult result;
    flow.solve(rates, caps, result);
    const std::vector<NodeId>& order = dag.topo_order();
    const auto pos = static_cast<std::size_t>(std::find(order.begin(), order.end(), op) -
                                              order.begin());
    return flow.tangent(caps, result, pos);
  }
};

TEST(FlowSolver, TangentFollowsTheMinWeightedInputThatLeads) {
  const TieFixture fx;
  // Tied inputs part as either grows, so the other keeps the minimum:
  // f' = 0, no kink ahead but the grown operator's own, where its share
  // meets its demand of 1000.  min_weighted_index names a, the first
  // input, on the tie; as a grows, b leads.
  for (NodeId grown : {fx.a, fx.b}) {
    const FlowTangent t = fx.tangent_in(grown, 100.0, 100.0);
    EXPECT_EQ(t.slope, 0.0) << grown;
    EXPECT_EQ(t.step, 900.0) << grown;
  }
  // b below a leads until it reaches a's 100.
  FlowTangent t = fx.tangent_in(fx.b, 100.0, 90.0);
  EXPECT_EQ(t.slope, 1.0);
  EXPECT_EQ(t.step, 10.0);
  // a above b rises away from the minimum.
  t = fx.tangent_in(fx.a, 100.0, 90.0);
  EXPECT_EQ(t.slope, 0.0);
  EXPECT_EQ(t.step, 900.0);
}

TEST(FlowSolver, TangentStopsWhereATanhOrCustomEdgeMoves) {
  const BranchFixture fx(/*custom_edge=*/true);
  const FlowSolver flow(fx.dag);
  std::vector<double> rates(fx.dag.node_count(), 0.0);
  rates[fx.src] = 500.0;
  std::vector<double> caps(fx.dag.node_count(), 100.0);
  FlowResult result;
  flow.solve(rates, caps, result);
  const std::vector<NodeId>& order = fx.dag.topo_order();
  auto position = [&](NodeId id) {
    return static_cast<std::size_t>(std::find(order.begin(), order.end(), id) - order.begin());
  };
  // a's shares feed b's Tanh edge and c's custom edge.
  EXPECT_FALSE(flow.tangent(caps, result, position(fx.a)).linear);
  // b's Tanh edge and c's custom edge are their own: only the inputs feed
  // those demands, and the capacity share is linear.
  EXPECT_TRUE(flow.tangent(caps, result, position(fx.b)).linear);
  EXPECT_TRUE(flow.tangent(caps, result, position(fx.c)).linear);
  // A saturated a moves nothing downstream.
  caps[fx.a] = 1e5;
  flow.solve(rates, caps, result);
  const FlowTangent t = flow.tangent(caps, result, position(fx.a));
  EXPECT_TRUE(t.linear);
  EXPECT_EQ(t.slope, 0.0);
}

TEST(FlowSolver, ZeroSourceRateGivesZeroFlow) {
  ChainFixture fx;
  const FlowSolver flow(fx.dag);
  const FlowResult r = flow.solve(fx.rates(0.0), fx.caps(100.0, 100.0));
  EXPECT_DOUBLE_EQ(r.app_throughput, 0.0);
}

TEST(FlowSolver, RejectsWrongSizes) {
  ChainFixture fx;
  const FlowSolver flow(fx.dag);
  EXPECT_THROW(flow.solve(std::vector<double>{1.0}, fx.caps(1.0, 1.0)),
               std::invalid_argument);
  const std::vector<double> zeros(fx.dag.node_count(), 0.0);
  const std::vector<double> one{1.0};
  EXPECT_THROW(flow.lagrangian(one, fx.caps(1.0, 1.0), zeros, zeros), std::invalid_argument);
  EXPECT_THROW(flow.lagrangian(fx.rates(1.0), fx.caps(1.0, 1.0), one, zeros),
               std::invalid_argument);
  EXPECT_THROW(flow.lagrangian(fx.rates(1.0), fx.caps(1.0, 1.0), zeros, one),
               std::invalid_argument);

  // Re-propagating needs a result already solved on this DAG, and a start
  // position inside the topological order.
  FlowResult unsized;
  EXPECT_THROW(flow.solve(fx.rates(1.0), fx.caps(1.0, 1.0), unsized, 1), std::invalid_argument);
  FlowResult solved;
  flow.solve(fx.rates(1.0), fx.caps(1.0, 1.0), solved);
  EXPECT_THROW(flow.solve(fx.rates(1.0), fx.caps(1.0, 1.0), solved, fx.dag.node_count() + 1),
               std::invalid_argument);

  // tangent() differentiates in an operator's capacity at a solved point.
  const std::vector<NodeId>& order = fx.dag.topo_order();
  const auto position = [&](NodeId id) {
    return static_cast<std::size_t>(std::find(order.begin(), order.end(), id) - order.begin());
  };
  EXPECT_THROW((void)flow.tangent(fx.caps(1.0, 1.0), unsized, position(fx.a)),
               std::invalid_argument);
  EXPECT_THROW((void)flow.tangent(fx.caps(1.0, 1.0), solved, position(fx.src)),
               std::invalid_argument);
  EXPECT_THROW((void)flow.tangent(fx.caps(1.0, 1.0), solved, position(fx.sink)),
               std::invalid_argument);
  EXPECT_THROW((void)flow.tangent(fx.caps(1.0, 1.0), solved, order.size()), std::invalid_argument);
  EXPECT_THROW((void)flow.tangent(one, solved, position(fx.a)), std::invalid_argument);
}

// Property: for random chains, flow is conserved: every operator's outflow
// never exceeds capacity nor demand, and sink inflow equals last outflow.
class RandomChainFlow : public ::testing::TestWithParam<int> {};

TEST_P(RandomChainFlow, TruncationInvariants) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 1);
  StreamDag dag;
  const NodeId src = dag.add_source("src");
  const int ops = 1 + static_cast<int>(rng.uniform_int(0, 4));
  std::vector<NodeId> chain{src};
  for (int i = 0; i < ops; ++i) chain.push_back(dag.add_operator("op" + std::to_string(i)));
  const NodeId sink = dag.add_sink("sink");
  chain.push_back(sink);
  for (std::size_t i = 0; i + 1 < chain.size(); ++i)
    dag.add_edge(chain[i], chain[i + 1], selectivity_fn(rng.uniform(0.3, 2.5)));
  dag.validate();

  const FlowSolver flow(dag);
  std::vector<double> rates(dag.node_count(), 0.0);
  rates[src] = rng.uniform(10.0, 1000.0);
  std::vector<double> caps(dag.node_count(), 0.0);
  for (NodeId id : dag.operators()) caps[id] = rng.uniform(5.0, 800.0);

  const FlowResult r = flow.solve(rates, caps);
  for (NodeId id : dag.operators()) {
    EXPECT_LE(r.node_outflow[id], caps[id] + 1e-9);
    EXPECT_LE(r.node_outflow[id], r.node_demand[id] + 1e-9);
  }
  EXPECT_DOUBLE_EQ(r.app_throughput, r.node_inflow[dag.sink()]);
  // Monotonicity: doubling all capacities cannot reduce throughput.
  std::vector<double> caps2 = caps;
  for (double& c : caps2) c *= 2.0;
  EXPECT_GE(flow.app_throughput(rates, caps2), r.app_throughput - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomChains, RandomChainFlow, ::testing::Range(0, 25));

}  // namespace
}  // namespace dragster::dag
