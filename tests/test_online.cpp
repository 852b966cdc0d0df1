// Tests for the online-optimization layer: dual updates (eq. 15), budget
// projection (Pi_X), regret/fit meters, and both target-capacity solvers on
// hand-analyzable DAGs; the saddle-point solve is also checked bit for bit
// against a per-probe lagrangian() reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>

#include "common/rng.hpp"
#include "dag/flow_solver.hpp"
#include "dag/stream_dag.hpp"
#include "dag/throughput_fn.hpp"
#include "online/budget.hpp"
#include "online/dual_state.hpp"
#include "online/meters.hpp"
#include "online/ogd.hpp"
#include "online/saddle_point.hpp"
#include "test_support.hpp"
#include "workloads/workloads.hpp"

namespace dragster::online {
namespace {

// Source -> A (sel 2.0) -> B (sel 1.0) -> Sink; node ids returned.
struct ChainFixture {
  dag::StreamDag dag;
  dag::NodeId src, a, b, sink;

  ChainFixture() {
    src = dag.add_source("src");
    a = dag.add_operator("a");
    b = dag.add_operator("b");
    sink = dag.add_sink("sink");
    dag.add_edge(src, a, dag::selectivity_fn(1.0));
    dag.add_edge(a, b, dag::selectivity_fn(2.0));
    dag.add_edge(b, sink, dag::selectivity_fn(1.0));
    dag.validate();
  }
};

TEST(DualState, MatchesEquation15) {
  DualState dual(3, /*gamma0=*/1.0, /*decay=*/false);
  std::vector<double> l{0.5, -1.0, 2.0};
  dual.update(l);
  EXPECT_DOUBLE_EQ(dual.lambda()[0], 0.5);
  EXPECT_DOUBLE_EQ(dual.lambda()[1], 0.0);  // clipped at zero
  EXPECT_DOUBLE_EQ(dual.lambda()[2], 2.0);
  dual.update(l);
  EXPECT_DOUBLE_EQ(dual.lambda()[0], 1.0);
  EXPECT_DOUBLE_EQ(dual.lambda()[2], 4.0);
}

TEST(DualState, GammaDecaysAsInverseSqrt) {
  DualState dual(1, 2.0, /*decay=*/true);
  EXPECT_DOUBLE_EQ(dual.gamma_at(1), 2.0);
  EXPECT_DOUBLE_EQ(dual.gamma_at(4), 1.0);
  EXPECT_DOUBLE_EQ(dual.gamma_at(16), 0.5);
}

TEST(DualState, DecayingStepAppliesPerSlot) {
  DualState dual(1, 1.0, /*decay=*/true);
  const std::vector<double> l{1.0};
  dual.update(l);  // t=1: +1
  dual.update(l);  // t=2: +1/sqrt(2)
  EXPECT_NEAR(dual.lambda()[0], 1.0 + 1.0 / std::sqrt(2.0), 1e-12);
}

TEST(DualState, IgnoresNonFiniteEntriesAndResets) {
  DualState dual(2, 1.0, false);
  dual.update(std::vector<double>{1.0, -1e18});
  EXPECT_DOUBLE_EQ(dual.lambda()[0], 1.0);
  dual.update(std::vector<double>{std::numeric_limits<double>::quiet_NaN(), 0.0});
  EXPECT_DOUBLE_EQ(dual.lambda()[0], 1.0);  // NaN slot untouched
  dual.reset();
  EXPECT_DOUBLE_EQ(dual.norm(), 0.0);
  EXPECT_EQ(dual.slot(), 0u);
}

TEST(DualState, CountsSkippedNonFiniteConstraintEntries) {
  // The supervisor's health check watches this counter: every NaN/inf entry
  // the update skipped must be counted, cumulatively and per update.
  DualState dual(3, 1.0, false);
  EXPECT_EQ(dual.non_finite_observations(), 0u);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  dual.update(std::vector<double>{nan, 1.0, inf});
  EXPECT_EQ(dual.non_finite_observations(), 2u);
  EXPECT_EQ(dual.last_update_non_finite(), 2u);
  EXPECT_DOUBLE_EQ(dual.lambda()[1], 1.0);  // finite entry still applied
  dual.update(std::vector<double>{1.0, 1.0, 1.0});
  EXPECT_EQ(dual.non_finite_observations(), 2u);  // cumulative, unchanged
  EXPECT_EQ(dual.last_update_non_finite(), 0u);   // per-update view resets
  dual.update(std::vector<double>{-inf, 0.0, 0.0});
  EXPECT_EQ(dual.non_finite_observations(), 3u);
  EXPECT_EQ(dual.last_update_non_finite(), 1u);
  dual.reset();
  EXPECT_EQ(dual.non_finite_observations(), 0u);
  EXPECT_EQ(dual.last_update_non_finite(), 0u);
}

TEST(Budget, MaxTasksAndFeasibility) {
  Budget budget(1.6, 0.10);  // the paper's tight budget: 16 pods
  EXPECT_TRUE(budget.limited());
  EXPECT_EQ(budget.max_total_tasks(), 16u);
  EXPECT_TRUE(budget.feasible_total(16));
  EXPECT_FALSE(budget.feasible_total(17));
  EXPECT_TRUE(budget.feasible(std::vector<int>{10, 6}));
  EXPECT_FALSE(budget.feasible(std::vector<int>{10, 7}));
}

TEST(Budget, UnlimitedAcceptsEverything) {
  const Budget budget = Budget::unlimited(0.10);
  EXPECT_FALSE(budget.limited());
  EXPECT_TRUE(budget.feasible_total(1e9));
}

TEST(Budget, ProjectionShavesLargestFirst) {
  Budget budget(1.0, 0.10);  // 10 pods
  const auto projected = budget.project({8, 3, 2});
  int total = 0;
  for (int t : projected) total += t;
  EXPECT_EQ(total, 10);
  // The largest allocation absorbs the cuts.
  EXPECT_EQ(projected[0], 5);
  EXPECT_EQ(projected[1], 3);
  EXPECT_EQ(projected[2], 2);
}

TEST(Budget, ProjectionKeepsFeasibleUntouched) {
  Budget budget(1.0, 0.10);
  const auto projected = budget.project({2, 3});
  EXPECT_EQ(projected[0], 2);
  EXPECT_EQ(projected[1], 3);
}

TEST(Budget, ProjectionRequiresOneTaskEach) {
  Budget budget(0.2, 0.10);  // 2 pods
  EXPECT_THROW(budget.project({1, 1, 1}), std::invalid_argument);
  EXPECT_THROW(budget.project({0, 2}), std::invalid_argument);
}

TEST(RegretMeter, AccumulatesAndAverages) {
  RegretMeter meter;
  meter.record(10.0, 8.0);
  meter.record(10.0, 10.0);
  meter.record(10.0, 7.0);
  EXPECT_DOUBLE_EQ(meter.total(), 5.0);
  EXPECT_DOUBLE_EQ(meter.average(), 5.0 / 3.0);
  EXPECT_EQ(meter.series().size(), 3u);
  EXPECT_DOUBLE_EQ(meter.series()[1], 2.0);
}

TEST(FitMeter, TracksSignedAndViolation) {
  FitMeter meter;
  meter.record(std::vector<double>{2.0, -1.0});
  meter.record(std::vector<double>{-3.0, 0.5});
  EXPECT_DOUBLE_EQ(meter.total_signed(), -1.5);
  EXPECT_DOUBLE_EQ(meter.total_violation(), 2.5);
  EXPECT_DOUBLE_EQ(meter.average_violation(), 1.25);
}

TEST(SaddlePoint, TargetsJustEnoughCapacityOnChain) {
  ChainFixture fx;
  const dag::FlowSolver flow(fx.dag);
  const std::size_t n = fx.dag.node_count();
  std::vector<double> rates(n, 0.0);
  rates[fx.src] = 100.0;  // A demand = 200 (sel 2), B demand = 200
  std::vector<double> lambda(n, 0.0);
  std::vector<double> start(n, 0.0);
  start[fx.a] = 500.0;  // grossly over-provisioned
  start[fx.b] = 50.0;   // under-provisioned
  std::vector<double> observed_demand(n, 0.0);
  observed_demand[fx.a] = 200.0;
  observed_demand[fx.b] = 200.0;

  SaddlePointOptions options;
  options.y_max = 1000.0;
  const SaddlePointSolver solver(options);
  const auto y = solver.solve(flow, rates, lambda, start, observed_demand);
  EXPECT_NEAR(y[fx.a], 200.0, 5.0);
  EXPECT_NEAR(y[fx.b], 200.0, 5.0);
}

TEST(SaddlePoint, LambdaRaisesTargetsForViolatedConstraint) {
  ChainFixture fx;
  const dag::FlowSolver flow(fx.dag);
  const std::size_t n = fx.dag.node_count();
  std::vector<double> rates(n, 0.0);
  rates[fx.src] = 100.0;
  std::vector<double> lambda(n, 0.0);
  lambda[fx.b] = 2.0;  // persistent violation at B
  std::vector<double> start(n, 100.0);
  std::vector<double> observed_demand(n, 0.0);
  observed_demand[fx.a] = 200.0;
  observed_demand[fx.b] = 350.0;  // observed demand incl. backlog exceeds model

  SaddlePointOptions options;
  options.y_max = 1000.0;
  const SaddlePointSolver solver(options);
  const auto y = solver.solve(flow, rates, lambda, start, observed_demand);
  EXPECT_NEAR(y[fx.b], 350.0, 5.0);  // pushed to cover the observed demand
}

TEST(SaddlePoint, RespectsBox) {
  ChainFixture fx;
  const dag::FlowSolver flow(fx.dag);
  const std::size_t n = fx.dag.node_count();
  std::vector<double> rates(n, 0.0);
  rates[fx.src] = 1e6;
  std::vector<double> lambda(n, 10.0);
  std::vector<double> start(n, 0.0);
  std::vector<double> demand(n, 1e7);
  SaddlePointOptions options;
  options.y_max = 300.0;
  const SaddlePointSolver solver(options);
  const auto y = solver.solve(flow, rates, lambda, start, demand);
  EXPECT_LE(y[fx.a], 300.0 + 1e-9);
  EXPECT_LE(y[fx.b], 300.0 + 1e-9);
}

TEST(SaddlePoint, RejectsFloorBelowEpsilon) {
  SaddlePointOptions options;
  options.capacity_regularization = 0.1;
  options.lambda_floor = 0.05;
  EXPECT_THROW(SaddlePointSolver{options}, std::invalid_argument);
}

TEST(SaddlePoint, RejectsWrongSizes) {
  ChainFixture fx;
  const dag::FlowSolver flow(fx.dag);
  const SaddlePointSolver solver;
  const std::vector<double> full(fx.dag.node_count(), 1.0);
  const std::vector<double> short_by_one(fx.dag.node_count() - 1, 1.0);
  EXPECT_THROW((void)solver.solve(flow, short_by_one, full, full, full), std::invalid_argument);
  EXPECT_THROW((void)solver.solve(flow, full, short_by_one, full, full), std::invalid_argument);
  EXPECT_THROW((void)solver.solve(flow, full, full, short_by_one, full), std::invalid_argument);
  EXPECT_THROW((void)solver.solve(flow, full, full, full, short_by_one), std::invalid_argument);
}

// SaddlePointSolver::solve as it was when every probe called lagrangian()
// on a full solve: the reference its value-only probes, which re-solve only
// downstream of the searched operator, must match bit for bit.
std::vector<double> per_probe_lagrangian_solve(const SaddlePointOptions& options,
                                               const dag::FlowSolver& flow,
                                               std::span<const double> source_rates,
                                               std::span<const double> lambda,
                                               std::span<const double> y_start,
                                               std::span<const double> observed_demand) {
  const dag::StreamDag& dag = flow.dag();
  const std::size_t n = dag.node_count();
  std::vector<double> lam(n, 0.0);
  for (dag::NodeId id = 0; id < n; ++id) {
    if (dag.component(id).kind != dag::ComponentKind::kOperator) continue;
    lam[id] = std::max(lambda[id], options.lambda_floor);
  }

  std::vector<double> y(y_start.begin(), y_start.end());
  for (dag::NodeId id = 0; id < n; ++id) {
    if (dag.component(id).kind == dag::ComponentKind::kOperator)
      y[id] = std::clamp(y[id], options.y_min, options.y_max);
  }

  const double eps = options.capacity_regularization;
  auto objective = [&](const std::vector<double>& cap) {
    const dag::LagrangianResult lr = flow.lagrangian(source_rates, cap, lam, observed_demand);
    double value = lr.value;
    for (dag::NodeId id = 0; id < n; ++id)
      if (dag.component(id).kind == dag::ComponentKind::kOperator) value -= eps * cap[id];
    return value;
  };

  for (int round = 0; round < options.rounds; ++round) {
    double moved = 0.0;
    for (dag::NodeId id : dag.topo_order()) {
      if (dag.component(id).kind != dag::ComponentKind::kOperator) continue;
      double lo = options.y_min;
      double hi = options.y_max;
      for (int it = 0; it < options.ternary_iterations && hi - lo > 1e-9 * options.y_max; ++it) {
        const double m1 = lo + (hi - lo) / 3.0;
        const double m2 = hi - (hi - lo) / 3.0;
        y[id] = m1;
        const double v1 = objective(y);
        y[id] = m2;
        const double v2 = objective(y);
        if (v1 > v2) {
          hi = m2;
        } else {
          lo = m1;
        }
      }
      const double candidate = 0.5 * (lo + hi);
      moved = std::max(moved, std::abs(candidate - y[id]));
      y[id] = candidate;
    }
    if (moved < 1e-6 * options.y_max) break;
  }
  return y;
}

struct SaddleCase {
  SaddlePointOptions options;
  std::vector<double> rates;
  std::vector<double> lambda;
  std::vector<double> y_start;
  std::vector<double> demand;
};

// Seeded draws that reach the solver's edge cases: multipliers at zero,
// below and above the floor; starts outside the box; zero and very large
// source rates; and observed demand on the first ternary probe points, on a
// coarse grid, or anywhere.  Entries the solver must ignore hold junk.  A
// shallow ternary search leaves a wide last bracket, so `moved` passes the
// stop test and later sweeps run on the flows the earlier ones left.
std::vector<SaddleCase> saddle_cases(const dag::StreamDag& dag, std::uint64_t seed, int count) {
  common::Rng rng(seed);
  const std::size_t n = dag.node_count();
  std::vector<SaddleCase> cases;
  for (int trial = 0; trial < count; ++trial) {
    SaddleCase c;
    const double y_max = 1000.0 * static_cast<double>(rng.uniform_int(1, 200));
    c.options.y_max = y_max;
    if (rng.uniform_int(0, 3) == 0) c.options.y_min = 0.1 * y_max;
    if (rng.uniform_int(0, 2) == 0)
      c.options.ternary_iterations = static_cast<int>(rng.uniform_int(5, 12));
    const double lo = c.options.y_min;
    const double first_m1 = lo + (y_max - lo) / 3.0;
    const double first_m2 = y_max - (y_max - lo) / 3.0;
    c.rates.assign(n, 0.0);
    c.lambda.assign(n, 0.0);
    c.y_start.assign(n, 0.0);
    c.demand.assign(n, 0.0);
    for (dag::NodeId id = 0; id < n; ++id) {
      c.lambda[id] = rng.uniform(-1.0, 5.0);
      c.y_start[id] = rng.uniform(-y_max, 2.0 * y_max);
      c.demand[id] = rng.uniform(-y_max, 2.0 * y_max);
    }
    for (dag::NodeId id : dag.sources()) {
      const auto pick = rng.uniform_int(0, 3);
      c.rates[id] = pick == 0 ? 0.0 : pick == 1 ? 1e9 : rng.uniform(0.0, y_max);
    }
    for (dag::NodeId id : dag.operators()) {
      const auto pick_lambda = rng.uniform_int(0, 2);
      c.lambda[id] = pick_lambda == 0   ? 0.0
                     : pick_lambda == 1 ? rng.uniform(0.0, c.options.lambda_floor)
                                        : rng.uniform(c.options.lambda_floor, 3.0);
      c.y_start[id] = rng.uniform(-0.5 * y_max, 1.5 * y_max);
      const auto pick_demand = rng.uniform_int(0, 3);
      c.demand[id] = pick_demand == 0   ? first_m1
                     : pick_demand == 1 ? first_m2
                     : pick_demand == 2 ? 500.0 * static_cast<double>(rng.uniform_int(0, 400))
                                        : rng.uniform(0.0, y_max);
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

void expect_matches_reference(const dag::StreamDag& dag, std::uint64_t seed) {
  const dag::FlowSolver flow(dag);
  int trial = 0;
  for (const SaddleCase& c : saddle_cases(dag, seed, 40)) {
    const SaddlePointSolver solver(c.options);
    const std::vector<double> y = solver.solve(flow, c.rates, c.lambda, c.y_start, c.demand);
    const std::vector<double> reference =
        per_probe_lagrangian_solve(c.options, flow, c.rates, c.lambda, c.y_start, c.demand);
    EXPECT_EQ(dag::bits(y), dag::bits(reference)) << "trial " << trial;
    ++trial;
  }
}

TEST(SaddlePoint, MatchesPerProbeLagrangianReference) {
  expect_matches_reference(workloads::yahoo().dag, 31);
  expect_matches_reference(workloads::join().dag, 32);
  expect_matches_reference(workloads::window().dag, 33);
  expect_matches_reference(workloads::wordcount().dag, 34);
  expect_matches_reference(dag::BranchFixture().dag, 35);
}

// FNV-1a over the bits of every target vector for a fixed seeded batch.
std::uint64_t saddle_bits_hash(const dag::StreamDag& dag, std::uint64_t seed) {
  const dag::FlowSolver flow(dag);
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const SaddleCase& c : saddle_cases(dag, seed, 40)) {
    const SaddlePointSolver solver(c.options);
    for (double v : solver.solve(flow, c.rates, c.lambda, c.y_start, c.demand)) {
      const auto word = std::bit_cast<std::uint64_t>(v);
      for (int byte = 0; byte < 8; ++byte) {
        hash ^= (word >> (8 * byte)) & 0xffU;
        hash *= 0x100000001b3ULL;
      }
    }
  }
  return hash;
}

TEST(SaddlePoint, TargetBitsArePinned) {
  // Produced by the solver whose every probe ran a full lagrangian(), so the
  // solver and the reference above cannot drift together.  Linear and
  // MinWeighted edges only involve exactly rounded + * / min, so the pin
  // holds on any libm.
  EXPECT_EQ(saddle_bits_hash(workloads::yahoo().dag, 41), 0x5c8b9ca98a6c8bd6ULL);
  EXPECT_EQ(saddle_bits_hash(workloads::join().dag, 42), 0x1f24b25406dcc627ULL);
  EXPECT_EQ(saddle_bits_hash(workloads::window().dag, 43), 0x918a9f92263a1063ULL);
  EXPECT_EQ(saddle_bits_hash(workloads::wordcount().dag, 44), 0x2ae10eca962ee6a8ULL);
}

TEST(Ogd, StepMovesTowardDemandAndIsBounded) {
  ChainFixture fx;
  const dag::FlowSolver flow(fx.dag);
  const std::size_t n = fx.dag.node_count();
  std::vector<double> rates(n, 0.0);
  rates[fx.src] = 100.0;
  std::vector<double> lambda(n, 1.0);
  std::vector<double> prev(n, 0.0);
  prev[fx.a] = 50.0;
  prev[fx.b] = 50.0;
  std::vector<double> demand(n, 0.0);
  demand[fx.a] = 200.0;
  demand[fx.b] = 200.0;

  OgdOptions options;
  options.eta = 30.0;
  const OgdSolver solver(options);
  const auto y = solver.step(flow, rates, lambda, prev, demand);
  // Under-provisioned: gradient ~ (df/dy + lambda) > 0, step bounded by eta*g.
  EXPECT_GT(y[fx.a], prev[fx.a]);
  EXPECT_GT(y[fx.b], prev[fx.b]);
  EXPECT_LT(y[fx.a], prev[fx.a] + options.eta * 3.0);
}

TEST(Ogd, RegularizerShrinksOverProvisionedCapacity) {
  ChainFixture fx;
  const dag::FlowSolver flow(fx.dag);
  const std::size_t n = fx.dag.node_count();
  std::vector<double> rates(n, 0.0);
  rates[fx.src] = 100.0;
  std::vector<double> lambda(n, 0.0);
  std::vector<double> prev(n, 0.0);
  prev[fx.a] = 500.0;  // far above the 200 demand
  prev[fx.b] = 500.0;
  std::vector<double> demand(n, 200.0);

  OgdOptions options;
  options.eta = 100.0;
  options.capacity_regularization = 0.3;
  const OgdSolver solver(options);
  const auto y = solver.step(flow, rates, lambda, prev, demand);
  EXPECT_NEAR(y[fx.a], 500.0 - 30.0, 1e-6);
}

TEST(Ogd, ProjectsOntoBox) {
  ChainFixture fx;
  const dag::FlowSolver flow(fx.dag);
  const std::size_t n = fx.dag.node_count();
  std::vector<double> rates(n, 0.0);
  rates[fx.src] = 1000.0;
  std::vector<double> lambda(n, 5.0);
  std::vector<double> prev(n, 90.0);
  std::vector<double> demand(n, 1e6);
  OgdOptions options;
  options.eta = 1e9;
  options.y_max = 100.0;
  const OgdSolver solver(options);
  const auto y = solver.step(flow, rates, lambda, prev, demand);
  EXPECT_DOUBLE_EQ(y[fx.a], 100.0);
}

}  // namespace
}  // namespace dragster::online
