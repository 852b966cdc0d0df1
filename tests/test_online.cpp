// Tests for the online-optimization layer: dual updates (eq. 15), budget
// projection (Pi_X), regret/fit meters, and both target-capacity solvers on
// hand-analyzable DAGs.  The saddle-point solve is also checked against
// dense references: its kink walk must leave no coordinate that can raise
// L, and its ternary fallback must match a per-probe lagrangian() search
// bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <optional>
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

// Every global operator new in this binary is counted while
// `count_allocations` is set, so a test can see what one solve allocates.
namespace {
bool count_allocations = false;
std::size_t allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  if (count_allocations) ++allocations;
  if (void* block = std::malloc(size > 0 ? size : 1)) return block;
  throw std::bad_alloc();
}
// Out of line, so the compiler does not pair the inlined free() with the
// operator new call sites: the replaced operator new above is malloc-backed.
[[gnu::noinline]] void operator delete(void* block) noexcept { std::free(block); }
[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept { std::free(block); }

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

// The solver's effective multipliers: lambda floored on every operator.
std::vector<double> floored_lambda(const dag::StreamDag& dag, const SaddlePointOptions& options,
                                   std::span<const double> lambda) {
  std::vector<double> lam(dag.node_count(), 0.0);
  for (dag::NodeId id : dag.operators()) lam[id] = std::max(lambda[id], options.lambda_floor);
  return lam;
}

std::vector<double> clamped_start(const dag::StreamDag& dag, const SaddlePointOptions& options,
                                  std::span<const double> y_start) {
  std::vector<double> y(y_start.begin(), y_start.end());
  for (dag::NodeId id : dag.operators()) y[id] = std::clamp(y[id], options.y_min, options.y_max);
  return y;
}

// What the saddle step maximizes, L(y, lam) - eps * sum_i y_i, through a
// full lagrangian() with the multipliers already floored.
double objective(const SaddlePointOptions& options, const dag::FlowSolver& flow,
                 std::span<const double> source_rates, std::span<const double> lam,
                 std::span<const double> y, std::span<const double> observed_demand) {
  double value = flow.lagrangian(source_rates, y, lam, observed_demand).value;
  for (dag::NodeId id : flow.dag().operators()) value -= options.capacity_regularization * y[id];
  return value;
}

// The ternary search of coordinate `id` from `y` as it was when every probe
// called lagrangian() on a full solve.
double per_probe_ternary(const SaddlePointOptions& options, const dag::FlowSolver& flow,
                         std::span<const double> source_rates, std::span<const double> lam,
                         std::vector<double> y, std::span<const double> observed_demand,
                         dag::NodeId id) {
  double lo = options.y_min;
  double hi = options.y_max;
  for (int it = 0; it < options.ternary_iterations && hi - lo > 1e-9 * options.y_max; ++it) {
    const double m1 = lo + (hi - lo) / 3.0;
    const double m2 = hi - (hi - lo) / 3.0;
    y[id] = m1;
    const double v1 = objective(options, flow, source_rates, lam, y, observed_demand);
    y[id] = m2;
    const double v2 = objective(options, flow, source_rates, lam, y, observed_demand);
    if (v1 > v2) {
      hi = m2;
    } else {
      lo = m1;
    }
  }
  return 0.5 * (lo + hi);
}

// Cyclic coordinate ascent with per_probe_ternary on every slice, sweeping
// until no coordinate moves by 1e-6 * y_max from its value before its search.
std::vector<double> converged_ternary_solve(const SaddlePointOptions& options,
                                            const dag::FlowSolver& flow,
                                            std::span<const double> source_rates,
                                            std::span<const double> lambda,
                                            std::span<const double> y_start,
                                            std::span<const double> observed_demand) {
  const dag::StreamDag& dag = flow.dag();
  const std::vector<double> lam = floored_lambda(dag, options, lambda);
  std::vector<double> y = clamped_start(dag, options, y_start);
  for (int round = 0; round < options.rounds; ++round) {
    double moved = 0.0;
    for (dag::NodeId id : dag.topo_order()) {
      if (dag.component(id).kind != dag::ComponentKind::kOperator) continue;
      const double candidate =
          per_probe_ternary(options, flow, source_rates, lam, y, observed_demand, id);
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
// shallow ternary search leaves a wide last bracket on a slice that takes
// it, so later sweeps run on the flows the earlier ones left.
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

// Whether the walk on the slice of the operator at topological position
// `pos` gives way to the ternary search at its start, y_min, with the other
// coordinates at `at`.
bool slice_takes_search(const SaddlePointOptions& options, const dag::FlowSolver& flow,
                        std::span<const double> source_rates, std::vector<double> at,
                        std::size_t pos) {
  at[flow.dag().topo_order()[pos]] = options.y_min;
  dag::FlowResult state;
  flow.solve(source_rates, at, state);
  return !flow.tangent(at, state, pos).linear;
}

// Every step the solver makes by ternary search must match per_probe_ternary
// bit for bit, and it must stop exactly when no coordinate moved.  Solving
// with rounds = 1, 2, ... exposes the point each step starts from: the
// coordinates before it hold this sweep's values, the rest the last one's.
// Returns the number of steps compared.
int expect_searches_match_reference(const dag::StreamDag& dag, std::uint64_t seed) {
  const dag::FlowSolver flow(dag);
  const std::vector<dag::NodeId>& order = dag.topo_order();
  int compared = 0;
  int trial = 0;
  for (const SaddleCase& c : saddle_cases(dag, seed, 40)) {
    const std::vector<double> lam = floored_lambda(dag, c.options, c.lambda);
    std::vector<double> previous = clamped_start(dag, c.options, c.y_start);
    for (int round = 1; round <= c.options.rounds; ++round) {
      SaddlePointOptions upto = c.options;
      upto.rounds = round;
      const std::vector<double> y =
          SaddlePointSolver(upto).solve(flow, c.rates, c.lambda, c.y_start, c.demand);
      std::vector<double> at = previous;
      double moved = 0.0;
      for (std::size_t pos = 0; pos < order.size(); ++pos) {
        const dag::NodeId id = order[pos];
        if (dag.component(id).kind != dag::ComponentKind::kOperator) continue;
        if (slice_takes_search(c.options, flow, c.rates, at, pos)) {
          const double reference =
              per_probe_ternary(c.options, flow, c.rates, lam, at, c.demand, id);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(y[id]), std::bit_cast<std::uint64_t>(reference))
              << "trial " << trial << " round " << round << " operator " << id;
          ++compared;
        }
        moved = std::max(moved, std::abs(y[id] - previous[id]));
        at[id] = y[id];
      }
      if (moved < 1e-6 * c.options.y_max) {
        if (round < c.options.rounds) {
          upto.rounds = round + 1;
          EXPECT_EQ(dag::bits(SaddlePointSolver(upto).solve(flow, c.rates, c.lambda, c.y_start,
                                                            c.demand)),
                    dag::bits(y))
              << "trial " << trial << ": a sweep that moved nothing did not stop the solve";
        }
        break;
      }
      previous = y;
    }
    ++trial;
  }
  return compared;
}

// src -> a -> b -> c -> sink with Tanh edges b -> c and c -> sink: the
// slices of a and b are not piecewise linear while their out-edge flows
// move; c's is.
dag::StreamDag tanh_chain() {
  dag::StreamDag dag;
  const dag::NodeId src = dag.add_source("src");
  const dag::NodeId a = dag.add_operator("a");
  const dag::NodeId b = dag.add_operator("b");
  const dag::NodeId c = dag.add_operator("c");
  const dag::NodeId sink = dag.add_sink("sink");
  dag.add_edge(src, a, dag::identity_fn());
  dag.add_edge(a, b, dag::selectivity_fn(1.5));
  dag.add_edge(b, c, dag::TanhFn(5e4, {1.0 / 2e4}));
  dag.add_edge(c, sink, dag::TanhFn(4e4, {1.0 / 3e4}));
  dag.validate();
  return dag;
}

TEST(SaddlePoint, MatchesPerProbeLagrangianReference) {
  // 65 and 124 searched steps; a step the walk takes is checked by
  // ReachesCoordinatewiseMaximum instead.
  EXPECT_GT(expect_searches_match_reference(dag::BranchFixture(/*custom_edge=*/true).dag, 35), 40);
  EXPECT_GT(expect_searches_match_reference(tanh_chain(), 36), 80);
}

// The largest L on the slice of `id` through `y`: the best of a 2,001-point
// grid over the box, refined by 200 ternary iterations between the grid
// points around it.
double slice_maximum(const SaddlePointOptions& options, const dag::FlowSolver& flow,
                     std::span<const double> source_rates, std::span<const double> lam,
                     std::vector<double> y, std::span<const double> observed_demand,
                     dag::NodeId id) {
  constexpr int kGrid = 2000;
  const double width = (options.y_max - options.y_min) / kGrid;
  auto at = [&](double v) {
    y[id] = v;
    return objective(options, flow, source_rates, lam, y, observed_demand);
  };
  int best_k = 0;
  double best = at(options.y_min);
  for (int k = 1; k <= kGrid; ++k) {
    const double value = at(k == kGrid ? options.y_max : options.y_min + k * width);
    if (value > best) {
      best = value;
      best_k = k;
    }
  }
  double lo = options.y_min + std::max(best_k - 1, 0) * width;
  double hi = std::min(options.y_min + (best_k + 1) * width, options.y_max);
  for (int it = 0; it < 200; ++it) {
    const double m1 = lo + (hi - lo) / 3.0;
    const double m2 = hi - (hi - lo) / 3.0;
    if (at(m1) > at(m2)) {
      hi = m2;
    } else {
      lo = m1;
    }
  }
  return std::max(best, at(0.5 * (lo + hi)));
}

// No single coordinate of the solver's answer can raise L: the exact step
// leaves every piecewise-linear slice at its maximum.  `searched` names a
// slice that a Tanh or Custom edge makes non-linear; it is left out.
void expect_coordinatewise_maximum(const dag::StreamDag& dag, std::uint64_t seed,
                                   std::optional<dag::NodeId> searched = std::nullopt) {
  const dag::FlowSolver flow(dag);
  int trial = 0;
  for (const SaddleCase& c : saddle_cases(dag, seed, 24)) {
    const std::vector<double> y =
        SaddlePointSolver(c.options).solve(flow, c.rates, c.lambda, c.y_start, c.demand);
    const std::vector<double> lam = floored_lambda(dag, c.options, c.lambda);
    const double value = objective(c.options, flow, c.rates, lam, y, c.demand);
    const double tolerance = 1e-9 * std::max(1.0, std::abs(value));
    for (dag::NodeId id : dag.operators()) {
      if (id == searched) continue;
      EXPECT_LE(slice_maximum(c.options, flow, c.rates, lam, y, c.demand, id), value + tolerance)
          << "trial " << trial << " operator " << id << " at " << y[id];
    }
    ++trial;
  }
}

TEST(SaddlePoint, ReachesCoordinatewiseMaximum) {
  expect_coordinatewise_maximum(workloads::yahoo().dag, 51);
  expect_coordinatewise_maximum(workloads::join().dag, 52);
  expect_coordinatewise_maximum(workloads::window().dag, 53);
  expect_coordinatewise_maximum(workloads::wordcount().dag, 54);
  const dag::BranchFixture fx;
  expect_coordinatewise_maximum(fx.dag, 55, fx.a);  // a's flows reach the Tanh edge b -> d
}

// Against coordinate ascent with a 48-iteration ternary search on every
// slice and the same stop rule: both stop at coordinatewise maxima of a
// non-smooth L, which may differ in the last digits.
void expect_near_converged_ternary(const dag::StreamDag& dag, std::uint64_t seed,
                                   double& worst_y, double& worst_value) {
  const dag::FlowSolver flow(dag);
  for (SaddleCase c : saddle_cases(dag, seed, 30)) {
    c.options.ternary_iterations = 48;
    const std::vector<double> y =
        SaddlePointSolver(c.options).solve(flow, c.rates, c.lambda, c.y_start, c.demand);
    const std::vector<double> reference =
        converged_ternary_solve(c.options, flow, c.rates, c.lambda, c.y_start, c.demand);
    for (dag::NodeId id : dag.operators())
      worst_y = std::max(worst_y, std::abs(y[id] - reference[id]) / c.options.y_max);
    const std::vector<double> lam = floored_lambda(dag, c.options, c.lambda);
    const double value = objective(c.options, flow, c.rates, lam, y, c.demand);
    const double reference_value = objective(c.options, flow, c.rates, lam, reference, c.demand);
    worst_value = std::max(worst_value, std::abs(value - reference_value) /
                                            std::max(1.0, std::abs(reference_value)));
  }
}

TEST(SaddlePoint, MatchesConvergedTernaryReference) {
  double worst_y = 0.0;
  double worst_value = 0.0;
  expect_near_converged_ternary(workloads::yahoo().dag, 61, worst_y, worst_value);
  expect_near_converged_ternary(workloads::join().dag, 62, worst_y, worst_value);
  expect_near_converged_ternary(workloads::window().dag, 63, worst_y, worst_value);
  expect_near_converged_ternary(workloads::wordcount().dag, 64, worst_y, worst_value);
  expect_near_converged_ternary(dag::BranchFixture().dag, 65, worst_y, worst_value);
  // Over 2,000 draws (400 per DAG) the worst cases were 3.9e-7 * y_max and
  // 4.4e-7 relative: within the reference's own stop rule, which lets a
  // coordinate stop up to 1e-6 * y_max short.
  EXPECT_LE(worst_y, 2e-6);
  EXPECT_LE(worst_value, 2e-6);
}

// src -> op -> t0..t3 -> (virtual) sink, with op's inflow R split by alpha
// = 0.2, 0.5, 0.3 and 0 toward demands 0.2 R, R, 0.9 R and R.  op's slice
// has a kink at each h_k / alpha_k: R, 2 R and 3 R; t3 gets no capacity
// and adds none.  op -> t0 is a custom form (linear in effect, and
// op's own edge, so op's slice stays exact) that counts its evaluations:
// one for every solve that re-propagates op.
struct CountingFan {
  dag::StreamDag dag;
  dag::NodeId src, op;
  std::vector<dag::NodeId> ends;
  int solves = 0;

  CountingFan() {
    src = dag.add_source("src");
    op = dag.add_operator("op");
    dag.add_edge(src, op, dag::identity_fn());
    const double alphas[] = {0.2, 0.5, 0.3, 0.0};
    const double selectivities[] = {0.2, 1.0, 0.9, 1.0};
    const char* names[] = {"t0", "t1", "t2", "t3"};
    for (int k = 0; k < 4; ++k) {
      ends.push_back(dag.add_operator(names[k]));
      if (k == 0) {
        dag.add_edge(op, ends.back(),
                     dag::CustomFn(
                         1,
                         [this](std::span<const double> e) {
                           ++solves;
                           return 0.2 * e[0];
                         },
                         [](std::span<const double>, double adjoint, std::span<double> adjoints) {
                           adjoints[0] += 0.2 * adjoint;
                         }),
                     alphas[k]);
      } else {
        dag.add_edge(op, ends.back(), dag::selectivity_fn(selectivities[k]), alphas[k]);
      }
    }
    dag.validate();
  }
  CountingFan(const CountingFan&) = delete;
  CountingFan& operator=(const CountingFan&) = delete;
};

struct FanStep {
  double y;  ///< op's target
  int hops;  ///< re-solves of op after the walk's start at y_min
};

// One sweep from op = y_min and every t_k = y_max, so op's walk sees no
// downstream kink: op's target and the hops its walk took.
FanStep walk_fan(double rate, SaddlePointOptions options, double demand = 0.0,
                 double lambda = 0.0) {
  CountingFan fx;
  const dag::FlowSolver flow(fx.dag);
  const std::size_t n = fx.dag.node_count();
  std::vector<double> rates(n, 0.0);
  rates[fx.src] = rate;
  std::vector<double> lambdas(n, 0.0);
  lambdas[fx.op] = lambda;
  std::vector<double> start(n, options.y_max);
  start[fx.op] = options.y_min;
  std::vector<double> demands(n, 0.0);
  demands[fx.op] = demand;
  options.rounds = 1;
  fx.solves = 0;
  const std::vector<double> y =
      SaddlePointSolver(options).solve(flow, rates, lambdas, start, demands);
  // One full solve before the sweep, one at the walk's start, one per hop.
  return {y[fx.op], fx.solves - 2};
}

TEST(SaddlePoint, ExactStepHopsOncePerKink) {
  SaddlePointOptions options;
  options.y_max = 1000.0;
  // f' falls from 1.0 to 0.8, 0.3 and 0 at R, 2R and 3R; the alpha = 0
  // edge adds no kink.  A ternary search would re-solve op 2 * 48 times.
  const FanStep step = walk_fan(100.0, options);
  EXPECT_EQ(step.hops, 3);
  EXPECT_NEAR(step.y, 300.0, 1e-9);
}

TEST(SaddlePoint, ExactStepAllocatesNothingPerHop) {
  // Walks that cross no kink, three kinks in one sweep, and two kinks in
  // each of two sweeps allocate the same fixed buffers: nothing per hop.
  CountingFan fx;
  const dag::FlowSolver flow(fx.dag);
  const std::size_t n = fx.dag.node_count();
  std::vector<double> rates(n, 0.0);
  rates[fx.src] = 100.0;
  const std::vector<double> zeros(n, 0.0);
  auto allocations_of = [&](double y_min, int rounds) {
    SaddlePointOptions options;
    options.y_max = 1000.0;
    options.y_min = y_min;
    options.rounds = rounds;
    const SaddlePointSolver solver(options);
    std::vector<double> start(n, options.y_max);
    start[fx.op] = y_min;
    count_allocations = true;
    allocations = 0;
    const std::vector<double> y = solver.solve(flow, rates, zeros, start, zeros);
    count_allocations = false;
    EXPECT_NEAR(y[fx.op], std::max(y_min, 300.0), 1e-9);
    return allocations;
  };
  const std::size_t fixed = allocations_of(350.0, 1);
  EXPECT_EQ(allocations_of(0.0, 1), fixed);
  EXPECT_EQ(allocations_of(150.0, 6), fixed);
}

TEST(SaddlePoint, ExactStepStartsAtPositiveFloor) {
  SaddlePointOptions options;
  options.y_max = 1000.0;
  options.y_min = 150.0;  // the kink at R is already behind the walk
  FanStep step = walk_fan(100.0, options);
  EXPECT_EQ(step.hops, 2);
  EXPECT_NEAR(step.y, 300.0, 1e-9);
  options.y_min = 350.0;  // every kink is: L falls from the floor on
  step = walk_fan(100.0, options);
  EXPECT_EQ(step.hops, 0);
  EXPECT_EQ(step.y, 350.0);
}

TEST(SaddlePoint, ExactStepOnZeroAndUnboundedRates) {
  SaddlePointOptions options;
  options.y_max = 1000.0;
  // No flow: f is flat, so the walk stops at y_min, or climbs the hinge to
  // the observed demand.
  FanStep step = walk_fan(0.0, options);
  EXPECT_EQ(step.hops, 0);
  EXPECT_EQ(step.y, 0.0);
  step = walk_fan(0.0, options, /*demand=*/40.0, /*lambda=*/1.0);
  EXPECT_EQ(step.hops, 1);
  EXPECT_EQ(step.y, 40.0);
  // Demand beyond the box: one hop, with no kink, to y_max.
  for (double rate : {1e9, std::numeric_limits<double>::infinity()}) {
    step = walk_fan(rate, options);
    EXPECT_EQ(step.hops, 1) << rate;
    EXPECT_EQ(step.y, options.y_max) << rate;
  }
}

TEST(SaddlePoint, ExactStepLandsOnDemandAtOwnEdgeKink) {
  // d equals the last kink, 0.9 R / 0.3, as the same division computes it.
  // For R = 562.29 and 284.22 the share 0.3 d rounds below 0.9 R, so the
  // kink has a rounding remainder; for 3.3 it rounds above.  The walk must
  // stop on d, bit for bit, whether its own hops land a rounding short of
  // the kink, on it or past it; two kinks a rounding apart cost at most
  // one hop more.
  for (double rate : {562.29, 284.22, 3.3, 70.3, 100.0 / 3.0}) {
    for (double y_min : {0.0, 0.999 * rate}) {
      SaddlePointOptions options;
      options.y_max = 1e4;
      options.y_min = y_min;
      const double demand = 0.9 * rate / 0.3;
      const FanStep step = walk_fan(rate, options, demand, /*lambda=*/2.0);
      EXPECT_EQ(step.y, demand) << rate << " from " << y_min;
      EXPECT_GE(step.hops, 1) << rate;
      EXPECT_LE(step.hops, 4) << rate << " from " << y_min;
    }
  }
}

TEST(SaddlePoint, ExactStepStopsAtDownstreamMinWeightedSwitch) {
  // BranchFixture with every other operator pinned well above its flows by
  // a hinge: on c's slice the sink edge min(e_d, 0.8 e_c) follows c until
  // 0.8 y_c reaches d's flow, 400 tanh(R / 300), which is below 0.8 R.
  const dag::BranchFixture fx;
  const dag::FlowSolver flow(fx.dag);
  const std::size_t n = fx.dag.node_count();
  const double rate = 600.0;
  std::vector<double> rates(n, 0.0);
  rates[fx.src] = rate;
  std::vector<double> lambda(n, 1.0);
  std::vector<double> start(n, 5e3);
  std::vector<double> demand(n, 1e4);
  lambda[fx.c] = 0.0;
  demand[fx.c] = 0.0;
  SaddlePointOptions options;
  options.y_max = 1e5;
  const std::vector<double> y =
      SaddlePointSolver(options).solve(flow, rates, lambda, start, demand);
  const double d_flow = 400.0 * std::tanh(rate / 300.0);
  ASSERT_LT(d_flow, 0.8 * rate);
  EXPECT_NEAR(y[fx.c], d_flow / 0.8, 1e-9 * d_flow);
  for (dag::NodeId id : {fx.b, fx.d, fx.j}) EXPECT_EQ(y[id], 1e4) << id;
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
  // Produced by the converged kink walk, which ReachesCoordinatewiseMaximum
  // and MatchesConvergedTernaryReference check against dense references.
  // Linear and MinWeighted edges only involve exactly rounded + * / min, so
  // the pin holds on any libm.
  EXPECT_EQ(saddle_bits_hash(workloads::yahoo().dag, 41), 0xcfe14a6e531d98abULL);
  EXPECT_EQ(saddle_bits_hash(workloads::join().dag, 42), 0x70f59185becd8626ULL);
  EXPECT_EQ(saddle_bits_hash(workloads::window().dag, 43), 0x0ad328de4f9249dcULL);
  EXPECT_EQ(saddle_bits_hash(workloads::wordcount().dag, 44), 0x591aaaa6d0237799ULL);
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
