// Tests for the experiment harness: run bookkeeping, convergence detection
// semantics, phase analytics, and the parallel runner.
#include <gtest/gtest.h>

#include "baselines/static_controller.hpp"
#include "common/error.hpp"
#include "core/dragster_controller.hpp"
#include "experiments/scenario.hpp"
#include "workloads/workloads.hpp"

namespace dragster::experiments {
namespace {

streamsim::EngineOptions fast() {
  streamsim::EngineOptions o;
  o.slot_duration_s = 120.0;
  o.checkpoint_pause_s = 10.0;
  o.sample_interval_s = 30.0;
  return o;
}

SlotSummary make_slot(std::size_t index, bool near_optimal) {
  SlotSummary s;
  s.slot = index;
  s.near_optimal = near_optimal;
  return s;
}

TEST(Scenario, RunProducesOneSummaryPerSlot) {
  const auto spec = workloads::group();
  streamsim::Engine engine = spec.make_engine(true, fast(), 2);
  baselines::StaticController controller;
  ScenarioOptions options;
  options.slots = 5;
  const RunResult run = run_scenario(engine, controller, options, spec.name);
  EXPECT_EQ(run.slots.size(), 5u);
  EXPECT_EQ(run.workload, "Group");
  EXPECT_EQ(run.controller, "Static");
  EXPECT_GT(run.total_tuples, 0.0);
  EXPECT_GT(run.total_cost, 0.0);
  EXPECT_FALSE(run.series.empty());
  // Series timestamps strictly increase across slot boundaries.
  for (std::size_t i = 1; i < run.series.size(); ++i)
    EXPECT_GT(run.series[i].first, run.series[i - 1].first);
}

TEST(Scenario, OracleScoresEachSlot) {
  const auto spec = workloads::group();
  streamsim::Engine engine = spec.make_engine(true, fast(), 2);
  baselines::StaticController controller;
  ScenarioOptions options;
  options.slots = 3;
  const RunResult run = run_scenario(engine, controller, options, spec.name);
  for (const auto& slot : run.slots) {
    EXPECT_NEAR(slot.oracle_throughput, 16'500.0, 50.0);
    EXPECT_FALSE(slot.near_optimal);  // stuck at 1 task vs 6k capacity
  }
}

TEST(Scenario, TotalsMatchSlotSums) {
  const auto spec = workloads::group();
  streamsim::Engine engine = spec.make_engine(false, fast(), 2);
  baselines::StaticController controller;
  ScenarioOptions options;
  options.slots = 4;
  const RunResult run = run_scenario(engine, controller, options, spec.name);
  double tuples = 0.0, cost = 0.0;
  for (const auto& slot : run.slots) {
    tuples += slot.tuples;
    cost += slot.cost;
  }
  EXPECT_DOUBLE_EQ(run.total_tuples, tuples);
  EXPECT_DOUBLE_EQ(run.total_cost, cost);
}

TEST(Scenario, MakeControllerBuildsEveryNamedScheme) {
  const online::Budget budget = online::Budget::unlimited(0.10);
  EXPECT_EQ(make_controller("Dragster", budget)->name(), "Dragster(saddle)");
  for (const char* name : {"Dragster(saddle)", "Dragster(ogd)", "DS2", "Dhalion"})
    EXPECT_EQ(make_controller(name, budget)->name(), name);
}

TEST(Scenario, MakeControllerRejectsAnUnknownName) {
  // A typo must stop the run, never fall back to another scheme.
  for (const char* name : {"dragster", "Dragster(sadle)", "DS-2", ""})
    EXPECT_THROW((void)make_controller(name, online::Budget::unlimited(0.10)), Error) << name;
}

TEST(Convergence, FindsFirstPersistentRun) {
  std::vector<SlotSummary> slots;
  for (bool good : {false, true, false, true, true, true, true})
    slots.push_back(make_slot(slots.size(), good));
  const auto found = convergence_slot(slots, 0, slots.size());
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 3u);
}

TEST(Convergence, TransientSpikeDoesNotCount) {
  // Three lucky slots early, then mostly bad: the 75% stability filter
  // rejects the spike.
  std::vector<SlotSummary> slots;
  for (bool good : {true, true, true, false, false, false, false, false, false, false})
    slots.push_back(make_slot(slots.size(), good));
  EXPECT_FALSE(convergence_slot(slots, 0, slots.size()).has_value());
}

TEST(Convergence, PersistenceClipsAtWindowEnd) {
  std::vector<SlotSummary> slots;
  for (bool good : {false, false, true}) slots.push_back(make_slot(slots.size(), good));
  const auto found = convergence_slot(slots, 0, slots.size());
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, 2u);
}

TEST(Convergence, MinutesCountTheConvergedSlot) {
  std::vector<SlotSummary> slots;
  for (bool good : {false, true, true, true}) slots.push_back(make_slot(slots.size(), good));
  const auto minutes = convergence_minutes(slots, 0, slots.size(), 10.0);
  ASSERT_TRUE(minutes.has_value());
  EXPECT_DOUBLE_EQ(*minutes, 20.0);  // converged at slot 1 -> 2 slots * 10 min
}

TEST(Convergence, WindowedSearchIgnoresOtherPhases) {
  std::vector<SlotSummary> slots;
  for (bool good : {true, true, true, false, false, true, true, true})
    slots.push_back(make_slot(slots.size(), good));
  const auto in_second_phase = convergence_slot(slots, 3, 8);
  ASSERT_TRUE(in_second_phase.has_value());
  EXPECT_EQ(*in_second_phase, 5u);
}

TEST(PhaseStats, AggregatesWindow) {
  RunResult run;
  for (int i = 0; i < 6; ++i) {
    SlotSummary s = make_slot(static_cast<std::size_t>(i), i >= 2);
    s.tuples = 1e8;
    s.cost = 2.0;
    run.slots.push_back(s);
  }
  const PhaseStats stats = analyze_phase(run, 0, 6, 10.0);
  EXPECT_DOUBLE_EQ(stats.tuples, 6e8);
  EXPECT_DOUBLE_EQ(stats.cost, 12.0);
  EXPECT_DOUBLE_EQ(stats.cost_per_billion, 12.0 / 0.6);
  ASSERT_TRUE(stats.convergence_min.has_value());
  EXPECT_DOUBLE_EQ(*stats.convergence_min, 30.0);
  EXPECT_NEAR(stats.avg_rate, 6e8 / 3600.0, 1e-6);
}

TEST(PhaseStats, EmptyPhaseIsZero) {
  RunResult run;
  const PhaseStats stats = analyze_phase(run, 0, 0, 10.0);
  EXPECT_DOUBLE_EQ(stats.tuples, 0.0);
  EXPECT_FALSE(stats.convergence_min.has_value());
}

}  // namespace
}  // namespace dragster::experiments
