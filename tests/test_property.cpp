// Property-based invariant harness: a seeded sweep of randomized scenarios —
// fault plans sampled from the chaos grammar, random admission limits,
// controller crashes, supervised / managed / bare layer combinations — each
// checked against invariants that must hold on *every* run, not just the
// curated golden ones:
//   * every issued actuation epoch terminates exactly once (at most one
//     in flight per operator at teardown),
//   * operator backlog is never negative (read from the trace stream),
//   * with a limited budget the deployed allocation never exceeds it,
//   * snapshot -> restore mid-run is bit-identical to the uninterrupted run.
// Everything derives from the sweep index, so a failure reproduces exactly.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>

#include "actuation/actuation.hpp"
#include "common/rng.hpp"
#include "core/dragster_controller.hpp"
#include "experiments/scenario.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "faults/fleet_fault_plan.hpp"
#include "fleet/fleet.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "parallel/task_pool.hpp"
#include "resilience/snapshot.hpp"
#include "resilience/supervisor.hpp"
#include "transport/transport.hpp"
#include "workloads/workloads.hpp"

namespace dragster {
namespace {

constexpr std::size_t kScenarios = 56;  // the sweep; >= 50 per the test plan

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Every epoch in the audit trail terminated exactly once, the per-operator
/// counters agree with it, and at most one epoch per operator is still live
/// (the same invariant fig10 gates its exit code on).
void expect_epochs_terminate_once(const actuation::ActuationManager& manager) {
  struct Counts {
    std::size_t applied = 0, rolled = 0, superseded = 0, live = 0, total = 0;
  };
  std::map<dag::NodeId, Counts> counts;
  for (const actuation::EpochRecord& record : manager.records()) {
    Counts& c = counts[record.op];
    c.total += 1;
    switch (record.outcome) {
      case actuation::EpochOutcome::kApplied: c.applied += 1; break;
      case actuation::EpochOutcome::kRolledBack: c.rolled += 1; break;
      case actuation::EpochOutcome::kSuperseded: c.superseded += 1; break;
      case actuation::EpochOutcome::kInFlight: c.live += 1; break;
    }
  }
  for (const actuation::OperatorStats& stats : manager.operator_stats()) {
    SCOPED_TRACE("operator " + stats.name);
    const Counts& c = counts[stats.op];
    EXPECT_LE(c.live, 1u);
    EXPECT_EQ(c.live == 1, manager.in_flight(stats.op));
    EXPECT_EQ(stats.issued, c.total);
    EXPECT_EQ(stats.applied, c.applied);
    EXPECT_EQ(stats.rolled_back, c.rolled);
    EXPECT_EQ(stats.superseded, c.superseded);
    EXPECT_EQ(stats.issued, c.applied + c.rolled + c.superseded + c.live);
  }
}

/// Greps every `"key":<number>` occurrence out of the JSONL trace — the
/// stream is the oracle, so invariants read straight off it.
std::vector<double> trace_values(const std::string& trace, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  std::vector<double> values;
  for (std::size_t pos = trace.find(needle); pos != std::string::npos;
       pos = trace.find(needle, pos + needle.size()))
    values.push_back(std::strtod(trace.c_str() + pos + needle.size(), nullptr));
  return values;
}

TEST(PropertySweep, RandomizedScenariosUpholdAllInvariants) {
  const workloads::WorkloadSpec spec = workloads::wordcount();
  std::size_t managed_runs = 0, supervised_runs = 0, limited_runs = 0, faulted_runs = 0;

  for (std::size_t i = 0; i < kScenarios; ++i) {
    SCOPED_TRACE("scenario " + std::to_string(i));
    // Every scenario also samples a TaskPool size from its own stream (so the
    // scenario parameters below are unchanged): the invariants are exercised
    // across the serial inline path and real fan-out alike, and by the
    // fixed-order reduction contract the pool size cannot change what any
    // assertion sees — only which code path computed it.
    constexpr std::size_t kPoolSizes[] = {1, 2, 4, 8};
    common::Rng pool_rng(0xB001 + i);
    parallel::TaskPool::set_global_threads(
        kPoolSizes[static_cast<std::size_t>(pool_rng.uniform_int(0, 3))]);
    common::Rng rng(0xD5A000 + i);
    const std::uint64_t seed = rng.next_u64();
    const auto slots = static_cast<std::size_t>(rng.uniform_int(10, 16));
    const bool supervised = rng.uniform() < 0.5;
    const bool managed = rng.uniform() < 0.5;
    const bool limited = rng.uniform() < 0.4;
    // Tight enough to bind (the unconstrained optimum wants more), loose
    // enough that one task per operator always fits.
    const online::Budget budget =
        limited ? online::Budget(0.10 * static_cast<double>(rng.uniform_int(6, 14)), 0.10)
                : online::Budget::unlimited(0.10);

    // Chaos plan: probabilities cranked well above the defaults so short
    // horizons still see faults, with the kinds matched to the layers in
    // play (controller crashes need a controller to crash, scheduler faults
    // need a scheduler).
    faults::FaultPlan::SampleOptions sample;
    sample.horizon_slots = slots;
    sample.warmup_slots = 2;
    sample.crash_prob = 0.08;
    sample.straggler_prob = 0.06;
    sample.ckptfail_prob = 0.05;
    sample.dropout_prob = 0.06;
    sample.ctrlcrash_prob = supervised ? 0.08 : 0.04;
    sample.schedfail_prob = managed ? 0.06 : 0.0;
    sample.scheddelay_prob = managed ? 0.06 : 0.0;
    for (dag::NodeId id : spec.dag.operators())
      sample.operators.push_back(spec.dag.component(id).name);
    common::Rng chaos = rng.substream("chaos");
    const faults::FaultPlan plan = faults::FaultPlan::sample(chaos, sample);
    faulted_runs += plan.empty() ? 0 : 1;

    streamsim::Engine engine = spec.make_engine(true, streamsim::EngineOptions{}, seed);

    std::optional<actuation::ActuationManager> manager;
    if (managed) {
      actuation::ActuationOptions aopts;
      aopts.sched_latency_mean_slots = rng.uniform(0.0, 2.0);
      aopts.sched_latency_jitter = 0.4;
      aopts.deadline_slots = static_cast<std::size_t>(rng.uniform_int(2, 3));
      aopts.max_retries = static_cast<std::size_t>(rng.uniform_int(1, 2));
      if (rng.uniform() < 0.5)
        aopts.admission.max_total_pods = static_cast<int>(rng.uniform_int(8, 24));
      manager.emplace(engine, aopts, seed);
    }

    core::DragsterOptions dopts;
    dopts.budget = budget;
    std::unique_ptr<core::Controller> controller;
    if (supervised) {
      resilience::SupervisorOptions sup;
      sup.snapshot_every = static_cast<std::size_t>(rng.uniform_int(2, 5));
      sup.budget = budget;
      controller = std::make_unique<resilience::ControllerSupervisor>(
          std::make_unique<core::DragsterController>(dopts), sup);
    } else {
      controller = std::make_unique<core::DragsterController>(dopts);
    }

    obs::Registry registry;
    obs::MemoryTraceSink sink;
    registry.set_trace(&sink);
    faults::FaultInjector injector(plan);
    experiments::ScenarioOptions options;
    options.slots = slots;
    options.budget = budget;
    const experiments::RunResult run =
        experiments::run_scenario(engine, *controller, options, spec.name, &injector,
                                  manager ? &*manager : nullptr, &registry);
    managed_runs += managed ? 1 : 0;
    supervised_runs += supervised ? 1 : 0;
    limited_runs += budget.limited() ? 1 : 0;

    // -- epoch lifecycle ---------------------------------------------------
    if (manager) expect_epochs_terminate_once(*manager);

    // -- backlog, straight from the trace stream ---------------------------
    const std::vector<double> backlogs = trace_values(sink.str(), "backlog");
    ASSERT_EQ(backlogs.size(), slots * spec.dag.operators().size());
    for (double backlog : backlogs) EXPECT_GE(backlog, 0.0);

    // -- budget: the deployed allocation never exceeds sum x_i <= B --------
    // Only where actuation is synchronous: an async rescale can transiently
    // overshoot (one operator's rollback restores its old count while
    // another's scale-up already landed), which is the actuation layer's
    // documented behavior, not a controller violation.
    for (const experiments::SlotSummary& slot : run.slots) {
      SCOPED_TRACE("slot " + std::to_string(slot.slot));
      std::size_t total = 0;
      for (int tasks : slot.tasks) {
        EXPECT_GE(tasks, 1);
        total += static_cast<std::size_t>(tasks);
      }
      if (budget.limited() && !managed) {
        EXPECT_LE(total, budget.max_total_tasks());
      }
      EXPECT_GE(slot.tuples, 0.0);
      EXPECT_GE(slot.cost, 0.0);
    }
  }

  parallel::TaskPool::set_global_threads(0);  // leave the serial default behind

  // The sweep actually mixed the layer combinations it claims to cover.
  EXPECT_GE(managed_runs, kScenarios / 4);
  EXPECT_GE(supervised_runs, kScenarios / 4);
  EXPECT_GE(limited_runs, kScenarios / 8);
  EXPECT_GE(faulted_runs, kScenarios / 2);
}

TEST(PropertySweep, TenThousandSlotSoakKeepsGpStateBounded) {
  // One supervised, managed WordCount job for 10^4 slots under a sampled
  // chaos plan and a binding budget.  The sweep's invariants hold on every
  // slot, and each operator's GP keeps one row per visited configuration:
  // at most max_tasks rows while its sample count runs past a thousand.
  constexpr std::size_t kSlots = 10'000;
  const workloads::WorkloadSpec spec = workloads::wordcount();
  const online::Budget budget(1.2, 0.10);  // 12 tasks: binding for WordCount
  constexpr std::uint64_t kSeed = 0x50A4;

  faults::FaultPlan::SampleOptions sample;
  sample.horizon_slots = kSlots;
  sample.warmup_slots = 20;
  sample.crash_prob = 0.01;
  sample.straggler_prob = 0.01;
  sample.ckptfail_prob = 0.01;
  sample.dropout_prob = 0.01;
  sample.ctrlcrash_prob = 0.005;
  sample.schedfail_prob = 0.005;
  sample.scheddelay_prob = 0.005;
  for (dag::NodeId id : spec.dag.operators())
    sample.operators.push_back(spec.dag.component(id).name);
  common::Rng chaos(kSeed);
  const faults::FaultPlan plan = faults::FaultPlan::sample(chaos, sample);
  ASSERT_GT(plan.size(), 300u);

  // 10 s micro-steps (60 per 10-minute slot) keep 10^4 slots affordable
  // under the sanitizers; the slot, pause and noise model are unchanged.
  streamsim::EngineOptions engine_options;
  engine_options.micro_step_s = 10.0;
  streamsim::Engine engine = spec.make_engine(true, engine_options, kSeed);
  actuation::ActuationOptions aopts;
  aopts.sched_latency_mean_slots = 0.5;
  aopts.sched_latency_jitter = 0.4;
  actuation::ActuationManager manager(engine, aopts, kSeed);
  core::DragsterOptions dopts;
  dopts.budget = budget;
  resilience::SupervisorOptions sup;
  sup.budget = budget;
  resilience::ControllerSupervisor supervisor(std::make_unique<core::DragsterController>(dopts),
                                              sup);
  faults::FaultInjector injector(plan);
  experiments::ScenarioOptions options;
  options.slots = kSlots;
  options.budget = budget;
  experiments::ScenarioRunner runner(engine, supervisor, options, spec.name, &injector, &manager);

  const std::vector<dag::NodeId> ops = spec.dag.operators();
  const auto max_tasks = static_cast<std::size_t>(engine.monitor().max_tasks());
  std::size_t quiet_slots = 0;
  for (std::size_t t = 0; t < kSlots; ++t) {
    runner.step();
    const streamsim::SlotReport& report = engine.monitor().last_report();
    std::size_t deployed = 0;
    bool quiet = true;
    for (dag::NodeId op : ops) {
      ASSERT_GE(report.per_node[op].backlog_end, 0.0) << "slot " << t;
      deployed += static_cast<std::size_t>(engine.tasks(op));
      quiet = quiet && !manager.in_flight(op);
    }
    // Async actuation may overshoot while epochs are live (the sweep's
    // carve-out); once it is quiet the deployment fits the budget.
    if (quiet) {
      ++quiet_slots;
      ASSERT_LE(deployed, budget.max_total_tasks()) << "slot " << t;
    }
    if (t % 1000 != 999) continue;
    const auto* dragster = dynamic_cast<const core::DragsterController*>(&supervisor.inner());
    ASSERT_NE(dragster, nullptr);
    for (dag::NodeId op : ops) {
      const gp::GaussianProcess* model = dragster->gp_for(op);
      ASSERT_NE(model, nullptr) << "slot " << t;
      EXPECT_LE(model->distinct_inputs(), max_tasks) << "slot " << t;
    }
  }
  const experiments::RunResult run = runner.finish();
  ASSERT_EQ(run.slots.size(), kSlots);
  expect_epochs_terminate_once(manager);
  EXPECT_GT(quiet_slots, kSlots / 2);
  ASSERT_TRUE(run.supervisor.has_value());
  EXPECT_GT(run.supervisor->crashes_injected, 10u);
  EXPECT_GT(run.fault_timeline.size(), 300u);

  const auto* dragster = dynamic_cast<const core::DragsterController*>(&supervisor.inner());
  ASSERT_NE(dragster, nullptr);
  for (dag::NodeId op : ops) {
    SCOPED_TRACE(spec.dag.component(op).name);
    const gp::GaussianProcess* model = dragster->gp_for(op);
    ASSERT_NE(model, nullptr);
    EXPECT_GT(model->num_observations(), 1000u);
    EXPECT_LE(model->distinct_inputs(), max_tasks);
  }
}

TEST(PropertySweep, MidRunSnapshotRestoreIsBitIdentical) {
  // Run the controller loop by hand so the snapshot can be cut at an
  // arbitrary slot: the reference run continues untouched, the probe run
  // serializes at slot k, restores into a *fresh* controller, and finishes
  // with it.  Both trajectories must agree to the bit — the contract fig9's
  // snapshot arm and the supervisor's crash recovery both stand on.
  const workloads::WorkloadSpec spec = workloads::wordcount();
  for (std::uint64_t seed : {3u, 11u, 29u, 47u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::size_t slots = 12;
    const std::size_t cut = 3 + static_cast<std::size_t>(seed % 5);

    auto drive = [&](bool restore_at_cut) {
      streamsim::Engine engine = spec.make_engine(true, streamsim::EngineOptions{}, seed);
      auto controller = std::make_unique<core::DragsterController>(core::DragsterOptions{});
      controller->initialize(engine.monitor(), engine);
      std::vector<double> series;
      for (std::size_t t = 0; t < slots; ++t) {
        if (restore_at_cut && t == cut) {
          resilience::SnapshotWriter writer;
          controller->save_state(writer);
          resilience::SnapshotReader reader(writer.str());
          auto restored = std::make_unique<core::DragsterController>(core::DragsterOptions{});
          restored->initialize(engine.monitor(), engine);
          restored->load_state(reader);
          controller = std::move(restored);
        }
        const streamsim::SlotReport& report = engine.run_slot();
        controller->on_slot(engine.monitor(), engine);
        series.push_back(report.throughput_rate);
        series.push_back(report.tuples_processed);
        series.push_back(report.cost);
      }
      return series;
    };

    const std::vector<double> reference = drive(false);
    const std::vector<double> restored = drive(true);
    ASSERT_EQ(reference.size(), restored.size());
    for (std::size_t k = 0; k < reference.size(); ++k)
      EXPECT_EQ(bits(reference[k]), bits(restored[k])) << "sample " << k;
  }
}

TEST(PropertySweep, FleetChaosScenariosUpholdFleetInvariants) {
  // Fleet-scale chaos sweep: each scenario samples a transient fleet fault
  // plan from the grammar (drains, budget cuts, a capped node crash, job
  // crashes) and runs a 10-job fleet on the fault-domain node model.  The
  // invariants hold on *every* sampled plan, not just the curated ones:
  //   * the deployed allocation never exceeds the effective budget (sum of
  //     x_i <= B, with B already net of cuts and node loss),
  //   * no node ever holds more pods than its capacity,
  //   * every brownout-shed job is restored before the horizon (the sample
  //     window closes early enough for cuts and drains to expire),
  //   * the same seed reproduces the run byte-for-byte (trace + metrics).
  constexpr std::size_t kFleetScenarios = 8;
  constexpr std::size_t kJobs = 10;
  std::size_t chaotic_runs = 0, shed_runs = 0;

  const auto suite = workloads::nexmark_suite();
  for (std::size_t i = 0; i < kFleetScenarios; ++i) {
    SCOPED_TRACE("fleet scenario " + std::to_string(i));
    common::Rng rng(0xF1EE70 + i);
    const std::uint64_t seed = rng.next_u64();
    const std::size_t slots = 28 + static_cast<std::size_t>(rng.uniform_int(0, 4));

    std::vector<fleet::JobSpec> specs;
    long long floors = 0;
    for (std::size_t j = 0; j < kJobs; ++j) {
      fleet::JobSpec spec;
      spec.name = "job-" + std::to_string(j);
      spec.workload = suite[j % suite.size()];
      spec.weight = 1.0 + static_cast<double>(j % 4);
      spec.high_rate = j % 2 == 0;
      spec.engine.slot_duration_s = 60.0;
      spec.engine.sample_interval_s = 60.0;
      floors += spec.floor_pods();
      specs.push_back(std::move(spec));
    }

    fleet::FleetOptions options;
    options.slots = slots;
    options.budget_pods = static_cast<int>(floors) + static_cast<int>(rng.uniform_int(4, 8));
    options.limits.max_total_pods = options.budget_pods;
    options.node_capacity = static_cast<int>(rng.uniform_int(3, 4));
    // Two spare nodes over the budget so the single permitted crash never
    // sinks usable capacity below the budget -- restores stay reachable.
    options.node_count =
        (options.budget_pods + options.node_capacity - 1) / options.node_capacity + 2;
    options.restore_hysteresis_slots = static_cast<std::size_t>(rng.uniform_int(1, 2));
    options.seed = seed;

    // Transient chaos: the sample window closes well before the horizon so
    // every drain and cut expires with room for one-per-slot restores.
    faults::FleetFaultPlan::SampleOptions sample;
    sample.horizon_slots = 12;
    sample.warmup_slots = 3;
    sample.nodecrash_prob = 0.06;
    sample.nodedrain_prob = 0.12;
    sample.budgetcut_prob = 0.14;
    sample.jobcrash_prob = 0.06;
    sample.max_crash_nodes = 1;
    sample.max_window_slots = 4;
    sample.cut_fraction = rng.uniform(0.4, 0.7);
    for (const fleet::JobSpec& spec : specs) sample.jobs.push_back(spec.name);
    common::Rng chaos = rng.substream("fleet-chaos");
    const faults::FleetFaultPlan plan = faults::FleetFaultPlan::sample(chaos, sample);
    options.chaos = plan.to_string();
    chaotic_runs += plan.empty() ? 0 : 1;

    auto run_once = [&](obs::Registry& registry) {
      return fleet::run_fleet(specs, options, &registry);
    };
    obs::Registry first_registry, second_registry;
    obs::MemoryTraceSink first_sink, second_sink;
    first_registry.set_trace(&first_sink);
    second_registry.set_trace(&second_sink);
    const fleet::FleetResult result = run_once(first_registry);
    const fleet::FleetResult rerun = run_once(second_registry);

    // -- budget + node capacity, every slot ---------------------------------
    EXPECT_TRUE(result.limits_respected);
    ASSERT_EQ(result.slots.size(), slots);
    for (const fleet::FleetSlot& slot : result.slots) {
      SCOPED_TRACE("slot " + std::to_string(slot.slot));
      ASSERT_GT(slot.effective_budget, 0);
      EXPECT_LE(slot.total_pods, slot.effective_budget);
      EXPECT_LE(slot.effective_budget, options.budget_pods);
      EXPECT_TRUE(slot.nodes_within_capacity);
      EXPECT_TRUE(slot.within_limits);
    }

    // -- every shed job was handed its pods back ----------------------------
    EXPECT_EQ(result.sheds, result.restores);
    for (const fleet::JobOutcome& job : result.jobs) {
      SCOPED_TRACE("job " + job.name);
      EXPECT_EQ(job.state, fleet::JobState::kFinished);
      EXPECT_EQ(job.sheds, job.restores);
      shed_runs += job.sheds > 0 ? 1 : 0;
    }

    // -- same seed, same bytes ----------------------------------------------
    EXPECT_EQ(bits(result.total_tuples), bits(rerun.total_tuples));
    EXPECT_EQ(bits(result.total_cost), bits(rerun.total_cost));
    EXPECT_EQ(result.total_slo_misses, rerun.total_slo_misses);
    ASSERT_GT(first_sink.lines(), 0u);
    EXPECT_EQ(first_sink.str(), second_sink.str());
    EXPECT_EQ(first_registry.expose(), second_registry.expose());
  }

  // The sweep actually exercised what it claims to cover.
  EXPECT_GE(chaotic_runs, kFleetScenarios / 2);
  EXPECT_GE(shed_runs, 1u);
}

TEST(PropertySweep, TransportChaosScenariosUpholdInvariants) {
  // Unreliable-control-plane sweep: each scenario samples a transport config
  // (lossy telemetry, lossy or clean command/ack wires, a scheduled
  // partition, randomized watchdog thresholds) and runs the full scenario
  // loop over it, half the time with the actuation layer in play so
  // transport delivery retries compose with epoch admission retries.  The
  // standing invariants hold under every sampled wire:
  //   * every issued actuation epoch terminates exactly once,
  //   * operator backlog is never negative,
  //   * with a limited budget and a clean synchronous command path the
  //     deployed allocation never exceeds sum x_i <= B (a lossy command wire
  //     inherits the async-actuation carve-out: interleaved old/new epochs
  //     may transiently overshoot),
  //   * the same seed reproduces the run bit-for-bit.
  constexpr std::size_t kTransportScenarios = 10;
  const workloads::WorkloadSpec spec = workloads::wordcount();
  std::size_t partitioned_runs = 0, lossy_command_runs = 0, managed_runs = 0;

  for (std::size_t i = 0; i < kTransportScenarios; ++i) {
    SCOPED_TRACE("transport scenario " + std::to_string(i));
    common::Rng rng(0x7A4057 + i);
    const std::uint64_t seed = rng.next_u64();
    const auto slots = static_cast<std::size_t>(rng.uniform_int(10, 14));
    const bool managed = rng.uniform() < 0.5;
    const bool limited = rng.uniform() < 0.4;
    const online::Budget budget =
        limited ? online::Budget(0.10 * static_cast<double>(rng.uniform_int(6, 14)), 0.10)
                : online::Budget::unlimited(0.10);

    transport::TransportOptions topts;
    topts.telemetry.drop_prob = rng.uniform(0.0, 0.4);
    topts.telemetry.duplicate_prob = rng.uniform(0.0, 0.3);
    topts.telemetry.delay_mean_slots = rng.uniform(0.0, 1.5);
    topts.telemetry.delay_jitter = 0.5;
    topts.telemetry.reorder_window_slots = static_cast<std::size_t>(rng.uniform_int(0, 2));
    const bool partitioned = rng.uniform() < 0.5;
    if (partitioned) {
      const auto start = static_cast<std::size_t>(rng.uniform_int(3, 6));
      topts.telemetry.partitions.push_back(
          {start, static_cast<std::size_t>(rng.uniform_int(2, 4))});
    }
    const bool lossy_command = rng.uniform() < 0.5;
    if (lossy_command) {
      topts.command.drop_prob = rng.uniform(0.0, 0.3);
      topts.command.duplicate_prob = rng.uniform(0.0, 0.3);
      topts.command.delay_mean_slots = rng.uniform(0.0, 1.0);
      topts.ack.drop_prob = rng.uniform(0.0, 0.3);
    }
    topts.guard.open_after_misses = static_cast<std::size_t>(rng.uniform_int(2, 4));
    topts.guard.rule_fallback_after = static_cast<std::size_t>(rng.uniform_int(2, 6));
    partitioned_runs += partitioned ? 1 : 0;
    lossy_command_runs += lossy_command ? 1 : 0;
    managed_runs += managed ? 1 : 0;

    const std::uint64_t wire_seed = rng.substream("wire").next_u64();
    actuation::ActuationOptions aopts;
    aopts.sched_latency_mean_slots = 1.0;
    aopts.deadline_slots = 3;
    core::DragsterOptions dopts;
    dopts.budget = budget;
    experiments::ScenarioOptions options;
    options.slots = slots;
    options.budget = budget;

    streamsim::Engine engine = spec.make_engine(true, streamsim::EngineOptions{}, seed);
    std::optional<actuation::ActuationManager> manager;
    if (managed) manager.emplace(engine, aopts, seed);
    core::DragsterController controller(dopts);
    transport::TransportHarness harness(topts, wire_seed);
    obs::Registry registry;
    obs::MemoryTraceSink sink;
    registry.set_trace(&sink);
    const experiments::RunResult run =
        experiments::run_scenario(engine, controller, options, spec.name, nullptr,
                                  manager ? &*manager : nullptr, &registry, &harness);

    // -- epoch lifecycle: transport retries never double-terminate ----------
    if (manager) expect_epochs_terminate_once(*manager);

    // -- backlog, straight from the trace stream ----------------------------
    const std::vector<double> backlogs = trace_values(sink.str(), "backlog");
    ASSERT_EQ(backlogs.size(), slots * spec.dag.operators().size());
    for (double backlog : backlogs) EXPECT_GE(backlog, 0.0);

    // -- budget -------------------------------------------------------------
    for (const experiments::SlotSummary& slot : run.slots) {
      SCOPED_TRACE("slot " + std::to_string(slot.slot));
      std::size_t total = 0;
      for (int tasks : slot.tasks) {
        EXPECT_GE(tasks, 1);
        total += static_cast<std::size_t>(tasks);
      }
      if (budget.limited() && !managed && !lossy_command) {
        EXPECT_LE(total, budget.max_total_tasks());
      }
    }

    // -- same seed, same bytes ----------------------------------------------
    streamsim::Engine engine2 = spec.make_engine(true, streamsim::EngineOptions{}, seed);
    std::optional<actuation::ActuationManager> manager2;
    if (managed) manager2.emplace(engine2, aopts, seed);
    core::DragsterController controller2(dopts);
    transport::TransportHarness harness2(topts, wire_seed);
    const experiments::RunResult rerun =
        experiments::run_scenario(engine2, controller2, options, spec.name, nullptr,
                                  manager2 ? &*manager2 : nullptr, nullptr, &harness2);
    ASSERT_EQ(run.slots.size(), rerun.slots.size());
    EXPECT_EQ(bits(run.total_tuples), bits(rerun.total_tuples));
    EXPECT_EQ(bits(run.total_cost), bits(rerun.total_cost));
  }

  EXPECT_GE(partitioned_runs, 2u);
  EXPECT_GE(lossy_command_runs, 2u);
  EXPECT_GE(managed_runs, 2u);
}

TEST(PropertySweep, CircuitOpenFreezesGpObservations) {
  // The breaker's whole point: while the circuit is open the inner
  // controller is never fed, so its per-operator GPs gain no observations
  // during a blackout — no learning from dead air — and resume once the
  // partition heals and the circuit recloses.
  const workloads::WorkloadSpec spec = workloads::wordcount();
  streamsim::Engine engine = spec.make_engine(true, streamsim::EngineOptions{}, 31);
  core::DragsterController controller(core::DragsterOptions{});

  transport::TransportOptions topts;
  topts.telemetry.partitions.push_back({4, 6});  // blackout slots 4..9
  topts.guard.open_after_misses = 2;
  transport::TransportHarness harness(topts, 77);
  harness.attach(engine, engine.dag(), online::Budget::unlimited(0.10), nullptr);
  controller.initialize(engine.monitor(), engine);

  auto gp_observations = [&] {
    std::size_t total = 0;
    for (dag::NodeId op : engine.dag().operators()) {
      const gp::GaussianProcess* gp = controller.gp_for(op);
      if (gp != nullptr) total += gp->num_observations();
    }
    return total;
  };

  std::size_t open_slots = 0;
  for (std::size_t t = 0; t < 16; ++t) {
    harness.begin_slot(t);
    (void)engine.run_slot();
    const std::size_t before = gp_observations();
    harness.control_step(controller, streamsim::MonitorFrame::capture(engine.monitor()), t);
    if (harness.breaker() == transport::BreakerState::kOpen) {
      ++open_slots;
      EXPECT_EQ(gp_observations(), before) << "GP learned during blackout, slot " << t;
    }
  }
  ASSERT_GE(open_slots, 3u);  // the sweep actually exercised an open circuit
  // Learning resumed after the heal: the closed tail added observations.
  EXPECT_EQ(harness.breaker(), transport::BreakerState::kClosed);
  EXPECT_GT(gp_observations(), 0u);
}

TEST(PropertySweep, TransportMidBlackoutSnapshotRestoreIsBitIdentical) {
  // Snapshot the controller *and* the transport harness in the middle of a
  // partition — breaker open, retries in flight, frames queued — restore
  // both into fresh objects, and finish the run with them.  The trajectory
  // must match the uninterrupted run to the bit: transport state is plain
  // values all the way down.
  const workloads::WorkloadSpec spec = workloads::wordcount();
  for (std::uint64_t seed : {5u, 19u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::size_t slots = 14;
    const std::size_t cut = 6;  // inside the partition window below

    transport::TransportOptions topts;
    topts.telemetry.drop_prob = 0.2;
    topts.telemetry.delay_mean_slots = 0.5;
    topts.telemetry.partitions.push_back({4, 5});  // blackout slots 4..8
    topts.command.drop_prob = 0.2;
    topts.command.delay_mean_slots = 0.5;
    topts.ack.drop_prob = 0.2;
    topts.guard.open_after_misses = 2;

    auto drive = [&](bool restore_at_cut) {
      streamsim::Engine engine = spec.make_engine(true, streamsim::EngineOptions{}, seed);
      auto controller = std::make_unique<core::DragsterController>(core::DragsterOptions{});
      auto harness = std::make_unique<transport::TransportHarness>(topts, seed);
      harness->attach(engine, engine.dag(), online::Budget::unlimited(0.10), nullptr);
      controller->initialize(engine.monitor(), engine);
      std::vector<double> series;
      for (std::size_t t = 0; t < slots; ++t) {
        if (restore_at_cut && t == cut) {
          resilience::SnapshotWriter ctrl_writer, wire_writer;
          controller->save_state(ctrl_writer);
          harness->save_state(wire_writer);
          auto restored_ctrl =
              std::make_unique<core::DragsterController>(core::DragsterOptions{});
          restored_ctrl->initialize(engine.monitor(), engine);
          resilience::SnapshotReader ctrl_reader(ctrl_writer.str());
          restored_ctrl->load_state(ctrl_reader);
          controller = std::move(restored_ctrl);
          auto restored_wire = std::make_unique<transport::TransportHarness>(topts, seed);
          restored_wire->attach(engine, engine.dag(), online::Budget::unlimited(0.10), nullptr);
          resilience::SnapshotReader wire_reader(wire_writer.str());
          restored_wire->load_state(wire_reader);
          harness = std::move(restored_wire);
        }
        harness->begin_slot(t);
        const streamsim::SlotReport& report = engine.run_slot();
        harness->control_step(*controller,
                              streamsim::MonitorFrame::capture(engine.monitor()), t);
        series.push_back(report.throughput_rate);
        series.push_back(report.tuples_processed);
        series.push_back(report.cost);
        series.push_back(static_cast<double>(harness->stats().frames_delivered));
        series.push_back(static_cast<double>(harness->stats().command_sends));
      }
      return series;
    };

    const std::vector<double> reference = drive(false);
    const std::vector<double> restored = drive(true);
    ASSERT_EQ(reference.size(), restored.size());
    for (std::size_t k = 0; k < reference.size(); ++k)
      EXPECT_EQ(bits(reference[k]), bits(restored[k])) << "sample " << k;
  }
}

}  // namespace
}  // namespace dragster
