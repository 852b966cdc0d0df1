// Crash-recovery subsystem tests: snapshot format round trips and corruption
// detection, bit-exact save/load of each stateful module, the full
// controller snapshot -> restore -> bit-identical decisions property (the
// fig9 acceptance bar), and the supervisor state machine (crash recovery,
// NaN-storm safe mode, cold restart).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "core/dragster_controller.hpp"
#include "experiments/scenario.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "gp/gaussian_process.hpp"
#include "gp/kernel.hpp"
#include "online/dual_state.hpp"
#include "resilience/snapshot.hpp"
#include "resilience/supervisor.hpp"
#include "streamsim/engine.hpp"
#include "workloads/workloads.hpp"

namespace dragster::resilience {
namespace {

/// Bit-pattern view of a double: the tests assert *bit-identical* restore,
/// not approximate agreement, and this sidesteps exact-float-compare pitfalls
/// (and distinguishes -0.0 from +0.0).
std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

// ---------------------------------------------------------------------------
// Snapshot format.
// ---------------------------------------------------------------------------

TEST(Snapshot, RoundTripsAllFieldTypes) {
  SnapshotWriter writer;
  writer.begin_section("alpha");
  writer.field("pi", 3.141592653589793);
  writer.field("third", 1.0 / 3.0);
  writer.field("denormal", 5e-324);
  writer.field("negzero", -0.0);
  writer.field("huge", 1.7976931348623157e308);
  writer.field("count", std::uint64_t{42});
  writer.field("delta", std::int64_t{-7});
  writer.field("label", std::string("free text with spaces"));
  const std::vector<double> dv{0.1, -2.5, 1e-300};
  writer.field("dv", std::span<const double>(dv));
  const std::vector<int> iv{4, -1, 7};
  writer.field("iv", std::span<const int>(iv));
  writer.begin_section("beta");
  writer.field("x", 1.0);

  SnapshotReader reader(writer.str());
  ASSERT_EQ(reader.sections().size(), 2u);
  EXPECT_EQ(reader.sections()[0], "alpha");
  EXPECT_EQ(reader.sections()[1], "beta");

  reader.enter_section("alpha");
  EXPECT_EQ(bits(reader.get_double("pi")), bits(3.141592653589793));
  EXPECT_EQ(bits(reader.get_double("third")), bits(1.0 / 3.0));
  EXPECT_EQ(bits(reader.get_double("denormal")), bits(5e-324));
  EXPECT_EQ(bits(reader.get_double("negzero")), bits(-0.0));
  EXPECT_EQ(bits(reader.get_double("huge")), bits(1.7976931348623157e308));
  EXPECT_EQ(reader.get_uint("count"), 42u);
  EXPECT_EQ(reader.get_int("delta"), -7);
  EXPECT_EQ(reader.get_string("label"), "free text with spaces");
  const std::vector<double> dv_back = reader.get_doubles("dv");
  ASSERT_EQ(dv_back.size(), dv.size());
  for (std::size_t i = 0; i < dv.size(); ++i) EXPECT_EQ(bits(dv_back[i]), bits(dv[i]));
  EXPECT_EQ(reader.get_ints("iv"), iv);
  EXPECT_TRUE(reader.has_key("pi"));
  EXPECT_FALSE(reader.has_key("tau"));

  reader.enter_section("beta");
  EXPECT_EQ(bits(reader.get_double("x")), bits(1.0));
}

TEST(Snapshot, HexFloatEncodingIsLossless) {
  const double values[] = {0.1,
                           1.0 / 3.0,
                           -0.0,
                           5e-324,
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::min(),
                           -12345.6789};
  for (double value : values) {
    EXPECT_EQ(bits(decode_double(encode_double(value))), bits(value))
        << "value " << value << " encoded as " << encode_double(value);
  }
}

TEST(Snapshot, RejectsCorruptionAndMisuse) {
  SnapshotWriter writer;
  writer.begin_section("s");
  writer.field("x", 2.5);
  writer.field("n", std::uint64_t{3});
  const std::string good = writer.str();

  // Any byte flipped in the payload breaks the checksum.
  std::string tampered = good;
  const std::size_t at = tampered.find("0x");
  ASSERT_NE(at, std::string::npos);
  tampered[at + 2] = tampered[at + 2] == '1' ? '2' : '1';
  EXPECT_THROW((void)SnapshotReader(tampered), Error);

  // Truncated document (checksum line gone).
  const std::string truncated = good.substr(0, good.find("!checksum"));
  EXPECT_THROW((void)SnapshotReader(truncated), Error);

  // Wrong magic / unsupported version.
  EXPECT_THROW((void)SnapshotReader("not-a-snapshot\n"), Error);

  // Structural misuse on an otherwise valid document.
  SnapshotReader reader(good);
  EXPECT_FALSE(reader.has_section("nope"));
  EXPECT_THROW(reader.enter_section("nope"), Error);
  reader.enter_section("s");
  EXPECT_THROW((void)reader.get_double("missing"), Error);
  EXPECT_THROW((void)reader.get_int("x"), Error);  // type-tag mismatch
}

// ---------------------------------------------------------------------------
// Module-level save/load: every restore must be bit-exact.
// ---------------------------------------------------------------------------

TEST(Snapshot, DualStateRoundTripIsBitExact) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  online::DualState original(4, 1.0);
  original.update(std::vector<double>{0.5, -0.25, 1.5, 0.0});
  original.update(std::vector<double>{nan, 2.0, -1.0, 0.75});
  original.update(std::vector<double>{0.1, 0.2, 0.3, 0.4});

  SnapshotWriter writer;
  writer.begin_section("dual");
  original.save_state(writer);

  online::DualState restored(4, 1.0);
  SnapshotReader reader(writer.str());
  reader.enter_section("dual");
  restored.load_state(reader);

  ASSERT_EQ(restored.lambda().size(), original.lambda().size());
  for (std::size_t i = 0; i < original.lambda().size(); ++i)
    EXPECT_EQ(bits(restored.lambda()[i]), bits(original.lambda()[i]));
  EXPECT_EQ(restored.slot(), original.slot());
  EXPECT_EQ(restored.non_finite_observations(), original.non_finite_observations());

  // Identical future inputs must keep the two in lockstep.
  online::DualState twin = original;
  const std::vector<double> next{0.9, -0.4, nan, 0.2};
  twin.update(next);
  restored.update(next);
  for (std::size_t i = 0; i < twin.lambda().size(); ++i)
    EXPECT_EQ(bits(restored.lambda()[i]), bits(twin.lambda()[i]));
}

TEST(Snapshot, GaussianProcessRestoreIsBitExact) {
  auto make_gp = [] {
    return gp::GaussianProcess(gp::SquaredExponentialKernel(1.5 * 1.5, std::vector<double>{2.5}),
                               0.01, 1.0);
  };
  gp::GaussianProcess original = make_gp();
  for (int i = 1; i <= 6; ++i)
    original.add_observation({static_cast<double>(i)}, 1.0 + 0.1 * static_cast<double>(i));
  original.add_observation({3.0}, 1.31);  // repeated input: the row's count grows

  SnapshotWriter writer;
  writer.begin_section("gp");
  original.save_state(writer);

  gp::GaussianProcess restored = make_gp();
  SnapshotReader reader(writer.str());
  reader.enter_section("gp");
  restored.load_state(reader);

  ASSERT_EQ(restored.num_observations(), original.num_observations());
  for (double x : {0.5, 2.0, 3.7, 8.0}) {
    const auto p_orig = original.predict(std::vector<double>{x});
    const auto p_back = restored.predict(std::vector<double>{x});
    EXPECT_EQ(bits(p_back.mean), bits(p_orig.mean)) << "x=" << x;
    EXPECT_EQ(bits(p_back.variance), bits(p_orig.variance)) << "x=" << x;
  }

  // And the *next* update lands on identical bits too.
  original.add_observation({7.0}, 1.65);
  restored.add_observation({7.0}, 1.65);
  const auto p_orig = original.predict(std::vector<double>{6.5});
  const auto p_back = restored.predict(std::vector<double>{6.5});
  EXPECT_EQ(bits(p_back.mean), bits(p_orig.mean));
  EXPECT_EQ(bits(p_back.variance), bits(p_orig.variance));
}

gp::GaussianProcess table_gp() {
  return gp::GaussianProcess(gp::SquaredExponentialKernel(2.25, std::vector<double>{2.5}), 0.01,
                             1.0);
}

/// A snapshot holding one GP section with a hand-written 1-D table.
std::string gp_table_doc(const std::vector<double>& inputs, const std::vector<int>& counts,
                         const std::vector<double>& sums) {
  SnapshotWriter writer;
  writer.begin_section("gp");
  writer.field("gp_dim", std::uint64_t{1});
  writer.field("gp_inputs", std::span<const double>(inputs));
  writer.field("gp_counts", std::span<const int>(counts));
  writer.field("gp_sums", std::span<const double>(sums));
  writer.field("gp_noise", 0.01);
  writer.field("gp_prior_mean", 1.0);
  return writer.str();
}

void load_table(gp::GaussianProcess& gp, const std::string& doc) {
  SnapshotReader reader(doc);
  reader.enter_section("gp");
  gp.load_state(reader);
}

/// Loading `doc` throws dragster::Error naming `reason` and leaves the GP as
/// it was.
void expect_rejected(const std::string& doc, const std::string& reason) {
  gp::GaussianProcess gp = table_gp();
  gp.add_observation({5.0}, 1.5);
  const auto before = gp.predict(std::vector<double>{4.0});
  try {
    load_table(gp, doc);
    ADD_FAILURE() << "accepted a table with " << reason;
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find(reason), std::string::npos) << error.what();
  }
  EXPECT_EQ(gp.num_observations(), 1u);
  EXPECT_EQ(gp.distinct_inputs(), 1u);
  EXPECT_EQ(bits(gp.predict(std::vector<double>{4.0}).mean), bits(before.mean));
}

TEST(Snapshot, GaussianProcessRestoresAHandWrittenTable) {
  gp::GaussianProcess gp = table_gp();
  load_table(gp, gp_table_doc({1.0, 3.0}, {4, 1}, {4.375, 0.75}));
  EXPECT_EQ(gp.num_observations(), 5u);
  EXPECT_EQ(gp.distinct_inputs(), 2u);
  // The same samples added one by one give the same table, so the same bits.
  gp::GaussianProcess live = table_gp();
  for (double y : {1.0, 1.25, 1.125}) live.add_observation({1.0}, y);
  live.add_observation({3.0}, 0.75);
  live.add_observation({1.0}, 1.0);
  for (double x : {0.0, 1.0, 2.0, 3.0}) {
    EXPECT_EQ(bits(gp.predict(std::vector<double>{x}).mean),
              bits(live.predict(std::vector<double>{x}).mean));
  }
}

TEST(Snapshot, GaussianProcessRejectsTableSizesThatDisagreeWithDim) {
  expect_rejected(gp_table_doc({1.0, 2.0, 3.0}, {1, 2}, {1.0, 2.0}), "table sizes disagree");
  expect_rejected(gp_table_doc({1.0, 2.0}, {1, 2}, {1.0}), "table sizes disagree");
}

TEST(Snapshot, GaussianProcessRejectsNonPositiveCounts) {
  expect_rejected(gp_table_doc({1.0, 2.0}, {0, 2}, {0.0, 2.0}), "count must be positive");
  expect_rejected(gp_table_doc({1.0, 2.0}, {1, -3}, {1.0, 2.0}), "count must be positive");
}

TEST(Snapshot, GaussianProcessRejectsNonFiniteInputs) {
  const double inf = std::numeric_limits<double>::infinity();
  expect_rejected(gp_table_doc({1.0, inf}, {1, 1}, {1.0, 2.0}), "input must be finite");
  expect_rejected(gp_table_doc({std::nan(""), 2.0}, {1, 1}, {1.0, 2.0}), "input must be finite");
}

TEST(Snapshot, GaussianProcessRejectsNonFiniteSums) {
  const double inf = std::numeric_limits<double>::infinity();
  expect_rejected(gp_table_doc({1.0, 2.0}, {1, 1}, {1.0, -inf}), "sum must be finite");
  expect_rejected(gp_table_doc({1.0, 2.0}, {1, 1}, {std::nan(""), 2.0}), "sum must be finite");
}

TEST(Snapshot, GaussianProcessRejectsRepeatedInputRows) {
  expect_rejected(gp_table_doc({1.0, 2.0, 1.0}, {1, 1, 1}, {1.0, 2.0, 1.0}),
                  "repeats an input row");
  expect_rejected(gp_table_doc({0.0, -0.0}, {1, 1}, {1.0, 1.0}), "repeats an input row");
}

// ---------------------------------------------------------------------------
// Full controller round trip: restore mid-run, decisions stay bit-identical.
// ---------------------------------------------------------------------------

TEST(Snapshot, ControllerRestoreGivesBitIdenticalDecisions) {
  const auto spec = workloads::wordcount();
  streamsim::Engine engine = spec.make_engine(true, streamsim::EngineOptions{}, 7);
  const streamsim::JobMonitor live = engine.monitor();

  core::DragsterController original{core::DragsterOptions{}};
  original.initialize(live, engine);
  for (int t = 0; t < 8; ++t) {
    engine.run_slot();
    original.on_slot(live, engine);
  }

  SnapshotWriter writer;
  original.save_state(writer);
  const std::string snapshot = writer.str();

  // A "restarted process": fresh controller, initialized against the same
  // application, then overwritten from the snapshot.
  core::DragsterController restored{core::DragsterOptions{}};
  NullActuator sink;
  const streamsim::MonitorFrame boot = streamsim::MonitorFrame::capture(live);
  const streamsim::JobMonitor boot_monitor(boot);
  restored.initialize(boot_monitor, sink);
  SnapshotReader reader(snapshot);
  restored.load_state(reader);

  for (int t = 0; t < 6; ++t) {
    engine.run_slot();
    // Both controllers see byte-identical observations via the same frame.
    const streamsim::MonitorFrame frame = streamsim::MonitorFrame::capture(live);
    const streamsim::JobMonitor view(frame);
    BufferedActuator from_original;
    BufferedActuator from_restored;
    original.on_slot(view, from_original);
    restored.on_slot(view, from_restored);

    ASSERT_EQ(from_restored.actions().size(), from_original.actions().size()) << "slot " << t;
    for (std::size_t i = 0; i < from_original.actions().size(); ++i) {
      const ScalingAction& a = from_original.actions()[i];
      const ScalingAction& b = from_restored.actions()[i];
      EXPECT_EQ(b.op, a.op);
      EXPECT_EQ(b.is_spec, a.is_spec);
      EXPECT_EQ(b.tasks, a.tasks);
      EXPECT_EQ(bits(b.spec.cpu_cores), bits(a.spec.cpu_cores));
      EXPECT_EQ(bits(b.spec.memory_gb), bits(a.spec.memory_gb));
    }
    ASSERT_EQ(restored.last_targets().size(), original.last_targets().size());
    for (std::size_t i = 0; i < original.last_targets().size(); ++i)
      EXPECT_EQ(bits(restored.last_targets()[i]), bits(original.last_targets()[i]))
          << "slot " << t << " target " << i;

    // The original keeps driving the engine, exactly as an undisturbed run.
    from_original.commit(engine);
  }
}

// ---------------------------------------------------------------------------
// Supervisor state machine.
// ---------------------------------------------------------------------------

TEST(Supervisor, RejectsBadConstruction) {
  EXPECT_THROW(ControllerSupervisor(nullptr, SupervisorOptions{}), Error);
  SupervisorOptions bad;
  bad.snapshot_every = 0;
  EXPECT_THROW(ControllerSupervisor(
                   std::make_unique<core::DragsterController>(core::DragsterOptions{}), bad),
               Error);
}

TEST(Supervisor, CrashWithSnapshotRecoversWithinFiveSlots) {
  const auto spec = workloads::wordcount();
  const std::size_t slots = 18;
  const std::size_t crash_slot = 10;

  experiments::ScenarioOptions options;
  options.slots = slots;

  // No-crash arm (same seed, same workload) as the recovery reference.
  streamsim::Engine reference_engine = spec.make_engine(true, streamsim::EngineOptions{}, 11);
  core::DragsterController reference{core::DragsterOptions{}};
  const auto no_crash =
      experiments::run_scenario(reference_engine, reference, options, spec.name);

  streamsim::Engine engine = spec.make_engine(true, streamsim::EngineOptions{}, 11);
  SupervisorOptions supervision;
  supervision.snapshot_every = 3;
  ControllerSupervisor supervised(
      std::make_unique<core::DragsterController>(core::DragsterOptions{}), supervision);
  faults::FaultInjector injector(faults::FaultPlan::parse("ctrlcrash@10"));
  const auto crashed =
      experiments::run_scenario(engine, supervised, options, spec.name, &injector);

  ASSERT_TRUE(crashed.supervisor.has_value());
  EXPECT_EQ(crashed.supervisor->crashes_injected, 1u);
  EXPECT_GE(crashed.supervisor->restores, 1u);
  EXPECT_EQ(crashed.supervisor->cold_restarts, 0u);
  EXPECT_GE(crashed.supervisor->snapshots_taken, 2u);
  EXPECT_EQ(supervised.state(), SupervisorState::kHealthy);

  // Recovery bar: within five slots of the crash the supervised run is back
  // within 5% of the undisturbed run's throughput.
  bool recovered = false;
  for (std::size_t t = crash_slot; t < std::min(slots, crash_slot + 5); ++t) {
    if (crashed.slots[t].throughput_rate >= 0.95 * no_crash.slots[t].throughput_rate)
      recovered = true;
  }
  EXPECT_TRUE(recovered) << "supervised run never re-entered the 5% band after the crash";
}

TEST(Supervisor, NaNStormTripsSafeModeAndNeverEmitsInvalidActions) {
  const auto spec = workloads::wordcount();
  streamsim::Engine engine = spec.make_engine(true, streamsim::EngineOptions{}, 3);
  const streamsim::JobMonitor live = engine.monitor();

  SupervisorOptions options;
  options.rule_fallback_after = 2;
  ControllerSupervisor supervised(
      std::make_unique<core::DragsterController>(core::DragsterOptions{}), options);
  supervised.initialize(live, engine);
  for (int t = 0; t < 4; ++t) {
    engine.run_slot();
    supervised.on_slot(live, engine);
  }
  ASSERT_EQ(supervised.state(), SupervisorState::kHealthy);

  // Metrics-pipeline meltdown: every observation goes NaN at once.
  streamsim::MonitorFrame poisoned = streamsim::MonitorFrame::capture(live);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (auto& metrics : poisoned.report.per_node) {
    metrics.in_rate = nan;
    metrics.out_rate = nan;
    metrics.demand_rate = nan;
    metrics.arrival_demand_rate = nan;
    metrics.cpu_utilization = nan;
    metrics.observed_capacity = nan;
    metrics.backlog_end = nan;
  }
  for (double& rate : poisoned.report.source_rate) rate = nan;
  for (double& rate : poisoned.report.edge_rate) rate = nan;

  const streamsim::JobMonitor bad(poisoned);
  for (int t = 0; t < 5; ++t) {
    BufferedActuator out;
    supervised.on_slot(bad, out);
    for (const ScalingAction& action : out.actions()) {
      if (action.is_spec) {
        EXPECT_TRUE(std::isfinite(action.spec.cpu_cores) && action.spec.cpu_cores > 0.0);
        EXPECT_TRUE(std::isfinite(action.spec.memory_gb) && action.spec.memory_gb > 0.0);
      } else {
        EXPECT_GE(action.tasks, 1);
        EXPECT_LE(action.tasks, poisoned.max_tasks);
      }
    }
  }
  EXPECT_EQ(supervised.state(), SupervisorState::kSafeMode);
  EXPECT_GE(supervised.stats().invariant_trips, 1u);
  EXPECT_GE(supervised.stats().safe_mode_slots, 5u);

  // Healthy frames resume: the supervisor restores, replays, and re-enters
  // normal operation within a couple of slots.
  for (int t = 0; t < 4 && supervised.state() != SupervisorState::kHealthy; ++t) {
    engine.run_slot();
    supervised.on_slot(live, engine);
  }
  EXPECT_EQ(supervised.state(), SupervisorState::kHealthy);
}

TEST(Supervisor, ColdRestartPathWhenSnapshotsDisabled) {
  const auto spec = workloads::wordcount();
  streamsim::Engine engine = spec.make_engine(true, streamsim::EngineOptions{}, 5);

  SupervisorOptions options;
  options.enable_snapshots = false;
  options.cold_factory = [] {
    return std::make_unique<core::DragsterController>(core::DragsterOptions{});
  };
  ControllerSupervisor supervised(
      std::make_unique<core::DragsterController>(core::DragsterOptions{}), options);
  faults::FaultInjector injector(faults::FaultPlan::parse("ctrlcrash@4"));
  experiments::ScenarioOptions scenario;
  scenario.slots = 10;
  const auto result =
      experiments::run_scenario(engine, supervised, scenario, spec.name, &injector);

  ASSERT_TRUE(result.supervisor.has_value());
  EXPECT_EQ(result.supervisor->crashes_injected, 1u);
  EXPECT_EQ(result.supervisor->cold_restarts, 1u);
  EXPECT_EQ(result.supervisor->restores, 0u);
  EXPECT_EQ(result.supervisor->snapshots_taken, 0u);
  EXPECT_EQ(supervised.state(), SupervisorState::kHealthy);
}

/// Issues one fixed action every slot: a decision the supervisor must reject.
struct OneActionController final : core::Controller {
  explicit OneActionController(ScalingAction issued) : action(issued) {}
  [[nodiscard]] std::string name() const override { return "OneAction"; }
  void on_slot(const streamsim::JobMonitor& /*monitor*/,
               streamsim::ScalingActuator& actuator) override {
    if (action.is_spec)
      actuator.set_pod_spec(action.op, action.spec);
    else
      actuator.set_tasks(action.op, action.tasks);
  }
  ScalingAction action;
};

TEST(Supervisor, InvalidActionsTripSafeModeAndLeaveTheEngine) {
  const auto spec = workloads::wordcount();
  const streamsim::EngineOptions engine_options;
  const dag::NodeId map = *spec.dag.find("map");
  std::vector<ScalingAction> invalid(4);
  invalid[0].op = map;
  invalid[0].tasks = 0;
  invalid[1].op = map;
  invalid[1].tasks = engine_options.max_tasks + 1;
  invalid[2].op = map;
  invalid[2].is_spec = true;
  invalid[2].spec.cpu_cores = std::numeric_limits<double>::quiet_NaN();
  invalid[3].op = spec.dag.sources().front();
  invalid[3].tasks = 2;
  for (std::size_t i = 0; i < invalid.size(); ++i) {
    SCOPED_TRACE("invalid action " + std::to_string(i));
    streamsim::Engine engine = spec.make_engine(true, engine_options, 9);
    ControllerSupervisor supervised(std::make_unique<OneActionController>(invalid[i]),
                                    SupervisorOptions{});
    supervised.initialize(engine.monitor(), engine);
    std::vector<int> tasks_before;
    std::vector<cluster::PodSpec> specs_before;
    for (dag::NodeId op : engine.dag().operators()) {
      tasks_before.push_back(engine.tasks(op));
      specs_before.push_back(engine.pod_spec(op));
    }
    engine.run_slot();
    supervised.on_slot(engine.monitor(), engine);
    EXPECT_EQ(supervised.state(), SupervisorState::kSafeMode);
    ASSERT_EQ(supervised.stats().trip_log.size(), 1u);
    EXPECT_EQ(supervised.stats().trip_log[0], "slot 1: invalid-action");
    for (std::size_t k = 0; k < engine.dag().operators().size(); ++k) {
      const dag::NodeId op = engine.dag().operators()[k];
      EXPECT_EQ(engine.tasks(op), tasks_before[k]);
      EXPECT_EQ(engine.pod_spec(op), specs_before[k]);
    }
  }
}

TEST(Supervisor, FrameBackedMonitorReadsEveryOperatorAndRejectsOtherIds) {
  const auto spec = workloads::wordcount();
  streamsim::Engine engine = spec.make_engine(true, streamsim::EngineOptions{}, 4);
  const dag::StreamDag& dag = engine.dag();
  engine.set_tasks(dag.operators().front(), 3);
  engine.set_pod_spec(dag.operators().back(), cluster::PodSpec{2.0, 4.0});
  engine.run_slot();
  const streamsim::JobMonitor live = engine.monitor();
  const streamsim::MonitorFrame frame = streamsim::MonitorFrame::capture(live);
  const streamsim::JobMonitor replay(frame);
  EXPECT_EQ(&replay.dag(), &dag);  // borrowed, not copied
  for (dag::NodeId op : dag.operators()) {
    EXPECT_EQ(replay.tasks(op), live.tasks(op));
    EXPECT_EQ(replay.pod_spec(op), live.pod_spec(op));
  }
  EXPECT_EQ(replay.tasks(dag.operators().front()), 3);
  EXPECT_EQ(replay.pod_spec(dag.operators().back()), (cluster::PodSpec{2.0, 4.0}));
  for (dag::NodeId id : {dag.sources().front(), dag.sink(), dag.node_count()}) {
    SCOPED_TRACE("node " + std::to_string(id));
    EXPECT_THROW((void)replay.tasks(id), Error);
    EXPECT_THROW((void)replay.pod_spec(id), Error);
  }
}

TEST(Supervisor, NameWrapsInnerController) {
  ControllerSupervisor supervised(
      std::make_unique<core::DragsterController>(core::DragsterOptions{}),
      SupervisorOptions{});
  const std::string name = supervised.name();
  EXPECT_EQ(name.rfind("Supervised(", 0), 0u) << name;
  EXPECT_EQ(name.back(), ')');
}

}  // namespace
}  // namespace dragster::resilience
