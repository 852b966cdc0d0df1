// Transport-layer tests: channel fate determinism and partition windows,
// ideal-channel bit-identity with the no-transport path, effectively-once
// command application under adversarial delivery schedules, the staleness
// watchdog / circuit-breaker state machine (hold, DS2 fallback, reclose),
// mid-blackout snapshot restore, and the zero-loss transported-fleet anchor.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/dragster_controller.hpp"
#include "experiments/scenario.hpp"
#include "fleet/fleet.hpp"
#include "resilience/snapshot.hpp"
#include "transport/transport.hpp"
#include "workloads/workloads.hpp"

namespace dragster::transport {
namespace {

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_identical(const experiments::RunResult& a, const experiments::RunResult& b) {
  ASSERT_EQ(a.slots.size(), b.slots.size());
  for (std::size_t t = 0; t < a.slots.size(); ++t) {
    SCOPED_TRACE("slot " + std::to_string(t));
    EXPECT_EQ(bits(a.slots[t].throughput_rate), bits(b.slots[t].throughput_rate));
    EXPECT_EQ(bits(a.slots[t].tuples), bits(b.slots[t].tuples));
    EXPECT_EQ(bits(a.slots[t].cost), bits(b.slots[t].cost));
    EXPECT_EQ(bits(a.slots[t].latency_s), bits(b.slots[t].latency_s));
    EXPECT_EQ(a.slots[t].tasks, b.slots[t].tasks);
  }
  EXPECT_EQ(bits(a.total_tuples), bits(b.total_tuples));
  EXPECT_EQ(bits(a.total_cost), bits(b.total_cost));
}

streamsim::EngineOptions fast() {
  streamsim::EngineOptions o;
  o.slot_duration_s = 120.0;
  o.checkpoint_pause_s = 10.0;
  o.sample_interval_s = 30.0;
  return o;
}

/// Downstream actuator that records every application in arrival order.
struct RecordingActuator final : streamsim::ScalingActuator {
  std::vector<std::pair<dag::NodeId, int>> applied;
  void set_tasks(dag::NodeId op, int tasks) override { applied.emplace_back(op, tasks); }
  void set_pod_spec(dag::NodeId, cluster::PodSpec) override {}
};

/// Controller that counts invocations and re-issues a fixed configuration,
/// so held slots (breaker open) are visible as a frozen call count.
struct CountingController final : core::Controller {
  std::size_t initialize_calls = 0;
  std::size_t on_slot_calls = 0;
  [[nodiscard]] std::string name() const override { return "Counting"; }
  void initialize(const streamsim::JobMonitor&, streamsim::ScalingActuator&) override {
    ++initialize_calls;
  }
  void on_slot(const streamsim::JobMonitor& monitor,
               streamsim::ScalingActuator& actuator) override {
    ++on_slot_calls;
    actuator.set_tasks(monitor.dag().operators().front(), 2);
  }
};

ChannelOptions lossy() {
  ChannelOptions o;
  o.drop_prob = 0.3;
  o.duplicate_prob = 0.3;
  o.delay_mean_slots = 1.0;
  o.delay_jitter = 0.5;
  o.reorder_window_slots = 2;
  return o;
}

// ---------------------------------------------------------------------------
// Channel: deterministic fate oracle.
// ---------------------------------------------------------------------------

TEST(Channel, SameSeedReplaysIdenticalFateSchedule) {
  Channel a(lossy(), 77, "wire");
  Channel b(lossy(), 77, "wire");
  for (std::size_t t = 0; t < 40; ++t) {
    const auto fa = a.send(t);
    const auto fb = b.send(t);
    ASSERT_EQ(fa.size(), fb.size()) << "slot " << t;
    for (std::size_t i = 0; i < fa.size(); ++i) {
      EXPECT_EQ(fa[i].seq, fb[i].seq);
      EXPECT_EQ(fa[i].deliver_slot, fb[i].deliver_slot);
      EXPECT_EQ(fa[i].duplicate, fb[i].duplicate);
    }
    // Retransmissions draw independent-but-deterministic fates.
    const auto ra = a.resend(1, t + 1, t);
    const auto rb = b.resend(1, t + 1, t);
    ASSERT_EQ(ra.size(), rb.size());
  }
  EXPECT_EQ(a.messages_sent(), 40u);
}

TEST(Channel, DifferentSeedsDiverge) {
  Channel a(lossy(), 1, "wire");
  Channel b(lossy(), 2, "wire");
  bool diverged = false;
  for (std::size_t t = 0; t < 64 && !diverged; ++t) {
    const auto fa = a.send(t);
    const auto fb = b.send(t);
    diverged = fa.size() != fb.size() ||
               (!fa.empty() && fa[0].deliver_slot != fb[0].deliver_slot);
  }
  EXPECT_TRUE(diverged);
}

TEST(Channel, ScheduledPartitionEatsTheWindow) {
  ChannelOptions options;  // otherwise ideal
  options.partitions.push_back({3, 2});
  Channel wire(options, 5, "wire");
  for (std::size_t t = 0; t < 8; ++t) {
    const bool dark = t == 3 || t == 4;
    EXPECT_EQ(wire.partitioned(t), dark) << "slot " << t;
    EXPECT_EQ(wire.ideal(t), !dark) << "slot " << t;
    const auto fates = wire.send(t);
    if (dark) {
      EXPECT_TRUE(fates.empty()) << "slot " << t;
    } else {
      ASSERT_EQ(fates.size(), 1u) << "slot " << t;
      EXPECT_EQ(fates[0].deliver_slot, t);  // ideal = synchronous
      EXPECT_FALSE(fates[0].duplicate);
    }
  }
}

TEST(Channel, InjectedSeamsExpireAtTheirEndSlot) {
  Channel wire(ChannelOptions{}, 9, "wire");
  wire.inject_drop_until(1.0, 4);
  wire.inject_partition_until(2);
  for (std::size_t t = 0; t < 6; ++t) {
    EXPECT_EQ(wire.partitioned(t), t < 2) << "slot " << t;
    const auto fates = wire.send(t);
    if (t < 4) {
      EXPECT_TRUE(fates.empty()) << "slot " << t;  // partitioned, then 100% loss
    } else {
      ASSERT_EQ(fates.size(), 1u) << "slot " << t;
      EXPECT_EQ(fates[0].deliver_slot, t);
    }
  }
  // Delay injection multiplies the configured mean (a zero-mean channel
  // stays synchronous); the seam expires at its end slot.
  ChannelOptions delayed;
  delayed.delay_mean_slots = 1.0;
  Channel slow(delayed, 9, "slow");
  slow.inject_delay_until(3.0, 10);
  EXPECT_FALSE(slow.ideal(8));
  auto fates = slow.send(5);
  ASSERT_EQ(fates.size(), 1u);
  EXPECT_EQ(fates[0].deliver_slot, 5u + 3u);
  fates = slow.send(10);
  ASSERT_EQ(fates.size(), 1u);
  EXPECT_EQ(fates[0].deliver_slot, 10u + 1u);
}

TEST(Channel, SnapshotRestoresTheFateSchedule) {
  Channel live(lossy(), 13, "wire");
  for (std::size_t t = 0; t < 7; ++t) (void)live.send(t);
  live.inject_drop_until(0.9, 20);

  resilience::SnapshotWriter writer;
  writer.begin_section("chan");
  live.save(writer, "w.");
  Channel restored(lossy(), 13, "wire");
  resilience::SnapshotReader reader(writer.str());
  reader.enter_section("chan");
  restored.load(reader, "w.");

  for (std::size_t t = 7; t < 30; ++t) {
    const auto fa = live.send(t);
    const auto fb = restored.send(t);
    ASSERT_EQ(fa.size(), fb.size()) << "slot " << t;
    for (std::size_t i = 0; i < fa.size(); ++i) {
      EXPECT_EQ(fa[i].seq, fb[i].seq);
      EXPECT_EQ(fa[i].deliver_slot, fb[i].deliver_slot);
    }
  }
}

// ---------------------------------------------------------------------------
// Command link: effectively-once application.
// ---------------------------------------------------------------------------

TEST(CommandLink, ExactlyOnceUnderAdversarialSchedule) {
  // Lossy, duplicating, reordering channels in both directions.  Issue a
  // distinct value per command; effectively-once means the applied values
  // are a strictly increasing subsequence of the issued ones (monotone in
  // sequence, each applied at most once) and the newest eventually lands.
  const dag::StreamDag dag = workloads::wordcount().dag;
  const dag::NodeId op = dag.operators().front();
  CommandLink link(lossy(), lossy(), RetryOptions{}, 101);
  RecordingActuator sink;
  TransportStats stats;
  link.bind(&sink, &dag, &stats, nullptr);

  const std::size_t issues = 12;
  for (std::size_t t = 0; t < 60; ++t) {
    link.begin_slot(t);
    if (t < issues * 2 && t % 2 == 0) link.set_tasks(op, static_cast<int>(2 + t / 2));
  }

  ASSERT_FALSE(sink.applied.empty());
  for (std::size_t i = 1; i < sink.applied.size(); ++i)
    EXPECT_LT(sink.applied[i - 1].second, sink.applied[i].second)
        << "non-monotone application at index " << i;
  // The newest command survives retries and dedup to land exactly once.
  EXPECT_EQ(sink.applied.back().second, static_cast<int>(2 + issues - 1));
  EXPECT_EQ(stats.commands_applied, sink.applied.size());
  EXPECT_EQ(stats.commands_sent, issues);
  EXPECT_GE(stats.command_sends, stats.commands_sent);
  EXPECT_FALSE(link.in_flight(op));  // everything settled by slot 60
}

TEST(CommandLink, LostAckNeverReappliesASupersededEpoch) {
  // Ideal command wire, acks blacked out: the sender keeps retransmitting a
  // command that already applied; the receiver's watermark dedups every
  // copy.  A newer command then supersedes it — the old epoch must never be
  // applied again after the new one.
  ChannelOptions dead_acks;
  dead_acks.partitions.push_back({0, 100});
  const dag::StreamDag dag = workloads::wordcount().dag;
  const dag::NodeId op = dag.operators().front();
  CommandLink link(ChannelOptions{}, dead_acks, RetryOptions{}, 3);
  RecordingActuator sink;
  TransportStats stats;
  link.bind(&sink, &dag, &stats, nullptr);

  link.begin_slot(0);
  link.set_tasks(op, 2);  // ideal wire: applies inline, ack eaten
  for (std::size_t t = 1; t < 5; ++t) link.begin_slot(t);  // retransmits dedup
  link.set_tasks(op, 5);  // supersedes the unacked epoch
  for (std::size_t t = 5; t < 20; ++t) link.begin_slot(t);

  const std::vector<std::pair<dag::NodeId, int>> expected{{op, 2}, {op, 5}};
  EXPECT_EQ(sink.applied, expected);
  EXPECT_GE(stats.commands_deduped, 1u);
  EXPECT_EQ(link.applied_seq(op), 2u);
}

TEST(CommandLink, ExhaustsAfterMaxRetriesAndStopsSending) {
  ChannelOptions dead;
  dead.partitions.push_back({0, 1000});
  RetryOptions retry;
  retry.max_retries = 3;
  const dag::StreamDag dag = workloads::wordcount().dag;
  const dag::NodeId op = dag.operators().front();
  CommandLink link(dead, dead, retry, 17);
  RecordingActuator sink;
  TransportStats stats;
  link.bind(&sink, &dag, &stats, nullptr);

  link.begin_slot(0);
  link.set_tasks(op, 4);
  for (std::size_t t = 1; t < 100; ++t) link.begin_slot(t);

  EXPECT_TRUE(sink.applied.empty());
  EXPECT_EQ(stats.commands_exhausted, 1u);
  EXPECT_EQ(stats.command_sends, 1u + retry.max_retries);
  EXPECT_FALSE(link.in_flight(op));  // abandoned, not stuck forever
}

TEST(CommandLink, NonOperatorCommandThrowsBeforeAnythingMoves) {
  // A command naming the source used to be sequenced and sent, and threw
  // only slots later, inside begin_slot, when the engine received a copy.
  const workloads::WorkloadSpec spec = workloads::wordcount();
  streamsim::Engine engine = spec.make_engine(true, fast(), 3);
  CommandLink link(lossy(), lossy(), RetryOptions{}, 9);
  TransportStats stats;
  link.bind(&engine, &engine.dag(), &stats, nullptr);
  link.begin_slot(0);
  link.set_tasks(spec.dag.operators().front(), 2);  // traffic to leave untouched
  const auto saved = [&link] {
    resilience::SnapshotWriter writer;
    link.save_state(writer);
    return writer.str();
  };
  const std::string before = saved();
  const std::uint64_t sent = stats.commands_sent;
  const std::uint64_t sends = stats.command_sends;

  for (const dag::NodeId id : {spec.dag.sources().front(), spec.dag.sink(), dag::NodeId{99}}) {
    SCOPED_TRACE(id);
    try {
      link.set_tasks(id, 2);
      FAIL() << "expected dragster::Error";
    } catch (const Error& error) {
      EXPECT_NE(std::string(error.what()).find("node " + std::to_string(id)), std::string::npos)
          << error.what();
    }
    EXPECT_THROW(link.set_pod_spec(id, cluster::PodSpec{}), Error);
    EXPECT_EQ(saved(), before);
    EXPECT_EQ(stats.commands_sent, sent);
    EXPECT_EQ(stats.command_sends, sends);
  }
  for (std::size_t t = 1; t < 20; ++t) link.begin_slot(t);  // delivery stays clean
}

// ---------------------------------------------------------------------------
// Harness: ideal-path bit-identity.
// ---------------------------------------------------------------------------

TEST(Harness, IdealTransportBitIdenticalToNoTransport) {
  const auto spec = workloads::wordcount();
  experiments::ScenarioOptions options;
  options.slots = 8;
  options.budget = online::Budget::unlimited(0.10);

  streamsim::Engine bare_engine = spec.make_engine(true, fast(), 7);
  core::DragsterController bare(core::DragsterOptions{});
  const auto no_transport =
      experiments::run_scenario(bare_engine, bare, options, spec.name);

  streamsim::Engine wired_engine = spec.make_engine(true, fast(), 7);
  core::DragsterController wired(core::DragsterOptions{});
  TransportHarness harness(TransportOptions{}, 99);  // all-zero channels
  const auto ideal = experiments::run_scenario(wired_engine, wired, options, spec.name,
                                               nullptr, nullptr, nullptr, &harness);

  expect_identical(no_transport, ideal);
  EXPECT_EQ(harness.breaker(), BreakerState::kClosed);
  EXPECT_EQ(harness.stats().frames_dropped, 0u);
  EXPECT_EQ(harness.stats().stale_serves, 0u);
  EXPECT_EQ(harness.stats().command_retries, 0u);
}

TEST(Fleet, ZeroLossTransportedOneJobFleetMatchesRunScenario) {
  // The fleet anchor from the acceptance criteria: a 1-job fleet with
  // per-job channels at zero loss reproduces bare run_scenario to the bit.
  fleet::FleetOptions options;
  options.slots = 6;
  options.budget_pods = 12;
  options.seed = 21;
  fleet::JobSpec spec;
  spec.name = "solo";
  spec.workload = workloads::wordcount();
  spec.transported = true;  // default TransportOptions = ideal channels
  const fleet::FleetResult fleet = fleet::run_fleet({spec}, options);
  ASSERT_EQ(fleet.jobs.size(), 1u);

  const online::Budget budget =
      fleet::FleetScheduler::pods_budget(options.budget_pods, options.pod_price_per_hour);
  streamsim::Engine engine = spec.workload.make_engine(
      true, spec.engine, fleet::FleetScheduler::job_seed(options.seed, 0));
  core::DragsterOptions dopts;
  dopts.budget = budget;
  core::DragsterController controller(dopts);
  experiments::ScenarioOptions scenario;
  scenario.slots = 6;
  scenario.budget = budget;
  const auto twin = experiments::run_scenario(engine, controller, scenario, spec.workload.name);

  expect_identical(fleet.jobs[0].run, twin);
}

TEST(Fleet, RejectsNetChaosWithoutTransportedTarget) {
  fleet::FleetOptions options;
  options.slots = 2;
  fleet::JobSpec spec;
  spec.name = "solo";
  spec.workload = workloads::wordcount();

  options.chaos = "netpart@1+1";  // untargeted net chaos, nothing transported
  EXPECT_THROW((void)fleet::run_fleet({spec}, options), std::invalid_argument);

  spec.transported = true;
  options.chaos = "netpart@1+1:ghost";  // unknown job name
  EXPECT_THROW((void)fleet::run_fleet({spec}, options), std::invalid_argument);

  options.chaos = "netpart@1+1;netdrop@1+1*0.5;netdelay@1+1*2";
  const fleet::FleetResult ok = fleet::run_fleet({spec}, options);
  EXPECT_EQ(ok.jobs[0].state, fleet::JobState::kFinished);
}

TEST(Fleet, NetChaosTargetingTransportlessJobIsRejected) {
  fleet::FleetOptions options;
  options.slots = 2;
  options.chaos = "netdrop@1+1*0.5:bare";
  fleet::JobSpec wired;
  wired.name = "wired";
  wired.workload = workloads::wordcount();
  wired.transported = true;
  fleet::JobSpec bare;
  bare.name = "bare";
  bare.workload = workloads::wordcount();
  EXPECT_THROW((void)fleet::run_fleet({wired, bare}, options), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Harness: breaker state machine.
// ---------------------------------------------------------------------------

/// Drives a harness directly against a real engine: one run_slot per slot,
/// fresh capture into control_step.  Returns breaker states per slot.
std::vector<BreakerState> drive(TransportHarness& harness, streamsim::Engine& engine,
                                core::Controller& controller, std::size_t slots) {
  std::vector<BreakerState> states;
  states.reserve(slots);
  for (std::size_t t = 0; t < slots; ++t) {
    harness.begin_slot(t);
    (void)engine.run_slot();
    harness.control_step(controller, streamsim::MonitorFrame::capture(engine.monitor()), t);
    states.push_back(harness.breaker());
  }
  return states;
}

TEST(Harness, BreakerOpensHoldsFallsBackAndRecloses) {
  const auto spec = workloads::wordcount();
  streamsim::Engine engine = spec.make_engine(true, fast(), 4);

  TransportOptions options;
  options.telemetry.partitions.push_back({2, 10});  // blackout slots 2..11
  options.guard.open_after_misses = 2;
  options.guard.rule_fallback_after = 3;
  TransportHarness harness(options, 55);
  RecordingActuator sink;
  harness.attach(sink, engine.dag(), online::Budget::unlimited(0.10), nullptr);

  CountingController controller;
  const auto states = drive(harness, engine, controller, 16);

  // Slots 0-1 delivered fresh: closed, controller fed.  Slot 2 rides the
  // grace slot (`stale_after_slots = 1`: the slot-1 frame still counts
  // fresh); misses accumulate from slot 3, the circuit opens at the second
  // miss and stays open for the rest of the blackout.
  for (std::size_t t = 0; t < 4; ++t) EXPECT_EQ(states[t], BreakerState::kClosed) << t;
  for (std::size_t t = 4; t < 12; ++t) EXPECT_EQ(states[t], BreakerState::kOpen) << t;
  // First post-heal delivery half-opens; the next fresh frame closes.
  EXPECT_EQ(states[12], BreakerState::kHalfOpen);
  EXPECT_EQ(states[13], BreakerState::kClosed);

  const TransportStats& stats = harness.stats();
  EXPECT_EQ(stats.breaker_opens, 1u);
  EXPECT_EQ(stats.breaker_half_opens, 1u);
  EXPECT_EQ(stats.breaker_closes, 1u);
  // While open the inner controller is never fed (its learner is frozen):
  // 4 closed slots + the half-open probe + the re-closed tail.
  EXPECT_EQ(controller.on_slot_calls, 4u + (16u - 12u));
  // Early open slots hold last-known-good; after rule_fallback_after the
  // DS2 rule takes over on the last delivered frame.
  EXPECT_GT(stats.held_slots, 0u);
  EXPECT_GT(stats.rule_fallback_slots, 0u);
  EXPECT_EQ(stats.open_slots, 8u);  // slots 4..11
}

TEST(Harness, NoWatchdogAblationNeverOpens) {
  const auto spec = workloads::wordcount();
  streamsim::Engine engine = spec.make_engine(true, fast(), 4);

  TransportOptions options;
  options.telemetry.partitions.push_back({2, 10});
  options.guard.enabled = false;
  TransportHarness harness(options, 55);
  RecordingActuator sink;
  harness.attach(sink, engine.dag(), online::Budget::unlimited(0.10), nullptr);

  CountingController controller;
  const auto states = drive(harness, engine, controller, 16);
  for (std::size_t t = 0; t < states.size(); ++t)
    EXPECT_EQ(states[t], BreakerState::kClosed) << t;
  EXPECT_EQ(harness.stats().breaker_opens, 0u);
  EXPECT_EQ(harness.stats().rule_fallback_slots, 0u);
  // The ablation feeds the controller whatever the pipe serves — including
  // the increasingly stale blackout view.
  EXPECT_EQ(controller.on_slot_calls, 16u);
  EXPECT_GT(harness.stats().stale_serves, 0u);
}

// ---------------------------------------------------------------------------
// Harness: mid-blackout snapshot restore.
// ---------------------------------------------------------------------------

TEST(Harness, SnapshotMidBlackoutRestoresBitIdentical) {
  const auto spec = workloads::wordcount();
  streamsim::Engine engine = spec.make_engine(true, fast(), 8);

  TransportOptions options;
  options.telemetry = lossy();
  options.command = lossy();
  options.ack = lossy();
  options.telemetry.partitions.push_back({5, 6});
  options.guard.open_after_misses = 2;
  TransportHarness live(options, 42);
  RecordingActuator live_sink;
  live.attach(live_sink, engine.dag(), online::Budget::unlimited(0.10), nullptr);

  // Drive to mid-blackout, capturing each slot's frame for replay into the
  // restored twin (both harnesses must observe identical inputs).
  CountingController controller;
  std::vector<streamsim::MonitorFrame> frames;
  for (std::size_t t = 0; t < 8; ++t) {
    live.begin_slot(t);
    (void)engine.run_slot();
    frames.push_back(streamsim::MonitorFrame::capture(engine.monitor()));
    live.control_step(controller, frames.back(), t);
  }
  ASSERT_EQ(live.breaker(), BreakerState::kOpen);

  const std::size_t applied_at_snapshot = live_sink.applied.size();
  resilience::SnapshotWriter writer;
  live.save_state(writer);
  TransportHarness restored(options, 42);
  RecordingActuator restored_sink;
  restored.attach(restored_sink, engine.dag(), online::Budget::unlimited(0.10), nullptr);
  resilience::SnapshotReader reader(writer.str());
  restored.load_state(reader);
  EXPECT_EQ(restored.breaker(), live.breaker());

  // Continue both through heal and reclose on identical inputs.
  CountingController live_tail, restored_tail;
  for (std::size_t t = 8; t < 20; ++t) {
    live.begin_slot(t);
    restored.begin_slot(t);
    (void)engine.run_slot();
    const auto frame = streamsim::MonitorFrame::capture(engine.monitor());
    live.control_step(live_tail, frame, t);
    restored.control_step(restored_tail, frame, t);
    ASSERT_EQ(live.breaker(), restored.breaker()) << "slot " << t;
  }
  EXPECT_EQ(live_tail.on_slot_calls, restored_tail.on_slot_calls);
  const TransportStats& a = live.stats();
  const TransportStats& b = restored.stats();
  EXPECT_EQ(a.frames_delivered, b.frames_delivered);
  EXPECT_EQ(a.missed_scrapes, b.missed_scrapes);
  EXPECT_EQ(a.breaker_opens, b.breaker_opens);
  EXPECT_EQ(a.breaker_closes, b.breaker_closes);
  // Post-restore command traffic matches application-for-application.
  const std::vector<std::pair<dag::NodeId, int>> live_tail_applied(
      live_sink.applied.begin() + static_cast<std::ptrdiff_t>(applied_at_snapshot),
      live_sink.applied.end());
  EXPECT_EQ(live_tail_applied, restored_sink.applied);
}

}  // namespace
}  // namespace dragster::transport
