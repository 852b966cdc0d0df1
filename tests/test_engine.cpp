// Integration-level tests for the stream-processing simulator: steady-state
// flow, buffering under overload, checkpoint pauses, observation quality
// (eq. 8 capacity estimates), backpressure semantics, cost accounting, and
// determinism — plus a bit pin over every SlotReport field.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "dag/throughput_fn.hpp"
#include "streamsim/engine.hpp"
#include "test_support.hpp"
#include "workloads/workloads.hpp"

namespace dragster::streamsim {
namespace {

// Source(rate) -> worker(sel 1) -> sink, with a configurable USL surface.
struct SingleOpSim {
  dag::NodeId src, op, sink;
  std::unique_ptr<Engine> engine;

  explicit SingleOpSim(double rate, UslParams usl = make_default_usl(),
                       EngineOptions options = fast_options(), std::uint64_t seed = 1) {
    dag::StreamDag dag;
    src = dag.add_source("src");
    op = dag.add_operator("worker");
    sink = dag.add_sink("sink");
    dag.add_edge(src, op, dag::identity_fn());
    dag.add_edge(op, sink, dag::identity_fn());
    dag.validate();
    std::map<dag::NodeId, UslParams> usl_map{{op, usl}};
    std::map<dag::NodeId, std::unique_ptr<RateSchedule>> schedules;
    schedules[src] = std::make_unique<ConstantRate>(rate);
    engine = std::make_unique<Engine>(std::move(dag), std::move(usl_map), std::move(schedules),
                                      options, seed);
  }

  static UslParams make_default_usl() {
    UslParams p;
    p.per_task_rate = 1000.0;
    p.contention = 0.0;
    p.coherence = 0.0;
    return p;
  }

  static EngineOptions fast_options() {
    EngineOptions o;
    o.slot_duration_s = 120.0;
    o.checkpoint_pause_s = 10.0;
    o.capacity_noise = 0.0;
    o.step_noise = 0.0;
    o.cpu_read_noise = 0.0;
    o.source_noise = 0.0;
    return o;
  }
};

TEST(Engine, UnderloadedPassesEverythingThrough) {
  SingleOpSim sim(400.0);  // capacity 1000 with 1 task
  const SlotReport& report = sim.engine->run_slot();
  EXPECT_NEAR(report.throughput_rate, 400.0, 1.0);
  EXPECT_NEAR(report.per_node[sim.op].out_rate, 400.0, 1.0);
  EXPECT_NEAR(report.per_node[sim.op].backlog_end, 0.0, 1.0);
  EXPECT_FALSE(report.per_node[sim.op].backpressured);
}

TEST(Engine, OverloadTruncatesAndBuffers) {
  SingleOpSim sim(1500.0);  // capacity 1000
  const SlotReport& report = sim.engine->run_slot();
  EXPECT_NEAR(report.throughput_rate, 1000.0, 5.0);
  // 500 tuples/s deficit accumulates in the buffer.
  EXPECT_NEAR(report.per_node[sim.op].backlog_end, 500.0 * 120.0, 1500.0);
  EXPECT_TRUE(report.per_node[sim.op].backpressured);
}

TEST(Engine, BacklogDrainsAfterScaleUp) {
  SingleOpSim sim(1500.0);
  sim.engine->run_slot();  // builds ~60k backlog
  sim.engine->set_tasks(sim.op, 2);  // capacity 2000
  const SlotReport& report = sim.engine->run_slot();
  // Drains at ~500/s spare: processes more than offered.
  EXPECT_GT(report.tuples_processed, 1500.0 * (120.0 - 10.0));
  const SlotReport& later = sim.engine->run_slot();
  EXPECT_NEAR(later.per_node[sim.op].backlog_end, 0.0, 10.0);
  EXPECT_FALSE(later.per_node[sim.op].backpressured);
}

TEST(Engine, ObservedCapacityMatchesEquation8) {
  // Under load, c = out/util should recover the hidden capacity regardless
  // of the utilization level.
  SingleOpSim busy(900.0);
  const SlotReport& r1 = busy.engine->run_slot();
  EXPECT_NEAR(r1.per_node[busy.op].observed_capacity, 1000.0, 20.0);

  SingleOpSim light(300.0);
  const SlotReport& r2 = light.engine->run_slot();
  EXPECT_NEAR(r2.per_node[light.op].observed_capacity, 1000.0, 20.0);
}

TEST(Engine, CheckpointPauseCostsProcessingTime) {
  SingleOpSim steady(800.0);
  steady.engine->run_slot();
  const double baseline = steady.engine->run_slot().tuples_processed;

  SingleOpSim reconfigured(800.0);
  reconfigured.engine->run_slot();
  reconfigured.engine->set_tasks(reconfigured.op, 2);
  const SlotReport& paused = reconfigured.engine->run_slot();
  EXPECT_DOUBLE_EQ(paused.pause_s, 10.0);
  // 10s of 120s lost, but parked tuples are re-consumed after resume, so the
  // deficit is bounded by (pause/slot) and recovered within the slot when
  // spare capacity exists (capacity 2000 > rate 800).
  EXPECT_NEAR(paused.tuples_processed, baseline, baseline * 0.02);

  // With *no* spare capacity the pause is a real loss.
  SingleOpSim saturated(1000.0);
  saturated.engine->run_slot();
  saturated.engine->set_tasks(saturated.op, 1);  // no-op: no pause
  const double full = saturated.engine->run_slot().tuples_processed;
  EXPECT_DOUBLE_EQ(saturated.engine->last_report().pause_s, 0.0);
  (void)full;
}

TEST(Engine, NoReconfigurationNoPause) {
  SingleOpSim sim(500.0);
  sim.engine->run_slot();
  EXPECT_DOUBLE_EQ(sim.engine->last_report().pause_s, 0.0);
  sim.engine->set_tasks(sim.op, 1);  // same value: not a reconfiguration
  EXPECT_DOUBLE_EQ(sim.engine->run_slot().pause_s, 0.0);
}

TEST(Engine, CostAccountingMatchesPods) {
  SingleOpSim sim(500.0);
  sim.engine->set_tasks(sim.op, 4);  // 4 pods * $0.10/h
  const SlotReport& report = sim.engine->run_slot();
  EXPECT_NEAR(report.cost_rate_per_hour, 0.40, 1e-9);
  EXPECT_NEAR(report.cost, 0.40 * 120.0 / 3600.0, 1e-9);
  EXPECT_NEAR(sim.engine->total_cost(), report.cost, 1e-12);
}

TEST(Engine, DeterministicAcrossRuns) {
  EngineOptions noisy;
  noisy.slot_duration_s = 120.0;
  auto make = [&]() { return SingleOpSim(900.0, SingleOpSim::make_default_usl(), noisy, 77); };
  SingleOpSim a = make();
  SingleOpSim b = make();
  for (int i = 0; i < 3; ++i) {
    const SlotReport& ra = a.engine->run_slot();
    const SlotReport& rb = b.engine->run_slot();
    EXPECT_DOUBLE_EQ(ra.tuples_processed, rb.tuples_processed);
    EXPECT_DOUBLE_EQ(ra.per_node[a.op].observed_capacity, rb.per_node[b.op].observed_capacity);
  }
}

TEST(Engine, SeedChangesNoiseButNotStructure) {
  EngineOptions noisy;
  noisy.slot_duration_s = 120.0;
  SingleOpSim a(900.0, SingleOpSim::make_default_usl(), noisy, 1);
  SingleOpSim b(900.0, SingleOpSim::make_default_usl(), noisy, 2);
  const double ta = a.engine->run_slot().tuples_processed;
  const double tb = b.engine->run_slot().tuples_processed;
  EXPECT_NE(ta, tb);
  EXPECT_NEAR(ta, tb, 0.1 * ta);  // same regime
}

TEST(Engine, ThroughputSeriesCoversSlot) {
  SingleOpSim sim(500.0);
  const SlotReport& report = sim.engine->run_slot();
  ASSERT_FALSE(report.throughput_series.empty());
  EXPECT_NEAR(report.throughput_series.front().first, 60.0, 1.5);
  EXPECT_NEAR(report.throughput_series.back().first, 120.0, 1.5);
  for (const auto& [t, rate] : report.throughput_series) EXPECT_NEAR(rate, 500.0, 10.0);
}

TEST(Engine, SeriesShowsCheckpointDip) {
  EngineOptions options = SingleOpSim::fast_options();
  options.sample_interval_s = 10.0;  // resolve the pause window
  SingleOpSim sim(900.0, SingleOpSim::make_default_usl(), options);
  sim.engine->run_slot();
  sim.engine->set_tasks(sim.op, 2);
  const SlotReport& report = sim.engine->run_slot();
  // The first sampled window straddles the 10 s checkpoint: rate collapses.
  EXPECT_LT(report.throughput_series.front().second, 250.0);
  // The catch-up window right after shows the parked tuples draining.
  EXPECT_GT(report.throughput_series[1].second, 950.0);
}

TEST(Engine, BufferLimitDropsTuples) {
  EngineOptions options = SingleOpSim::fast_options();
  options.buffer_limit = 1000.0;
  SingleOpSim sim(2000.0, SingleOpSim::make_default_usl(), options);
  const SlotReport& report = sim.engine->run_slot();
  EXPECT_GT(report.per_node[sim.op].dropped, 0.0);
  EXPECT_LE(report.per_node[sim.op].backlog_end, 1000.0 + 1e-6);
}

TEST(Engine, EdgeRatesReported) {
  SingleOpSim sim(600.0);
  const SlotReport& report = sim.engine->run_slot();
  ASSERT_EQ(report.edge_rate.size(), sim.engine->dag().edge_count());
  EXPECT_NEAR(report.edge_rate[0], 600.0, 5.0);  // src -> worker
  EXPECT_NEAR(report.edge_rate[1], 600.0, 5.0);  // worker -> sink
}

TEST(Engine, RejectsBadConfiguration) {
  SingleOpSim sim(500.0);
  Engine& engine = *sim.engine;
  EXPECT_THROW(engine.set_tasks(sim.op, 0), std::invalid_argument);
  EXPECT_THROW(engine.set_tasks(sim.op, 99), std::invalid_argument);
  EXPECT_THROW(engine.set_capacity_degradation(sim.op, 0.0), std::invalid_argument);
  EXPECT_THROW(engine.set_capacity_degradation(sim.op, 1.5), std::invalid_argument);
  EXPECT_THROW(engine.arm_checkpoint_failure(0), std::invalid_argument);

  // Every node-keyed method rejects a source, the sink and an unknown id.
  const dag::NodeId unknown = engine.dag().node_count();
  for (const dag::NodeId id : {sim.src, sim.sink, unknown, dag::NodeId{1} << 40}) {
    EXPECT_THROW(engine.set_tasks(id, 2), std::invalid_argument) << id;
    EXPECT_THROW(engine.set_pod_spec(id, cluster::PodSpec{2.0, 4.0}), std::invalid_argument)
        << id;
    EXPECT_THROW(engine.inject_pod_failure(id), std::invalid_argument) << id;
    EXPECT_THROW(engine.set_capacity_degradation(id, 0.5), std::invalid_argument) << id;
    EXPECT_THROW(engine.set_metric_dropout(id, true), std::invalid_argument) << id;
    EXPECT_THROW((void)engine.tasks(id), std::invalid_argument) << id;
    EXPECT_THROW((void)engine.pod_spec(id), std::invalid_argument) << id;
    EXPECT_THROW((void)engine.true_capacity(id, 1), std::invalid_argument) << id;
    EXPECT_THROW((void)engine.capacity_model(id), std::invalid_argument) << id;
  }
  // offered_rate is keyed by source: an operator, the sink and an unknown
  // id are rejected.
  for (const dag::NodeId id : {sim.op, sim.sink, unknown})
    EXPECT_THROW((void)engine.offered_rate(id, 0.0), std::invalid_argument) << id;
  EXPECT_EQ(engine.tasks(sim.op), 1);  // the rejected calls changed nothing

  // Options the engine cannot simulate: a negative or NaN buffer bound, and a
  // micro-step longer than the slot (it would round to zero steps per slot).
  auto rejected = [](EngineOptions options) {
    EXPECT_THROW(SingleOpSim(500.0, SingleOpSim::make_default_usl(), options),
                 std::invalid_argument);
  };
  EngineOptions options = SingleOpSim::fast_options();
  options.buffer_limit = -1.0;
  rejected(options);
  options.buffer_limit = std::numeric_limits<double>::quiet_NaN();
  rejected(options);
  options = SingleOpSim::fast_options();
  options.micro_step_s = options.slot_duration_s * 2.5;
  rejected(options);
  options.micro_step_s = options.slot_duration_s;  // one step per slot is fine
  EXPECT_NO_THROW(SingleOpSim(500.0, SingleOpSim::make_default_usl(), options));
  options = SingleOpSim::fast_options();
  options.buffer_limit = 0.0;  // no buffering at all is fine too
  EXPECT_NO_THROW(SingleOpSim(500.0, SingleOpSim::make_default_usl(), options));
}

TEST(Engine, MonitorExposesReadOnlyView) {
  SingleOpSim sim(500.0);
  const JobMonitor monitor = sim.engine->monitor();
  EXPECT_FALSE(monitor.has_report());
  sim.engine->run_slot();
  EXPECT_TRUE(monitor.has_report());
  EXPECT_EQ(monitor.tasks(sim.op), 1);
  EXPECT_EQ(monitor.slots_run(), 1u);
  EXPECT_GT(monitor.total_tuples(), 0.0);
  EXPECT_NEAR(monitor.pod_price_per_hour(sim.op), 0.10, 1e-12);
}

TEST(Engine, VerticalScalingChangesCapacity) {
  UslParams p = SingleOpSim::make_default_usl();
  p.cpu_exponent = 1.0;
  SingleOpSim sim(1800.0, p);
  sim.engine->set_pod_spec(sim.op, cluster::PodSpec{2.0, 4.0});
  const SlotReport& report = sim.engine->run_slot();
  EXPECT_DOUBLE_EQ(report.pause_s, 10.0);  // VPA restart also checkpoints
  EXPECT_NEAR(report.per_node[sim.op].observed_capacity, 2000.0, 50.0);
}



TEST(Engine, PodFailureDegradesCapacityWithoutPause) {
  SingleOpSim sim(1500.0);
  sim.engine->set_tasks(sim.op, 3);  // capacity 3000
  sim.engine->run_slot();
  sim.engine->run_slot();  // settle (no pause pending)
  sim.engine->inject_pod_failure(sim.op);
  const SlotReport& report = sim.engine->run_slot();
  EXPECT_EQ(report.per_node[sim.op].tasks, 2);
  EXPECT_DOUBLE_EQ(report.pause_s, 0.0);  // crashes do not checkpoint
  EXPECT_NEAR(report.per_node[sim.op].observed_capacity, 2000.0, 40.0);
}

TEST(Engine, PodFailureKeepsLastPod) {
  SingleOpSim sim(500.0);
  sim.engine->inject_pod_failure(sim.op);  // already at 1 task
  EXPECT_EQ(sim.engine->tasks(sim.op), 1);
}

TEST(Engine, MetricDropoutServesTheLastScrape) {
  SingleOpSim sim(800.0);
  // A dropout from slot 0: nothing was ever scraped, so 0 is served.
  sim.engine->set_metric_dropout(sim.op, true);
  const OperatorMetrics blind = sim.engine->run_slot().per_node[sim.op];
  EXPECT_TRUE(blind.metrics_stale);
  EXPECT_TRUE(blind.fault_tainted);
  EXPECT_DOUBLE_EQ(blind.cpu_utilization, 0.0);
  EXPECT_DOUBLE_EQ(blind.observed_capacity, 0.0);

  // Two fresh scrapes that differ, then a dropout: the last one is served,
  // not an average over earlier scrapes.
  sim.engine->set_metric_dropout(sim.op, false);
  const double busy = sim.engine->run_slot().per_node[sim.op].cpu_utilization;
  sim.engine->set_tasks(sim.op, 2);
  const double halved = sim.engine->run_slot().per_node[sim.op].cpu_utilization;
  ASSERT_LT(halved, busy - 0.1);
  sim.engine->set_metric_dropout(sim.op, true);
  for (int slot = 0; slot < 2; ++slot) {
    const OperatorMetrics stale = sim.engine->run_slot().per_node[sim.op];
    EXPECT_TRUE(stale.metrics_stale);
    EXPECT_DOUBLE_EQ(stale.cpu_utilization, halved);
    EXPECT_DOUBLE_EQ(stale.observed_capacity, 0.0);
  }
}

TEST(Engine, QueueDelayFollowsLittlesLaw) {
  // Overloaded by 500 tuples/s: after a 120 s slot the buffer holds ~60k
  // tuples and the operator drains at ~1000/s, so the delay estimate at the
  // *average* backlog (~30k) is ~30 s.
  SingleOpSim sim(1500.0);
  const SlotReport& report = sim.engine->run_slot();
  EXPECT_NEAR(report.per_node[sim.op].queue_delay_s, 30.0, 4.0);
  EXPECT_NEAR(report.latency_estimate_s, report.per_node[sim.op].queue_delay_s, 1e-9);
}

TEST(Engine, QueueDelayNearZeroWhenKeepingUp) {
  SingleOpSim sim(500.0);
  const SlotReport& report = sim.engine->run_slot();
  EXPECT_LT(report.per_node[sim.op].queue_delay_s, 0.1);
  EXPECT_LT(report.latency_estimate_s, 0.1);
}

TEST(Engine, LatencyDropsAfterScaleUp) {
  SingleOpSim sim(1500.0);
  const double congested = sim.engine->run_slot().latency_estimate_s;
  sim.engine->set_tasks(sim.op, 3);  // capacity 3000 drains the buffer fast
  sim.engine->run_slot();
  const double drained = sim.engine->run_slot().latency_estimate_s;
  EXPECT_GT(congested, 10.0);
  EXPECT_LT(drained, 0.5);
}

// -- bit pin -------------------------------------------------------------------

// FNV-1a over the bytes of every field of every SlotReport a run produces.
struct ReportHash {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void word(std::uint64_t w) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (w >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  void real(double v) { word(std::bit_cast<std::uint64_t>(v)); }
  void flag(bool b) { word(b ? 1 : 0); }
  void integer(int i) { word(static_cast<std::uint64_t>(static_cast<std::int64_t>(i))); }

  void add(const SlotReport& r) {
    word(r.slot_index);
    for (double v : {r.start_seconds, r.duration_s, r.pause_s, r.tuples_processed,
                     r.throughput_rate, r.cost, r.cost_rate_per_hour, r.latency_estimate_s})
      real(v);
    integer(r.checkpoint_retries);
    flag(r.checkpoint_aborted);
    word(r.per_node.size());
    for (const OperatorMetrics& m : r.per_node) {
      for (double v : {m.in_rate, m.out_rate, m.demand_rate, m.arrival_demand_rate,
                       m.cpu_utilization, m.observed_capacity, m.backlog_start, m.backlog_end,
                       m.dropped, m.queue_delay_s})
        real(v);
      integer(m.tasks);
      flag(m.backpressured);
      flag(m.fault_tainted);
      flag(m.metrics_stale);
    }
    word(r.source_rate.size());
    for (double v : r.source_rate) real(v);
    word(r.edge_rate.size());
    for (double v : r.edge_rate) real(v);
    word(r.throughput_series.size());
    for (const auto& [t, rate] : r.throughput_series) {
      real(t);
      real(rate);
    }
  }
};

// What the scripted run exercised, summed over every engine in the pin.
struct Coverage {
  int retries_landed = 0;
  int aborts = 0;
  int stale = 0;
  int tainted = 0;
  double dropped = 0.0;
};

// 40 slots through every actuator and fault seam: rescale, resize, a pod
// crash (alone and on top of a pending rescale), a straggler, a metric
// outage, one checkpoint failure whose retries land, and one whose chain
// aborts and rolls the rescale and resize back.
void drive(Engine& engine, ReportHash& hash, Coverage& coverage) {
  const std::vector<dag::NodeId>& ops = engine.dag().operators();
  const dag::NodeId first = ops.front();
  const dag::NodeId last = ops.back();
  for (int slot = 0; slot < 40; ++slot) {
    switch (slot) {
      case 2:
        for (dag::NodeId op : ops) engine.set_tasks(op, 2);
        break;
      case 5:
        engine.set_pod_spec(first, cluster::PodSpec{2.0, 4.0});
        engine.set_tasks(last, 3);
        break;
      case 8:
        engine.inject_pod_failure(first);
        engine.inject_pod_failure(last);
        break;
      case 10: engine.set_capacity_degradation(last, 0.6); break;
      case 12: engine.set_metric_dropout(first, true); break;
      case 15: engine.set_capacity_degradation(last, 1.0); break;
      case 17: engine.set_metric_dropout(first, false); break;
      case 20:  // 30 + 60 s of checkpointing: under the 300 s abort cap
        engine.arm_checkpoint_failure(1);
        engine.set_tasks(first, 4);
        break;
      case 25:  // 30 * (1 + 2 + 4 + 8 + 16) s: past the cap, rolled back
        engine.arm_checkpoint_failure(4);
        engine.set_tasks(first, 6);
        engine.set_pod_spec(last, cluster::PodSpec{4.0, 8.0});
        break;
      case 30:
        engine.set_tasks(first, 5);
        engine.inject_pod_failure(first);
        break;
      case 33: engine.arm_checkpoint_failure(2); break;  // waits for a reconfiguration
      case 35:
        for (dag::NodeId op : ops) engine.set_tasks(op, 3);
        break;
      default: break;
    }
    const SlotReport& report = engine.run_slot();
    hash.add(report);
    coverage.retries_landed += report.checkpoint_retries > 0 && !report.checkpoint_aborted;
    coverage.aborts += report.checkpoint_aborted;
    for (dag::NodeId op : ops) {
      coverage.stale += report.per_node[op].metrics_stale;
      coverage.tainted += report.per_node[op].fault_tainted;
      coverage.dropped += report.per_node[op].dropped;
    }
  }
}

EngineOptions pinned_options() {
  EngineOptions options;
  options.buffer_limit = 2e4;  // small enough that the overloaded slots drop tuples
  return options;
}

TEST(Engine, SlotReportBitsArePinned) {
  ReportHash hash;
  Coverage coverage;
  std::vector<workloads::WorkloadSpec> specs = workloads::nexmark_suite();
  specs.push_back(workloads::yahoo());
  std::uint64_t seed = 11;
  for (const workloads::WorkloadSpec& spec : specs) {
    Engine engine = spec.make_engine(/*high=*/true, pinned_options(), seed++);
    drive(engine, hash, coverage);
  }

  const dag::BranchFixture fx(/*custom_edge=*/true);
  std::map<dag::NodeId, UslParams> usl;
  double per_task = 900.0;
  for (dag::NodeId op : fx.dag.operators()) {
    UslParams p;
    p.per_task_rate = per_task;
    p.contention = 0.04;
    p.coherence = 0.002;
    usl[op] = p;
    per_task += 350.0;
  }
  std::map<dag::NodeId, std::unique_ptr<RateSchedule>> schedules;
  schedules[fx.src] = std::make_unique<ConstantRate>(2600.0);
  Engine branch(fx.dag, usl, std::move(schedules), pinned_options(), seed);
  drive(branch, hash, coverage);

  EXPECT_EQ(coverage.retries_landed, 14);  // slots 20 and 35 on each of 7 engines
  EXPECT_EQ(coverage.aborts, 7);
  EXPECT_GT(coverage.stale, 0);
  EXPECT_GT(coverage.tainted, 0);
  EXPECT_GT(coverage.dropped, 0.0);
  EXPECT_EQ(hash.h, 0xf5e6350f0d279508ULL) << std::hex << "0x" << hash.h;
}

}  // namespace
}  // namespace dragster::streamsim
