// Fault-injection subsystem tests: plan parsing/sampling, each injector
// seam (crash, straggler, checkpoint failure + backoff, metric dropout),
// recovery analytics, and the controller-side hardening (tainted
// observations never reach the GP; crashed pods are re-commanded).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "actuation/actuation.hpp"
#include "common/error.hpp"
#include "core/dragster_controller.hpp"
#include "experiments/scenario.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "faults/recovery.hpp"
#include "streamsim/engine.hpp"

namespace dragster::faults {
namespace {

// Source(rate) -> worker -> sink with a linear USL surface and no noise, so
// capacity observations are exact and fault effects are attributable.
struct ChaosSim {
  dag::NodeId src, op, sink;
  std::unique_ptr<streamsim::Engine> engine;

  explicit ChaosSim(double rate, int tasks = 1, std::uint64_t seed = 1,
                    streamsim::EngineOptions options = fast_options()) {
    dag::StreamDag dag;
    src = dag.add_source("src");
    op = dag.add_operator("worker");
    sink = dag.add_sink("sink");
    dag.add_edge(src, op, dag::identity_fn());
    dag.add_edge(op, sink, dag::identity_fn());
    dag.validate();
    streamsim::UslParams usl;
    usl.per_task_rate = 1000.0;
    usl.contention = 0.0;
    usl.coherence = 0.0;
    std::map<dag::NodeId, streamsim::UslParams> usl_map{{op, usl}};
    std::map<dag::NodeId, std::unique_ptr<streamsim::RateSchedule>> schedules;
    schedules[src] = std::make_unique<streamsim::ConstantRate>(rate);
    engine = std::make_unique<streamsim::Engine>(std::move(dag), std::move(usl_map),
                                                 std::move(schedules), options, seed);
    if (tasks != 1) {
      engine->set_tasks(op, tasks);
      engine->run_slot();  // absorb the initial reconfiguration pause
    }
  }

  static streamsim::EngineOptions fast_options() {
    streamsim::EngineOptions o;
    o.slot_duration_s = 120.0;
    o.checkpoint_pause_s = 10.0;
    o.capacity_noise = 0.0;
    o.step_noise = 0.0;
    o.cpu_read_noise = 0.0;
    o.source_noise = 0.0;
    return o;
  }

  [[nodiscard]] const streamsim::OperatorMetrics& metrics() const {
    return engine->last_report().per_node[op];
  }
};

// ---------------------------------------------------------------------------
// FaultPlan: grammar, validation, sampling.
// ---------------------------------------------------------------------------

TEST(FaultPlan, ParsesCanonicalSpec) {
  const FaultPlan plan = FaultPlan::parse(
      "crash@20*2:shuffle;straggler@28+2*0.3:map;ckptfail@36*2;dropout@44+3:shuffle");
  ASSERT_EQ(plan.size(), 4u);

  EXPECT_EQ(plan.events()[0].kind, FaultKind::kPodCrash);
  EXPECT_EQ(plan.events()[0].slot, 20u);
  EXPECT_DOUBLE_EQ(plan.events()[0].value, 2.0);
  EXPECT_EQ(plan.events()[0].op, "shuffle");

  EXPECT_EQ(plan.events()[1].kind, FaultKind::kStraggler);
  EXPECT_EQ(plan.events()[1].duration_slots, 2u);
  EXPECT_DOUBLE_EQ(plan.events()[1].value, 0.3);
  EXPECT_EQ(plan.events()[1].op, "map");

  EXPECT_EQ(plan.events()[2].kind, FaultKind::kCheckpointFailure);
  EXPECT_DOUBLE_EQ(plan.events()[2].value, 2.0);
  EXPECT_TRUE(plan.events()[2].op.empty());

  EXPECT_EQ(plan.events()[3].kind, FaultKind::kMetricDropout);
  EXPECT_EQ(plan.events()[3].duration_slots, 3u);
}

TEST(FaultPlan, RoundTripsThroughToString) {
  const char* spec =
      "crash@5:map;straggler@8+2*0.25:map;crash@12*3:shuffle;ckptfail@15*2;dropout@20+4:map";
  const FaultPlan plan = FaultPlan::parse(spec);
  EXPECT_EQ(plan.to_string(), spec);
  EXPECT_EQ(FaultPlan::parse(plan.to_string()).to_string(), plan.to_string());
}

TEST(FaultPlan, SortsEventsBySlot) {
  const FaultPlan plan = FaultPlan::parse("dropout@30+2:map;crash@10:map;ckptfail@20");
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0].slot, 10u);
  EXPECT_EQ(plan.events()[1].slot, 20u);
  EXPECT_EQ(plan.events()[2].slot, 30u);
}

TEST(FaultPlan, NormalizesCrashPodCount) {
  EXPECT_DOUBLE_EQ(FaultPlan::parse("crash@3:w").events()[0].value, 1.0);
  EXPECT_DOUBLE_EQ(FaultPlan::parse("crash@3*2:w").events()[0].value, 2.0);
  // Programmatic construction with the default value gets the same default.
  const FaultPlan plan({{FaultKind::kPodCrash, 3, 1, 0.0, "w"}});
  EXPECT_DOUBLE_EQ(plan.events()[0].value, 1.0);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW((void)FaultPlan::parse("meteor@3:w"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("crash:w"), std::invalid_argument);        // no @slot
  EXPECT_THROW((void)FaultPlan::parse("crash@3"), std::invalid_argument);        // no op
  EXPECT_THROW((void)FaultPlan::parse("crash@3:"), std::invalid_argument);       // empty op
  EXPECT_THROW((void)FaultPlan::parse("straggler@3*1.5:w"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("straggler@3+0*0.5:w"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("crash@3#w"), std::invalid_argument);      // bad tag
}

TEST(FaultPlan, EmptySpecsYieldEmptyPlans) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse(";;").empty());       // separators, no events
  EXPECT_TRUE(FaultPlan::parse("crash@3:w;").events().size() == 1);  // trailing ';' ok
  EXPECT_TRUE(FaultPlan().empty());
}

TEST(FaultPlan, RejectsExplicitGarbageModifiers) {
  // An explicit *0 must not be silently re-interpreted as "the default":
  // crash@3*0 would otherwise become one pod, schedfail@3*0 would pass the
  // takes-no-value check by accident.
  EXPECT_THROW((void)FaultPlan::parse("crash@3*0:w"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("schedfail@3*0"), std::invalid_argument);
  // Fractional counts would truncate silently downstream.
  EXPECT_THROW((void)FaultPlan::parse("crash@3*1.5:w"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("ckptfail@3*2.5"), std::invalid_argument);
  // Values on kinds that ignore them are spec bugs, not no-ops.
  EXPECT_THROW((void)FaultPlan::parse("dropout@3*2:w"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("ctrlcrash@3*2"), std::invalid_argument);
  // Durations on instantaneous kinds likewise.
  EXPECT_THROW((void)FaultPlan::parse("crash@3+2:w"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("ckptfail@3+2"), std::invalid_argument);
  // Repeated modifiers in one event.
  EXPECT_THROW((void)FaultPlan::parse("straggler@3+2+2*0.5:w"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("straggler@3*0.5*0.5:w"), std::invalid_argument);
  // The programmatic defaulting contract is untouched: value 0 -> one pod.
  const FaultPlan programmatic({{FaultKind::kPodCrash, 3, 1, 0.0, "w"}});
  EXPECT_DOUBLE_EQ(programmatic.events()[0].value, 1.0);
}

TEST(FaultPlan, RejectsDuplicateEvents) {
  // Same (kind, slot, op) twice would double-fire in the injector.
  EXPECT_THROW((void)FaultPlan::parse("crash@3:w;crash@3:w"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("ctrlcrash@5;ctrlcrash@5"), std::invalid_argument);
  // Same slot is fine across kinds or operators.
  EXPECT_EQ(FaultPlan::parse("crash@3:w;ckptfail@3*2").size(), 2u);
  EXPECT_EQ(FaultPlan::parse("dropout@3+1:w;dropout@3+1:v").size(), 2u);
}

TEST(FaultPlan, ConstructorAppliesTheParserRules) {
  // Each of these used to construct, then print a spec parse() rejects: half
  // a pod, windows on instantaneous kinds, a fractional retry count, a value
  // on a value-less kind, a target that splits the spec, and numbers past the
  // lexer's limit.
  EXPECT_THROW(FaultPlan({{FaultKind::kPodCrash, 3, 1, 1.5, "w"}}), Error);
  EXPECT_THROW(FaultPlan({{FaultKind::kPodCrash, 3, 2, 1.0, "w"}}), Error);
  EXPECT_THROW(FaultPlan({{FaultKind::kCheckpointFailure, 3, 2, 1.0, ""}}), Error);
  EXPECT_THROW(FaultPlan({{FaultKind::kCheckpointFailure, 3, 1, 2.5, ""}}), Error);
  EXPECT_THROW(FaultPlan({{FaultKind::kMetricDropout, 3, 1, 2.0, "w"}}), Error);
  EXPECT_THROW(FaultPlan({{FaultKind::kPodCrash, 3, 1, 1.0, "a;b"}}), Error);
  EXPECT_THROW(FaultPlan({{FaultKind::kPodCrash, 1000000000, 1, 1.0, "w"}}), Error);
  EXPECT_THROW(FaultPlan({{FaultKind::kSchedulerDelay, 3, 1, 1e12, ""}}), Error);
  // ckptfail is job-wide: a target would be silently ignored by the injector.
  EXPECT_THROW((void)FaultPlan::parse("ckptfail@3:w"), Error);
  EXPECT_THROW(FaultPlan({{FaultKind::kCheckpointFailure, 3, 1, 1.0, "w"}}), Error);
}

TEST(FaultPlan, PrintsValuesThatReadBackExactly) {
  // %g printed "1e+06" and "1e-05", which the lexer rejects.
  const FaultPlan plan({{FaultKind::kCheckpointFailure, 3, 1, 1e6, ""},
                        {FaultKind::kStraggler, 3, 1, 1e-5, "w"}});
  EXPECT_EQ(plan.to_string(), "ckptfail@3*1000000;straggler@3*0.00001:w");
  const FaultPlan again = FaultPlan::parse(plan.to_string());
  ASSERT_EQ(again.size(), 2u);
  EXPECT_EQ(again.events()[0].value, 1e6);
  EXPECT_EQ(again.events()[1].value, 1e-5);
  // Every digit the double needs survives.
  EXPECT_EQ(FaultPlan::parse("straggler@3*0.33333333:w").to_string(), "straggler@3*0.33333333:w");
}

TEST(FaultInjector, WindowPastEndOfRunIsClippedNotFatal) {
  // A duration reaching past the horizon parses (the plan does not know the
  // run length) and simply stays open until the run ends.
  ChaosSim sim(1900.0, /*tasks=*/2);
  FaultInjector injector(FaultPlan::parse("straggler@1+100*0.5:worker"));
  for (int t = 0; t < 4; ++t) {
    injector.before_slot(*sim.engine);
    sim.engine->run_slot();
  }
  EXPECT_TRUE(sim.metrics().fault_tainted);  // still open at the last slot
  EXPECT_FALSE(injector.exhausted());        // window outlives the run
}

TEST(FaultPlan, ParsesControllerCrashAndRoundTrips) {
  const FaultPlan plan = FaultPlan::parse("ctrlcrash@25");
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kControllerCrash);
  EXPECT_EQ(plan.events()[0].slot, 25u);
  EXPECT_TRUE(plan.events()[0].op.empty());
  EXPECT_EQ(plan.to_string(), "ctrlcrash@25");
  // The event is control-plane only: no operator target, no window.
  EXPECT_THROW((void)FaultPlan::parse("ctrlcrash@5:map"), Error);
  EXPECT_THROW((void)FaultPlan::parse("ctrlcrash@5+2"), Error);
}

TEST(FaultPlan, ParsesSchedulerFaultsAndRoundTrips) {
  const FaultPlan plan = FaultPlan::parse("schedfail@10+3;scheddelay@20+4*3");
  ASSERT_EQ(plan.size(), 2u);

  EXPECT_EQ(plan.events()[0].kind, FaultKind::kSchedulerOutage);
  EXPECT_EQ(plan.events()[0].slot, 10u);
  EXPECT_EQ(plan.events()[0].duration_slots, 3u);
  EXPECT_TRUE(plan.events()[0].op.empty());  // cluster-wide, no target

  EXPECT_EQ(plan.events()[1].kind, FaultKind::kSchedulerDelay);
  EXPECT_EQ(plan.events()[1].duration_slots, 4u);
  EXPECT_DOUBLE_EQ(plan.events()[1].value, 3.0);

  EXPECT_EQ(plan.to_string(), "schedfail@10+3;scheddelay@20+4*3");
  EXPECT_EQ(FaultPlan::parse(plan.to_string()).to_string(), plan.to_string());

  // Short forms: one-slot window, default delay multiplier of 2.
  EXPECT_EQ(FaultPlan::parse("schedfail@5").events()[0].duration_slots, 1u);
  EXPECT_DOUBLE_EQ(FaultPlan::parse("scheddelay@5").events()[0].value, 2.0);
  EXPECT_EQ(FaultPlan::parse("scheddelay@5").to_string(), "scheddelay@5*2");
}

TEST(FaultPlan, SchedulerSpecsRejectMalformedForms) {
  // Cluster-wide faults: no ':operator' target, and schedfail has no value.
  EXPECT_THROW((void)FaultPlan::parse("schedfail@5:worker"), Error);
  EXPECT_THROW((void)FaultPlan::parse("schedfail@5*2"), Error);
  EXPECT_THROW((void)FaultPlan::parse("scheddelay@5:worker"), Error);
  // A delay multiplier of 1 (or less) is not a fault.
  EXPECT_THROW((void)FaultPlan::parse("scheddelay@5*1"), Error);
  EXPECT_THROW((void)FaultPlan::parse("scheddelay@5*0.5"), Error);
  EXPECT_THROW((void)FaultPlan::parse("schedfail@5+0"), Error);  // empty window
}

TEST(FaultInjector, SchedulerFaultsRequireAnActuationManager) {
  ChaosSim sim(800.0);
  FaultInjector injector(FaultPlan::parse("schedfail@1+2"));
  EXPECT_THROW(injector.before_slot(*sim.engine), Error);
  EXPECT_THROW(injector.before_slot(*sim.engine, nullptr), Error);
}

TEST(FaultInjector, SchedulerOutageWindowOpensAndCloses) {
  ChaosSim sim(800.0);
  actuation::ActuationManager manager(*sim.engine, actuation::ActuationOptions{}, 1);
  FaultInjector injector(FaultPlan::parse("schedfail@1+2"));

  injector.before_slot(*sim.engine, &manager);  // slot 0: not yet
  sim.engine->run_slot();
  EXPECT_TRUE(sim.engine->cluster().try_admit(1, 0.0));

  injector.before_slot(*sim.engine, &manager);  // slot 1: outage opens
  sim.engine->run_slot();
  EXPECT_FALSE(sim.engine->cluster().try_admit(1, 0.0));
  injector.before_slot(*sim.engine, &manager);  // slot 2: still open
  sim.engine->run_slot();
  EXPECT_FALSE(sim.engine->cluster().try_admit(1, 0.0));

  injector.before_slot(*sim.engine, &manager);  // slot 3: window closed
  EXPECT_TRUE(sim.engine->cluster().try_admit(1, 0.0));
  EXPECT_TRUE(injector.exhausted());
  ASSERT_EQ(injector.applied().size(), 1u);
  EXPECT_EQ(injector.applied()[0].event.kind, FaultKind::kSchedulerOutage);
}

TEST(FaultPlan, SampleCanDrawSchedulerFaults) {
  FaultPlan::SampleOptions options;
  options.horizon_slots = 60;
  options.warmup_slots = 5;
  options.schedfail_prob = 0.2;
  options.scheddelay_prob = 0.2;
  options.operators = {"worker"};

  common::Rng rng(7);
  const FaultPlan plan = FaultPlan::sample(rng, options);
  bool saw_outage = false, saw_delay = false;
  for (const FaultEvent& event : plan.events()) {
    saw_outage = saw_outage || event.kind == FaultKind::kSchedulerOutage;
    saw_delay = saw_delay || event.kind == FaultKind::kSchedulerDelay;
    if (event.kind == FaultKind::kSchedulerDelay) {
      EXPECT_DOUBLE_EQ(event.value, 3.0);
    }
  }
  EXPECT_TRUE(saw_outage);
  EXPECT_TRUE(saw_delay);
}

TEST(FaultPlan, MalformedSpecsThrowErrorQuotingTheToken) {
  auto expect_error = [](const std::string& spec, const std::string& quoted) {
    SCOPED_TRACE(spec);
    try {
      (void)FaultPlan::parse(spec);
      FAIL() << "expected dragster::Error";
    } catch (const Error& error) {
      EXPECT_NE(std::string(error.what()).find("'" + quoted + "'"), std::string::npos)
          << error.what();
    }
  };
  expect_error("meteor@3:w", "meteor");                      // unknown kind
  expect_error("crash@-5:w", "crash@-5:w");                  // negative slot
  expect_error("crash@5.5:w", "5.5");                        // fractional slot
  expect_error("dropout@4+2.5:w", "2.5");                    // fractional duration
  expect_error("dropout@4+-2:w", "dropout@4+-2:w");          // negative duration
  expect_error("crash@1..2:w", "1..2");                      // malformed number
  expect_error("crash@99999999999999999999:w", "99999999999999999999");  // overflow
  expect_error("crash@3#w", "#");                            // unknown tag
}

TEST(FaultPlan, SampleIsDeterministicAndRespectsWarmup) {
  FaultPlan::SampleOptions options;
  options.horizon_slots = 80;
  options.warmup_slots = 10;
  options.crash_prob = 0.2;  // dense enough to draw several events
  options.operators = {"map", "shuffle"};

  common::Rng a(42), b(42), c(43);
  const FaultPlan pa = FaultPlan::sample(a, options);
  const FaultPlan pb = FaultPlan::sample(b, options);
  const FaultPlan pc = FaultPlan::sample(c, options);
  EXPECT_EQ(pa.to_string(), pb.to_string());
  EXPECT_NE(pa.to_string(), pc.to_string());
  ASSERT_FALSE(pa.empty());
  for (const FaultEvent& event : pa.events()) EXPECT_GE(event.slot, 10u);
}

// ---------------------------------------------------------------------------
// FaultInjector: each seam, observed through the engine's slot reports.
// ---------------------------------------------------------------------------

TEST(FaultInjector, CrashKillsPodsAndTaintsSlot) {
  ChaosSim sim(1500.0, /*tasks=*/4);
  FaultInjector injector(FaultPlan::parse("crash@2*2:worker"));

  injector.before_slot(*sim.engine);  // slot 1 (slot 0 consumed by setup)
  sim.engine->run_slot();
  EXPECT_EQ(sim.metrics().tasks, 4);
  EXPECT_FALSE(sim.metrics().fault_tainted);

  injector.before_slot(*sim.engine);  // slot 2: two pods die
  sim.engine->run_slot();
  EXPECT_EQ(sim.metrics().tasks, 2);
  EXPECT_TRUE(sim.metrics().fault_tainted);
  EXPECT_DOUBLE_EQ(sim.engine->last_report().pause_s, 0.0);  // crashes do not checkpoint

  injector.before_slot(*sim.engine);  // slot 3: taint clears, damage persists
  sim.engine->run_slot();
  EXPECT_EQ(sim.metrics().tasks, 2);
  EXPECT_FALSE(sim.metrics().fault_tainted);
  EXPECT_TRUE(injector.exhausted());
  ASSERT_EQ(injector.applied().size(), 1u);
  EXPECT_EQ(injector.applied()[0].op, sim.op);
  EXPECT_EQ(injector.applied()[0].slot, 2u);
}

TEST(FaultInjector, StragglerDegradesThenRestoresCapacity) {
  ChaosSim sim(1900.0, /*tasks=*/2);  // overloaded: observed capacity is exact
  FaultInjector injector(FaultPlan::parse("straggler@2+2*0.5:worker"));

  injector.before_slot(*sim.engine);
  sim.engine->run_slot();
  EXPECT_NEAR(sim.metrics().observed_capacity, 2000.0, 20.0);

  // One of two tasks at half rate: factor (2 - 1 + 0.5) / 2 = 0.75.
  for (int window_slot = 0; window_slot < 2; ++window_slot) {
    injector.before_slot(*sim.engine);
    sim.engine->run_slot();
    EXPECT_NEAR(sim.metrics().observed_capacity, 1500.0, 20.0);
    EXPECT_TRUE(sim.metrics().fault_tainted);
  }

  injector.before_slot(*sim.engine);  // window closed: full speed again
  sim.engine->run_slot();
  EXPECT_NEAR(sim.metrics().observed_capacity, 2000.0, 20.0);
  EXPECT_FALSE(sim.metrics().fault_tainted);
  EXPECT_TRUE(injector.exhausted());
}

TEST(FaultInjector, StragglerTracksRescaledTasks) {
  ChaosSim sim(3900.0, /*tasks=*/2);
  FaultInjector injector(FaultPlan::parse("straggler@1+3*0.5:worker"));

  injector.before_slot(*sim.engine);
  sim.engine->run_slot();
  EXPECT_NEAR(sim.metrics().observed_capacity, 1500.0, 20.0);  // (1 + 0.5)/2

  // Scale out mid-window: the slow task is now diluted by 3 healthy peers.
  sim.engine->set_tasks(sim.op, 4);
  injector.before_slot(*sim.engine);
  sim.engine->run_slot();  // absorbs the reconfiguration pause
  injector.before_slot(*sim.engine);
  sim.engine->run_slot();
  EXPECT_NEAR(sim.metrics().observed_capacity, 0.875 * 4000.0, 40.0);  // (3 + 0.5)/4
}

TEST(Engine, CheckpointFailureBackoffExtendsPause) {
  ChaosSim sim(800.0);
  sim.engine->run_slot();

  // One failed attempt with backoff 2: pause 10 + 20 = 30 s (cap is 60 s).
  sim.engine->arm_checkpoint_failure(1);
  sim.engine->set_tasks(sim.op, 2);
  const streamsim::SlotReport& report = sim.engine->run_slot();
  EXPECT_DOUBLE_EQ(report.pause_s, 30.0);
  EXPECT_EQ(report.checkpoint_retries, 1);
  EXPECT_FALSE(report.checkpoint_aborted);
  EXPECT_EQ(sim.metrics().tasks, 2);  // reconfiguration still landed

  // The armed failure is consumed: the next reconfiguration is normal.
  sim.engine->set_tasks(sim.op, 3);
  EXPECT_DOUBLE_EQ(sim.engine->run_slot().pause_s, 10.0);
}

TEST(Engine, CheckpointAbortRollsBackConfig) {
  ChaosSim sim(800.0);
  sim.engine->run_slot();

  // Three failed attempts: 10 + 20 + 40 + 80 = 150 s > 60 s cap -> abort.
  sim.engine->arm_checkpoint_failure(3);
  sim.engine->set_tasks(sim.op, 2);
  const streamsim::SlotReport& report = sim.engine->run_slot();
  EXPECT_TRUE(report.checkpoint_aborted);
  EXPECT_EQ(report.checkpoint_retries, 3);
  EXPECT_DOUBLE_EQ(report.pause_s, 60.0);   // burned retrying, then gave up
  EXPECT_EQ(sim.metrics().tasks, 1);        // rolled back to the old config
  EXPECT_EQ(sim.engine->tasks(sim.op), 1);

  // Idle again after the abort: no lingering pause or armed state.
  const streamsim::SlotReport& after = sim.engine->run_slot();
  EXPECT_DOUBLE_EQ(after.pause_s, 0.0);
  EXPECT_FALSE(after.checkpoint_aborted);
}

TEST(FaultInjector, MetricDropoutGoesStaleThenRecovers) {
  ChaosSim sim(800.0);
  FaultInjector injector(FaultPlan::parse("dropout@1+2:worker"));

  injector.before_slot(*sim.engine);
  sim.engine->run_slot();
  const double fresh_cpu = sim.metrics().cpu_utilization;
  EXPECT_GT(fresh_cpu, 0.5);
  EXPECT_FALSE(sim.metrics().metrics_stale);

  for (int window_slot = 0; window_slot < 2; ++window_slot) {
    injector.before_slot(*sim.engine);
    sim.engine->run_slot();
    EXPECT_TRUE(sim.metrics().metrics_stale);
    EXPECT_DOUBLE_EQ(sim.metrics().observed_capacity, 0.0);  // no eq. (8) estimate
    EXPECT_DOUBLE_EQ(sim.metrics().cpu_utilization, fresh_cpu);  // last good reading
  }

  injector.before_slot(*sim.engine);
  sim.engine->run_slot();
  EXPECT_FALSE(sim.metrics().metrics_stale);
  EXPECT_GT(sim.metrics().observed_capacity, 0.0);
}

TEST(FaultInjector, ControllerCrashSetsFlagOnceAndLeavesEngineAlone) {
  ChaosSim sim(800.0);
  FaultInjector injector(FaultPlan::parse("ctrlcrash@1"));

  injector.before_slot(*sim.engine);  // slot 0: nothing scheduled
  sim.engine->run_slot();
  EXPECT_FALSE(injector.consume_controller_crash());

  injector.before_slot(*sim.engine);  // slot 1: the crash fires
  sim.engine->run_slot();
  // Control-plane fault only: the data plane keeps its tasks and reports no
  // taint or staleness.
  EXPECT_EQ(sim.metrics().tasks, 1);
  EXPECT_FALSE(sim.metrics().fault_tainted);
  EXPECT_FALSE(sim.metrics().metrics_stale);
  EXPECT_TRUE(injector.consume_controller_crash());
  EXPECT_FALSE(injector.consume_controller_crash());  // consuming clears it

  ASSERT_EQ(injector.applied().size(), 1u);
  EXPECT_EQ(injector.applied()[0].event.kind, FaultKind::kControllerCrash);
}

// ---------------------------------------------------------------------------
// Recovery analytics.
// ---------------------------------------------------------------------------

TEST(Recovery, ScoresDipDepthAndDuration) {
  // Steady at oracle until slot 5; a fault halves throughput for two slots.
  std::vector<RecoverySlotData> series(10, {1000.0, 1000.0});
  series[5] = {500.0, 1000.0};
  series[6] = {500.0, 1000.0};
  const std::vector<AppliedFault> timeline{
      {{FaultKind::kPodCrash, 5, 1, 1.0, "w"}, 0, 5}};

  const auto stats = analyze_recovery(timeline, series, /*slot_seconds=*/120.0);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_NEAR(stats[0].pre_fault_ratio, 1.0, 1e-12);
  ASSERT_TRUE(stats[0].slots_to_recover.has_value());
  EXPECT_EQ(*stats[0].slots_to_recover, 2u);
  // Two slots each 0.5 below the pre-fault level: 2 * 0.5 * 1000 * 120 s.
  EXPECT_NEAR(stats[0].tuples_lost, 120000.0, 1e-6);
}

TEST(Recovery, InvisibleFaultCostsNothing) {
  const std::vector<RecoverySlotData> series(8, {950.0, 1000.0});
  const std::vector<AppliedFault> timeline{
      {{FaultKind::kMetricDropout, 4, 2, 0.0, "w"}, 0, 4}};
  const auto stats = analyze_recovery(timeline, series, 120.0);
  ASSERT_EQ(stats.size(), 1u);
  ASSERT_TRUE(stats[0].slots_to_recover.has_value());
  EXPECT_EQ(*stats[0].slots_to_recover, 0u);  // never dipped below the bar
  EXPECT_DOUBLE_EQ(stats[0].tuples_lost, 0.0);
}

TEST(Recovery, NeverRecoveredIsNullopt) {
  std::vector<RecoverySlotData> series(6, {1000.0, 1000.0});
  for (std::size_t i = 3; i < series.size(); ++i) series[i].achieved_rate = 100.0;
  const std::vector<AppliedFault> timeline{
      {{FaultKind::kPodCrash, 3, 1, 1.0, "w"}, 0, 3}};
  const auto stats = analyze_recovery(timeline, series, 120.0);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_FALSE(stats[0].slots_to_recover.has_value());
  EXPECT_GT(stats[0].tuples_lost, 0.0);
}

// ---------------------------------------------------------------------------
// Controller hardening.
// ---------------------------------------------------------------------------

TEST(DragsterController, GpIngestsNoTaintedObservation) {
  ChaosSim sim(800.0);
  core::DragsterController controller{core::DragsterOptions{}};
  FaultInjector injector(FaultPlan::parse(
      "dropout@3+2:worker;crash@7:worker;straggler@9+2*0.5:worker"));

  experiments::ScenarioOptions options;
  options.slots = 14;
  const experiments::RunResult run =
      experiments::run_scenario(*sim.engine, controller, options, "chaos", &injector);

  std::size_t tainted = 0;
  for (const auto& slot : run.slots) tainted += slot.fault_active ? 1u : 0u;
  EXPECT_GE(tainted, 5u);  // 2 dropout + 1 crash + 2 straggler slots

  const gp::GaussianProcess* gp = controller.gp_for(sim.op);
  ASSERT_NE(gp, nullptr);
  // Every clean slot contributes exactly one observation; every tainted or
  // stale slot contributes none.
  EXPECT_EQ(gp->num_observations(), run.slots.size() - tainted);
}

TEST(DragsterController, ReissuesCommandAfterCrash) {
  ChaosSim sim(2500.0, /*tasks=*/4);  // ample headroom: target stays near 4
  core::DragsterController controller{core::DragsterOptions{}};
  controller.initialize(sim.engine->monitor(), *sim.engine);

  for (int slot = 0; slot < 3; ++slot) {
    sim.engine->run_slot();
    controller.on_slot(sim.engine->monitor(), *sim.engine);
  }
  const int commanded = controller.commanded_tasks(sim.op);
  ASSERT_EQ(sim.engine->tasks(sim.op), commanded);

  sim.engine->inject_pod_failure(sim.op);
  sim.engine->inject_pod_failure(sim.op);
  ASSERT_EQ(sim.engine->tasks(sim.op), commanded - 2);

  sim.engine->run_slot();
  controller.on_slot(sim.engine->monitor(), *sim.engine);
  // repair_lost_pods re-issued the last commanded configuration instead of
  // chasing the crashed slot's degraded capacity sample.
  EXPECT_EQ(sim.engine->tasks(sim.op), controller.commanded_tasks(sim.op));
  EXPECT_GE(sim.engine->tasks(sim.op), commanded - 1);
}

TEST(FleetFaultPlan, ParsesCanonicalSpecAndRoundTrips) {
  const FleetFaultPlan plan = FleetFaultPlan::parse(
      "budgetcut@9+4*0.3;nodecrash@5*2;nodedrain@3+2;jobcrash@7:job-1");
  ASSERT_EQ(plan.size(), 4u);
  // Events come back stable-sorted by slot.
  EXPECT_EQ(plan.events()[0].kind, FleetFaultKind::kNodeDrain);
  EXPECT_EQ(plan.events()[0].slot, 3u);
  EXPECT_EQ(plan.events()[0].duration_slots, 2u);
  EXPECT_EQ(plan.events()[1].kind, FleetFaultKind::kNodeCrash);
  EXPECT_DOUBLE_EQ(plan.events()[1].value, 2.0);
  EXPECT_EQ(plan.events()[2].kind, FleetFaultKind::kJobCrash);
  EXPECT_EQ(plan.events()[2].job, "job-1");
  EXPECT_EQ(plan.events()[3].kind, FleetFaultKind::kBudgetCut);
  EXPECT_DOUBLE_EQ(plan.events()[3].value, 0.3);
  EXPECT_EQ(plan.to_string(),
            "nodedrain@3+2;nodecrash@5*2;jobcrash@7:job-1;budgetcut@9+4*0.3");
  EXPECT_EQ(FleetFaultPlan::parse(plan.to_string()).to_string(), plan.to_string());
  EXPECT_TRUE(plan.touches_nodes());
  EXPECT_FALSE(FleetFaultPlan::parse("budgetcut@2+1*0.5").touches_nodes());
  // A bare nodecrash defaults to one node and an instantaneous window.
  const FleetFaultPlan bare = FleetFaultPlan::parse("nodecrash@4");
  EXPECT_DOUBLE_EQ(bare.events()[0].value, 1.0);
  EXPECT_EQ(bare.events()[0].duration_slots, 1u);
  EXPECT_TRUE(FleetFaultPlan::parse("").empty());
}

TEST(FleetFaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FleetFaultPlan::parse("nodecrash5"), std::invalid_argument);  // missing @slot
  EXPECT_THROW(FleetFaultPlan::parse("podkill@3"), std::invalid_argument);   // unknown kind
  EXPECT_THROW(FleetFaultPlan::parse("budgetcut@3+2"), std::invalid_argument);  // no *fraction
  EXPECT_THROW(FleetFaultPlan::parse("budgetcut@3+2*1.5"),
               std::invalid_argument);                                     // fraction not in (0,1)
  EXPECT_THROW(FleetFaultPlan::parse("jobcrash@3"), std::invalid_argument);  // needs :job
  EXPECT_THROW(FleetFaultPlan::parse("jobcrash@3*2:x"), std::invalid_argument);  // no *value
  EXPECT_THROW(FleetFaultPlan::parse("nodecrash@3+2"),
               std::invalid_argument);  // instantaneous, no +duration
  EXPECT_THROW(FleetFaultPlan::parse("nodecrash@3:x"), std::invalid_argument);   // no :job
  EXPECT_THROW(FleetFaultPlan::parse("nodecrash@3*1.5"),
               std::invalid_argument);  // node count must be integral
  EXPECT_THROW(FleetFaultPlan::parse("nodedrain@3*0"), std::invalid_argument);   // explicit *0
  EXPECT_THROW(FleetFaultPlan::parse("nodedrain@3+2+2"),
               std::invalid_argument);  // repeated modifier
  EXPECT_THROW(FleetFaultPlan::parse("nodecrash@4;nodecrash@4"),
               std::invalid_argument);  // duplicate (kind, slot, job)
}

TEST(FleetFaultPlan, ConstructorAppliesTheParserRules) {
  EXPECT_THROW(FleetFaultPlan({{FleetFaultKind::kNodeCrash, 5, 3, 1.0, ""}}), Error);
  EXPECT_THROW(FleetFaultPlan({{FleetFaultKind::kJobCrash, 5, 1, 0.0, "a;b"}}), Error);
  EXPECT_THROW(FleetFaultPlan({{FleetFaultKind::kNetPartition, 5, 2, 0.5, ""}}), Error);
  EXPECT_THROW(FleetFaultPlan({{FleetFaultKind::kNetDelay, 5, 2, 2.5, ""}}), Error);
  // The value-absent sentinel still means one node.
  EXPECT_EQ(FleetFaultPlan({{FleetFaultKind::kNodeDrain, 5, 2, 0.0, ""}}).to_string(),
            "nodedrain@5+2");
}

TEST(FleetFaultPlan, PrintsValuesThatReadBackExactly) {
  // %g cut 0.33333333 to 0.333333, so a sampled cut fraction ran shortened.
  EXPECT_EQ(FleetFaultPlan::parse("budgetcut@3+2*0.33333333").to_string(),
            "budgetcut@3+2*0.33333333");
  FleetFaultPlan::SampleOptions options;
  options.budgetcut_prob = 1.0;
  options.nodedrain_prob = 0.0;
  options.cut_fraction = 0.1 + 0.2;
  common::Rng rng(3);
  const FleetFaultPlan plan = FleetFaultPlan::sample(rng, options);
  ASSERT_FALSE(plan.empty());
  EXPECT_EQ(FleetFaultPlan::parse(plan.to_string()).events()[0].value, 0.1 + 0.2);
}

TEST(FleetFaultPlan, ParsesNetKindsAndRoundTrips) {
  const FleetFaultPlan plan = FleetFaultPlan::parse(
      "netdelay@20+4*3;netpart@9+3;netdrop@14+6*0.4;netpart@9+3:job-2");
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan.events()[0].kind, FleetFaultKind::kNetPartition);
  EXPECT_EQ(plan.events()[0].slot, 9u);
  EXPECT_EQ(plan.events()[0].duration_slots, 3u);
  EXPECT_TRUE(plan.events()[0].job.empty());  // unscoped = every transported job
  EXPECT_EQ(plan.events()[1].kind, FleetFaultKind::kNetPartition);
  EXPECT_EQ(plan.events()[1].job, "job-2");
  EXPECT_EQ(plan.events()[2].kind, FleetFaultKind::kNetDrop);
  EXPECT_DOUBLE_EQ(plan.events()[2].value, 0.4);
  EXPECT_EQ(plan.events()[3].kind, FleetFaultKind::kNetDelay);
  EXPECT_DOUBLE_EQ(plan.events()[3].value, 3.0);
  // Net kinds act on per-job channels, not the fault-domain node model.
  EXPECT_FALSE(plan.touches_nodes());
  EXPECT_EQ(plan.to_string(), "netpart@9+3;netpart@9+3:job-2;netdrop@14+6*0.4;netdelay@20+4*3");
  EXPECT_EQ(FleetFaultPlan::parse(plan.to_string()).to_string(), plan.to_string());
}

TEST(FleetFaultPlan, RejectsMalformedNetEvents) {
  EXPECT_THROW(FleetFaultPlan::parse("netpart@3+2*0.5"), std::invalid_argument);  // no *value
  EXPECT_THROW(FleetFaultPlan::parse("netdrop@3+2"), std::invalid_argument);   // needs *fraction
  EXPECT_THROW(FleetFaultPlan::parse("netdrop@3+2*1.2"),
               std::invalid_argument);  // fraction not in (0,1)
  EXPECT_THROW(FleetFaultPlan::parse("netdrop@3+2*0"), std::invalid_argument);   // explicit *0
  EXPECT_THROW(FleetFaultPlan::parse("netdelay@3+2"), std::invalid_argument);  // needs *multiplier
  EXPECT_THROW(FleetFaultPlan::parse("netdelay@3+2*1"),
               std::invalid_argument);  // multiplier below 2 is a no-op, not a fault
  EXPECT_THROW(FleetFaultPlan::parse("netdelay@3+2*2.5"),
               std::invalid_argument);  // multiplier scales whole slots: integral only
  EXPECT_THROW(FleetFaultPlan::parse("netpart@4+2;netpart@4+2"),
               std::invalid_argument);  // duplicate (kind, slot, job) window
  EXPECT_THROW(FleetFaultPlan::parse("netpart@4+2+3"),
               std::invalid_argument);  // repeated modifier
  // Same slot, different scope, is a legal correlated blackout.
  EXPECT_EQ(FleetFaultPlan::parse("netpart@4+2;netpart@4+2:job-1").size(), 2u);
}

TEST(FleetFaultPlan, SamplesNetKindsDeterministicallyAndGatedOffByDefault) {
  // Defaults keep every net probability at zero: the sampled plan must not
  // contain net events (and the gated draws leave pre-transport sequences
  // untouched).
  FleetFaultPlan::SampleOptions off;
  off.horizon_slots = 40;
  off.nodedrain_prob = 0.2;
  off.budgetcut_prob = 0.2;
  common::Rng rng0(7);
  const FleetFaultPlan gated = FleetFaultPlan::sample(rng0, off);
  for (const FleetFaultEvent& event : gated.events()) {
    EXPECT_NE(event.kind, FleetFaultKind::kNetPartition);
    EXPECT_NE(event.kind, FleetFaultKind::kNetDrop);
    EXPECT_NE(event.kind, FleetFaultKind::kNetDelay);
  }

  FleetFaultPlan::SampleOptions options;
  options.horizon_slots = 60;
  options.netpart_prob = 0.15;
  options.netdrop_prob = 0.15;
  options.netdelay_prob = 0.15;
  options.drop_fraction = 0.25;
  options.delay_multiplier = 3.0;
  common::Rng rng1(9);
  common::Rng rng2(9);
  const FleetFaultPlan p1 = FleetFaultPlan::sample(rng1, options);
  const FleetFaultPlan p2 = FleetFaultPlan::sample(rng2, options);
  EXPECT_EQ(p1.to_string(), p2.to_string());
  // Sampled specs are valid specs: the round trip re-validates every value.
  EXPECT_EQ(FleetFaultPlan::parse(p1.to_string()).to_string(), p1.to_string());
  bool saw_net = false;
  for (const FleetFaultEvent& event : p1.events()) {
    if (event.kind == FleetFaultKind::kNetDrop) {
      EXPECT_DOUBLE_EQ(event.value, 0.25);
    }
    if (event.kind == FleetFaultKind::kNetDelay) {
      EXPECT_DOUBLE_EQ(event.value, 3.0);
    }
    if (event.kind == FleetFaultKind::kNetPartition || event.kind == FleetFaultKind::kNetDrop ||
        event.kind == FleetFaultKind::kNetDelay) {
      saw_net = true;
      EXPECT_GE(event.duration_slots, 1u);
      EXPECT_LE(event.duration_slots, options.max_window_slots);
    }
  }
  EXPECT_TRUE(saw_net);
}

TEST(FleetFaultPlan, SampleIsDeterministicRespectsWarmupAndCrashCap) {
  FleetFaultPlan::SampleOptions options;
  options.horizon_slots = 40;
  options.warmup_slots = 10;
  options.nodecrash_prob = 0.3;
  options.nodedrain_prob = 0.2;
  options.budgetcut_prob = 0.2;
  options.jobcrash_prob = 0.1;
  options.max_crash_nodes = 2;
  options.jobs = {"a", "b"};
  common::Rng rng1(123);
  common::Rng rng2(123);
  const FleetFaultPlan p1 = FleetFaultPlan::sample(rng1, options);
  const FleetFaultPlan p2 = FleetFaultPlan::sample(rng2, options);
  EXPECT_EQ(p1.to_string(), p2.to_string());
  std::size_t crashes = 0;
  for (const FleetFaultEvent& event : p1.events()) {
    EXPECT_GE(event.slot, options.warmup_slots);
    EXPECT_LT(event.slot, options.horizon_slots);
    if (event.kind == FleetFaultKind::kNodeCrash) ++crashes;
    if (event.kind == FleetFaultKind::kJobCrash) {
      EXPECT_TRUE(event.job == "a" || event.job == "b");
    }
  }
  EXPECT_LE(crashes, options.max_crash_nodes);
  FleetFaultPlan::SampleOptions inverted;
  inverted.horizon_slots = 4;
  inverted.warmup_slots = 6;
  EXPECT_THROW(FleetFaultPlan::sample(rng1, inverted),
               std::invalid_argument);  // warmup past horizon
}

TEST(FleetRecovery, ScoresHealthDipAndRecovery) {
  // Ten active jobs, fully healthy except a three-slot dip after the fault.
  std::vector<FleetHealthSlot> slots(12, FleetHealthSlot{10.0, 10.0});
  slots[5] = {4.0, 10.0};
  slots[6] = {6.0, 10.0};
  slots[7] = {8.0, 10.0};  // 0.8 is still under the 0.9 recovery bar
  AppliedFleetFault fault;
  fault.event = FleetFaultEvent{FleetFaultKind::kNodeCrash, 5, 1, 2.0, ""};
  fault.slot = 5;
  const std::vector<AppliedFleetFault> timeline{fault};
  const std::vector<FleetRecoveryStats> stats = analyze_fleet_recovery(timeline, slots);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_DOUBLE_EQ(stats[0].pre_fault_level, 1.0);
  ASSERT_TRUE(stats[0].slots_to_recover.has_value());
  EXPECT_EQ(*stats[0].slots_to_recover, 3u);
  // (1-0.4)*10 + (1-0.6)*10 + (1-0.8)*10 job-slots spent under the dip.
  EXPECT_NEAR(stats[0].job_slots_lost, 12.0, 1e-9);
}

TEST(FleetRecovery, NoDipScoresZeroAndPastHorizonNeverRecovers) {
  const std::vector<FleetHealthSlot> slots(8, FleetHealthSlot{5.0, 5.0});
  AppliedFleetFault benign;
  benign.event = FleetFaultEvent{FleetFaultKind::kBudgetCut, 3, 2, 0.3, ""};
  benign.slot = 3;
  AppliedFleetFault late;
  late.event = FleetFaultEvent{FleetFaultKind::kNodeCrash, 20, 1, 1.0, ""};
  late.slot = 20;  // fired past the recorded series
  const std::vector<AppliedFleetFault> timeline{benign, late};
  const std::vector<FleetRecoveryStats> stats = analyze_fleet_recovery(timeline, slots);
  ASSERT_EQ(stats.size(), 2u);
  ASSERT_TRUE(stats[0].slots_to_recover.has_value());
  EXPECT_EQ(*stats[0].slots_to_recover, 0u);  // never dipped below the bar
  EXPECT_DOUBLE_EQ(stats[0].job_slots_lost, 0.0);
  EXPECT_FALSE(stats[1].slots_to_recover.has_value());
}

}  // namespace
}  // namespace dragster::faults
