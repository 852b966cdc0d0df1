// TaskPool contract tests plus the thread-count-invariance golden layer.
//
// The TaskPool unit tests pin the fixed-order reduction contract: results are
// committed by index (never by completion order), the lowest-index failure is
// the one rethrown, and nested submission is rejected loudly.  The invariance
// tests then re-run the repo's most adversarial golden scenarios — the fully
// stacked traced chaos run from test_determinism and a 100-job fleet — at
// threads=1/2/8 and require byte-identical traces, metrics, and result bits:
// the machine-checked statement that DRAGSTER_THREADS is a pure latency knob.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <sstream>
#include <thread>

#include "actuation/actuation.hpp"
#include "bench_util.hpp"
#include "common/error.hpp"
#include "core/dragster_controller.hpp"
#include "experiments/scenario.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "fleet/fleet.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "parallel/task_pool.hpp"
#include "resilience/supervisor.hpp"
#include "streamsim/engine.hpp"
#include "workloads/workloads.hpp"

namespace dragster {
namespace {

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

/// Restores the process-wide pool to the serial default on scope exit, so no
/// test leaks a thread count into its neighbours.
struct GlobalThreadsGuard {
  ~GlobalThreadsGuard() { parallel::TaskPool::set_global_threads(0); }
};

// --- TaskPool contract -------------------------------------------------------

TEST(TaskPool, SerialPoolRunsInlineInIndexOrder) {
  parallel::TaskPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  std::vector<std::size_t> order;  // no mutex: the serial path is this thread
  pool.for_each(5, [&](std::size_t i) {
    order.push_back(i);
    EXPECT_FALSE(parallel::TaskPool::in_worker());
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));

  const std::vector<int> mapped =
      pool.map<int>(4, [](std::size_t i) { return static_cast<int>(i * i); });
  EXPECT_EQ(mapped, (std::vector<int>{0, 1, 4, 9}));
}

TEST(TaskPool, ZeroThreadConstructionMeansSerial) {
  parallel::TaskPool pool(0);
  EXPECT_EQ(pool.threads(), 1u);
}

TEST(TaskPool, MapCommitsByIndexUnderAdversarialCompletionOrder) {
  // Four lanes, four tasks, and a barrier that forces completion in exactly
  // REVERSE index order (3, 2, 1, 0).  The mapped vector must still come
  // back in index order — commits are index-addressed, never append-ordered.
  constexpr std::size_t kTasks = 4;
  parallel::TaskPool pool(kTasks);
  ASSERT_EQ(pool.threads(), kTasks);
  std::atomic<std::size_t> started{0};
  std::atomic<std::size_t> finished{0};
  std::vector<std::size_t> completion;
  std::mutex completion_mutex;
  const std::vector<int> mapped = pool.map<int>(kTasks, [&](std::size_t i) {
    started.fetch_add(1);
    while (started.load() < kTasks) std::this_thread::yield();
    // Task i may only finish once all higher-indexed tasks are done.
    while (finished.load() != kTasks - 1 - i) std::this_thread::yield();
    {
      const std::lock_guard<std::mutex> lock(completion_mutex);
      completion.push_back(i);
    }
    finished.fetch_add(1);
    return static_cast<int>(10 + i);
  });
  EXPECT_EQ(completion, (std::vector<std::size_t>{3, 2, 1, 0}));
  EXPECT_EQ(mapped, (std::vector<int>{10, 11, 12, 13}));
}

TEST(TaskPool, LowestIndexFailureWinsAndSurfacesAsDragsterError) {
  parallel::TaskPool pool(4);
  try {
    pool.for_each(8, [](std::size_t i) {
      if (i == 2) throw std::runtime_error("boom-two");
      if (i == 5) throw std::runtime_error("boom-five");
    });
    FAIL() << "for_each should have rethrown the task failure";
  } catch (const Error& e) {
    // Both tasks ran (the pool never cancels); the LOWEST index is reported,
    // so the surfaced error does not depend on lane scheduling.
    EXPECT_NE(std::string(e.what()).find("task 2"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("boom-two"), std::string::npos) << e.what();
  }
}

TEST(TaskPool, NonStandardExceptionIsWrapped) {
  parallel::TaskPool pool(2);
  EXPECT_THROW(pool.for_each(3,
                             [](std::size_t i) {
                               if (i == 1) throw 42;  // NOLINT
                             }),
               Error);
}

TEST(TaskPool, NestedSubmissionIsRejected) {
  parallel::TaskPool pool(2);
  try {
    pool.for_each(2, [&](std::size_t) { pool.for_each(2, [](std::size_t) {}); });
    FAIL() << "nested submission should be rejected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nested"), std::string::npos) << e.what();
  }
  // The pool must still be usable after the failed job drained.
  const std::vector<int> mapped =
      pool.map<int>(3, [](std::size_t i) { return static_cast<int>(i); });
  EXPECT_EQ(mapped, (std::vector<int>{0, 1, 2}));
}

TEST(TaskPool, GlobalKnobResizesThePool) {
  GlobalThreadsGuard guard;
  parallel::TaskPool::set_global_threads(3);
  EXPECT_EQ(parallel::TaskPool::global().threads(), 3u);
  parallel::TaskPool::set_global_threads(0);
  EXPECT_EQ(parallel::TaskPool::global().threads(), 1u);
}

// --- thread-count invariance goldens ----------------------------------------

struct ChaosArtifacts {
  experiments::RunResult run;
  std::string trace;
  std::string metrics;
};

/// The fully stacked traced chaos scenario from test_determinism: supervisor
/// wrapping Dragster, async actuation, the canonical chaos plan, telemetry on.
ChaosArtifacts run_golden_chaos() {
  obs::Registry registry;
  obs::MemoryTraceSink sink;
  registry.set_trace(&sink);
  const auto spec = workloads::wordcount();
  streamsim::Engine engine = spec.make_engine(true, streamsim::EngineOptions{}, 17);
  actuation::ActuationOptions aopts;
  aopts.sched_latency_mean_slots = 1.0;
  aopts.sched_latency_jitter = 0.3;
  actuation::ActuationManager manager(engine, aopts, 17);
  resilience::SupervisorOptions sup;
  sup.snapshot_every = 4;
  resilience::ControllerSupervisor supervised(
      std::make_unique<core::DragsterController>(core::DragsterOptions{}), sup);
  faults::FaultInjector injector(faults::FaultPlan::parse(
      "crash@15:shuffle_count;ctrlcrash@18;straggler@22+2*0.3:map;"
      "ckptfail@28*2;dropout@34+3:shuffle_count"));
  experiments::ScenarioOptions options;
  options.slots = 38;
  ChaosArtifacts artifacts;
  artifacts.run = experiments::run_scenario(engine, supervised, options, spec.name, &injector,
                                            &manager, &registry);
  artifacts.trace = sink.str();
  artifacts.metrics = registry.expose();
  return artifacts;
}

void expect_run_identical(const experiments::RunResult& a, const experiments::RunResult& b) {
  ASSERT_EQ(a.slots.size(), b.slots.size());
  for (std::size_t t = 0; t < a.slots.size(); ++t) {
    SCOPED_TRACE("slot " + std::to_string(t));
    EXPECT_EQ(bits(a.slots[t].throughput_rate), bits(b.slots[t].throughput_rate));
    EXPECT_EQ(bits(a.slots[t].tuples), bits(b.slots[t].tuples));
    EXPECT_EQ(bits(a.slots[t].cost), bits(b.slots[t].cost));
    EXPECT_EQ(a.slots[t].tasks, b.slots[t].tasks);
  }
  EXPECT_EQ(bits(a.total_tuples), bits(b.total_tuples));
  EXPECT_EQ(bits(a.total_cost), bits(b.total_cost));
}

TEST(ThreadInvariance, GoldenChaosScenarioIsByteIdenticalAtOneTwoEightThreads) {
  GlobalThreadsGuard guard;
  parallel::TaskPool::set_global_threads(1);
  const ChaosArtifacts serial = run_golden_chaos();
  ASSERT_FALSE(serial.trace.empty());
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    parallel::TaskPool::set_global_threads(threads);
    const ChaosArtifacts parallel_run = run_golden_chaos();
    expect_run_identical(serial.run, parallel_run.run);
    EXPECT_EQ(serial.trace, parallel_run.trace);      // byte-identical JSONL
    EXPECT_EQ(serial.metrics, parallel_run.metrics);  // byte-identical expose
  }
}

/// Compact 100-job fleet: the Nexmark-style suite cycled through hot/normal/
/// lull thirds under a tight shared budget, pressure arbitration on.
fleet::FleetResult run_hundred_job_fleet(obs::Registry* registry = nullptr) {
  constexpr std::size_t kJobs = 100;
  std::vector<workloads::WorkloadSpec> suite = workloads::nexmark_suite();
  suite.pop_back();  // WordCount's appetite would drown the allocation signal
  std::vector<fleet::JobSpec> specs;
  specs.reserve(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    fleet::JobSpec spec;
    spec.name = "job-" + std::to_string(i);
    spec.workload = suite[i % suite.size()];
    if (i % 3 == 0)
      for (auto& [src, rate] : spec.workload.low_rate) rate *= 1.5;
    if (i % 3 == 2)
      for (auto& [src, rate] : spec.workload.low_rate) rate *= 0.35;
    spec.high_rate = false;
    spec.controller = "Dragster";
    spec.slo.max_latency_s = 30.0;
    spec.engine.slot_duration_s = 60.0;
    spec.engine.sample_interval_s = 60.0;
    specs.push_back(std::move(spec));
  }
  fleet::FleetOptions options;
  options.slots = 6;
  long long floors = 0;
  for (const fleet::JobSpec& spec : specs) floors += spec.floor_pods();
  options.budget_pods = static_cast<int>(floors + (7 * static_cast<long long>(kJobs)) / 4);
  options.arbiter.mode = fleet::ArbiterMode::kPressure;
  options.limits.max_total_pods = options.budget_pods;
  options.seed = 7;
  fleet::FleetScheduler scheduler(std::move(specs), options, registry);
  for (std::size_t t = 0; t < options.slots; ++t) scheduler.step();
  return scheduler.finish();
}

void expect_fleet_identical(const fleet::FleetResult& a, const fleet::FleetResult& b) {
  EXPECT_EQ(bits(a.total_tuples), bits(b.total_tuples));
  EXPECT_EQ(bits(a.total_cost), bits(b.total_cost));
  EXPECT_EQ(a.total_slo_misses, b.total_slo_misses);
  EXPECT_EQ(a.admissions, b.admissions);
  EXPECT_EQ(a.rejections, b.rejections);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.limits_respected, b.limits_respected);
  ASSERT_EQ(a.slots.size(), b.slots.size());
  for (std::size_t t = 0; t < a.slots.size(); ++t) {
    SCOPED_TRACE("slot " + std::to_string(t));
    EXPECT_EQ(a.slots[t].total_pods, b.slots[t].total_pods);
    EXPECT_EQ(a.slots[t].granted_pods, b.slots[t].granted_pods);
    EXPECT_EQ(a.slots[t].slo_misses, b.slots[t].slo_misses);
    EXPECT_EQ(bits(a.slots[t].tuples), bits(b.slots[t].tuples));
    EXPECT_EQ(bits(a.slots[t].throughput), bits(b.slots[t].throughput));
    EXPECT_EQ(bits(a.slots[t].spend_rate), bits(b.slots[t].spend_rate));
  }
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    SCOPED_TRACE("job " + a.jobs[j].name);
    EXPECT_EQ(a.jobs[j].slo_misses, b.jobs[j].slo_misses);
    EXPECT_EQ(a.jobs[j].slots_run, b.jobs[j].slots_run);
    EXPECT_EQ(bits(a.jobs[j].run.total_tuples), bits(b.jobs[j].run.total_tuples));
  }
}

TEST(ThreadInvariance, HundredJobFleetIsBitIdenticalAtOneTwoEightThreads) {
  GlobalThreadsGuard guard;
  parallel::TaskPool::set_global_threads(1);
  const fleet::FleetResult serial = run_hundred_job_fleet();
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    parallel::TaskPool::set_global_threads(threads);
    const fleet::FleetResult parallel_run = run_hundred_job_fleet();
    expect_fleet_identical(serial, parallel_run);
  }
}

TEST(ThreadInvariance, TracedFleetRunsPinSerialAndStayByteIdentical) {
  // A traced fleet run shares one Registry across jobs, so FleetScheduler
  // must refuse to fan out; the trace bytes are the oracle that it did.
  GlobalThreadsGuard guard;
  auto traced_run = [] {
    obs::Registry registry;
    obs::MemoryTraceSink sink;
    registry.set_trace(&sink);
    const fleet::FleetResult result = run_hundred_job_fleet(&registry);
    return std::pair<std::string, double>(sink.str(), result.total_tuples);
  };
  parallel::TaskPool::set_global_threads(1);
  const auto serial = traced_run();
  ASSERT_FALSE(serial.first.empty());
  parallel::TaskPool::set_global_threads(8);
  const auto parallel_run = traced_run();
  EXPECT_EQ(serial.first, parallel_run.first);
  EXPECT_EQ(bits(serial.second), bits(parallel_run.second));
}

TEST(ThreadInvariance, SweepIndexedScenariosMatchSequentialRuns) {
  // Each cell owns its engine and controller, so fanned-out real scenarios
  // give the bits of the plain loop.
  GlobalThreadsGuard guard;
  auto run = [](std::size_t cell) {
    const workloads::WorkloadSpec spec = workloads::group();
    streamsim::EngineOptions fast;
    fast.slot_duration_s = 120.0;
    fast.checkpoint_pause_s = 10.0;
    fast.sample_interval_s = 30.0;
    streamsim::Engine engine = spec.make_engine(true, fast, 9 + cell % 2);
    core::DragsterController controller{core::DragsterOptions{}};
    experiments::ScenarioOptions options;
    options.slots = 4;
    return experiments::run_scenario(engine, controller, options, spec.name);
  };
  const std::vector<experiments::RunResult> sequential = {run(0), run(1), run(2)};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    parallel::TaskPool::set_global_threads(threads);
    const auto swept = bench::sweep_indexed<experiments::RunResult>(3, run);
    ASSERT_EQ(swept.size(), sequential.size());
    for (std::size_t i = 0; i < swept.size(); ++i) expect_run_identical(sequential[i], swept[i]);
  }
}

TEST(ThreadInvariance, SweepIndexedAggregateJsonBytesAreThreadInvariant) {
  // Regression for the bench_util seed-loop ordering hazard: cells commit to
  // index-addressed slots and the aggregate JSON is folded from the committed
  // vector, so its BYTES cannot depend on lane count or completion order.
  GlobalThreadsGuard guard;
  auto sweep_json = [] {
    const std::vector<double> cells =
        bench::sweep_indexed<double>(12, [](std::size_t i) {
          common::Rng rng(100 + i);
          double sum = 0.0;
          for (int draw = 0; draw < 50; ++draw) sum += rng.normal(1.0, 0.25);
          return sum;
        });
    double total = 0.0;
    std::ostringstream json;
    json << "{\"cells\": [";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      json << (i ? ", " : "") << bits(cells[i]);
      total += cells[i];  // fold in index order AFTER the sweep committed
    }
    json << "], \"total\": " << bits(total) << "}";
    return json.str();
  };
  parallel::TaskPool::set_global_threads(1);
  const std::string serial = sweep_json();
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    parallel::TaskPool::set_global_threads(threads);
    EXPECT_EQ(serial, sweep_json());
  }
}

}  // namespace
}  // namespace dragster
