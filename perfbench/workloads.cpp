#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>

#include "baselines/oracle.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/dragster_controller.hpp"
#include "dag/flow_solver.hpp"
#include "faults/fault_plan.hpp"
#include "fleet/fleet.hpp"
#include "online/saddle_point.hpp"
#include "streamsim/rate_schedule.hpp"
#include "workloads/workloads.hpp"

namespace dragbench {

using namespace dragster;

namespace {

// -- sizing (see NOTES.md for how these were chosen) -------------------------
constexpr std::size_t kSteadyJobs = 150;
constexpr std::size_t kSteadyHorizon = 41;
constexpr std::size_t kLongHorizon = 800;
constexpr double kLongPeriodSeconds = 200.0 * 60.0;  ///< Fig. 6: flip every 200 min
constexpr int kLongBudgetPods = 16;
constexpr double kLongSloSeconds = 30.0;
constexpr std::size_t kChaosJobs = 120;
constexpr std::size_t kChaosHorizon = 56;
constexpr int kPodsPerNode = 4;
constexpr std::size_t kTwins = 4;  ///< one of each workload in the fleet mix
constexpr double kPodPrice = 0.10;

/// The fig11 mix: Group, AsyncIO, Join, Window cycling through hot 1.5x,
/// normal and lull 0.35x thirds of the low offered rate.
std::vector<fleet::JobSpec> mix_specs(std::size_t n) {
  std::vector<workloads::WorkloadSpec> suite = workloads::nexmark_suite();
  suite.pop_back();  // nexmark_suite puts WordCount last
  std::vector<fleet::JobSpec> specs;
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    fleet::JobSpec spec;
    spec.name = "job-" + std::to_string(i);
    spec.workload = suite[i % suite.size()];
    const double band = i % 3 == 0 ? 1.5 : i % 3 == 2 ? 0.35 : 1.0;
    for (auto& [src, rate] : spec.workload.low_rate) rate *= band;
    spec.high_rate = false;
    spec.controller = "Dragster";
    spec.slo.max_latency_s = 30.0;
    spec.engine.slot_duration_s = 60.0;
    spec.engine.sample_interval_s = 60.0;
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// The mix again, each job carrying three of the four per-job layers; job i
/// goes without layer i % 4 (supervision, managed actuation, lossy
/// transport, a sampled FaultPlan).  All four at once can abort the run (see
/// NOTES.md), so the subsets rotate.
std::vector<fleet::JobSpec> chaos_specs(std::size_t n, std::uint64_t seed, std::size_t horizon) {
  std::vector<fleet::JobSpec> specs = mix_specs(n);
  const common::Rng root(seed);
  for (std::size_t i = 0; i < n; ++i) {
    fleet::JobSpec& spec = specs[i];
    const std::size_t without = i % 4;
    spec.supervised = without != 0;
    spec.managed = without != 1;
    spec.transported = without != 2;
    if (spec.managed) {
      spec.actuation.sched_latency_mean_slots = 1.0;
      spec.actuation.sched_latency_jitter = 0.5;
    }
    if (spec.transported) {
      for (transport::ChannelOptions* channel :
           {&spec.transport.telemetry, &spec.transport.command, &spec.transport.ack})
        channel->drop_prob = 0.05;
      // Two retransmissions, so the netdrop window exhausts some commands.
      spec.transport.retry.max_retries = 2;
    }
    if (without != 3) {
      faults::FaultPlan::SampleOptions sample;
      sample.horizon_slots = horizon;
      sample.warmup_slots = 4;
      sample.ctrlcrash_prob = spec.supervised ? 0.01 : 0.0;
      for (dag::NodeId op : spec.workload.dag.operators())
        sample.operators.push_back(spec.workload.dag.component(op).name);
      common::Rng rng = root.substream("dragbench-faults", i);
      spec.fault_plan = faults::FaultPlan::sample(rng, sample).to_string();
    }
  }
  return specs;
}

long long floor_pods(const std::vector<fleet::JobSpec>& specs) {
  long long floors = 0;
  for (const fleet::JobSpec& spec : specs) floors += spec.floor_pods();
  return floors;
}

fleet::FleetOptions fleet_options(Workload workload, const std::vector<fleet::JobSpec>& specs,
                                  std::uint64_t seed) {
  fleet::FleetOptions options;
  options.slots = horizon_slots(workload);
  options.arbiter.mode = fleet::ArbiterMode::kPressure;
  options.pod_price_per_hour = kPodPrice;
  options.seed = seed;
  const auto n = static_cast<long long>(specs.size());
  if (workload == Workload::kFleetSteady) {
    // fig11: floors + 1.75 pods per job.
    options.budget_pods = static_cast<int>(floor_pods(specs) + (7 * n) / 4);
  } else {
    // fig12: floors + 3 pods per job on a node pool two nodes over budget;
    // a sixth of the nodes crash, a 72% budget cut forces brownout, and a
    // ten-slot 80% control-plane loss window hits every transported job
    // (long enough to exhaust some commands' retries).
    options.budget_pods = static_cast<int>(floor_pods(specs) + 3 * n);
    options.node_count = (options.budget_pods + kPodsPerNode - 1) / kPodsPerNode + 2;
    options.node_capacity = kPodsPerNode;
    const int crash_nodes = std::max(1, options.node_count / 6);
    options.chaos = "nodecrash@8*" + std::to_string(crash_nodes) +
                    ";budgetcut@16+4*0.72;netdrop@24+10*0.8";
  }
  options.limits.max_total_pods = options.budget_pods;
  return options;
}

/// One job driven through ScenarioRunner under Dragster(saddle): the
/// single-long workload itself, and the fleet twins of the traced pass.
class SingleJob {
 public:
  SingleJob(streamsim::Engine engine, const online::Budget& budget, std::size_t slots,
            const std::string& name, obs::Registry* registry, bool decorate)
      : engine_(std::make_unique<streamsim::Engine>(std::move(engine))), budget_(budget) {
    core::DragsterOptions options;
    options.budget = budget;
    controller_ = std::make_unique<core::DragsterController>(options);
    core::Controller* driven = controller_.get();
    if (decorate) {
      timed_ = std::make_unique<TimedController>(*controller_);
      driven = timed_.get();
    }
    experiments::ScenarioOptions scenario;
    scenario.slots = slots;
    scenario.budget = budget;
    runner_ = std::make_unique<experiments::ScenarioRunner>(*engine_, *driven, scenario, name,
                                                           nullptr, nullptr, registry);
  }

  /// One ScenarioRunner::step, timed; the sink (if any) is armed around it.
  /// With `probes`, the controller is probed afterwards, outside the timing.
  double step(ProbeTotals* probes, StampingSink* sink) {
    const Clock::time_point begin = Clock::now();
    if (sink != nullptr) sink->begin(begin);
    runner_->step();
    const Clock::time_point end = Clock::now();
    if (sink != nullptr) sink->end(end, Layer::kExperiments);
    if (probes != nullptr) probe(*probes, begin, end);
    return ms_between(begin, end);
  }

  [[nodiscard]] experiments::RunResult finish() { return runner_->finish(); }

 private:
  void probe(ProbeTotals& probes, Clock::time_point begin, Clock::time_point end) {
    const std::size_t slot = runner_->slots_run() - 1;
    if (timed_ != nullptr && timed_->on_slot_ms().size() == slot + 1) {
      probes.pre_ms.push_back(ms_between(begin, timed_->entered()));
      probes.post_ms.push_back(ms_between(timed_->exited(), end));
      if (probes.on_slot_sum_by_slot.size() <= slot) {
        probes.on_slot_sum_by_slot.resize(slot + 1, 0.0);
        probes.on_slot_count_by_slot.resize(slot + 1, 0);
      }
      probes.on_slot_sum_by_slot[slot] += timed_->on_slot_ms().back();
      probes.on_slot_count_by_slot[slot] += 1;
    }

    // Level 1: re-run the saddle-point solve on the controller's own inputs.
    const streamsim::JobMonitor monitor = engine_->monitor();
    const streamsim::SlotReport& report = monitor.last_report();
    const dag::StreamDag& dag = controller_->planning_dag();
    if (flow_ == nullptr) flow_ = std::make_unique<dag::FlowSolver>(dag);
    const std::size_t n = dag.node_count();
    const std::vector<double>& y_est = controller_->last_capacity_estimates();
    std::vector<double> rates(n, 0.0);
    std::vector<double> demand(n, 0.0);
    for (dag::NodeId id : dag.sources()) rates[id] = report.source_rate[id];
    double scale = 1000.0;
    for (dag::NodeId id : dag.operators()) {
      demand[id] = report.per_node[id].demand_rate;
      scale = std::max({scale, y_est[id], demand[id]});
    }
    online::SaddlePointOptions saddle;
    saddle.y_max = 3.0 * scale;
    const online::SaddlePointSolver solver(saddle);
    Clock::time_point t0 = Clock::now();
    const std::vector<double> targets =
        solver.solve(*flow_, rates, controller_->lambda(), y_est, demand);
    Clock::time_point t1 = Clock::now();
    DRAGSTER_REQUIRE(targets.size() == n, "saddle probe returned a short target vector");
    probes.saddle_us.push_back(1e3 * ms_between(t0, t1));

    // Level 2: the posterior over the whole task grid, and one more
    // observation on a copy, for every operator that has a GP yet.
    const int max_tasks = monitor.max_tasks();
    std::vector<double> grid(static_cast<std::size_t>(max_tasks));
    std::iota(grid.begin(), grid.end(), 1.0);
    std::vector<gp::Posterior> posts(grid.size());
    double predict_us = 0.0;
    double add_us = 0.0;
    bool any = false;
    for (dag::NodeId op : dag.operators()) {
      const gp::GaussianProcess* model = controller_->gp_for(op);
      if (model == nullptr) continue;
      any = true;
      t0 = Clock::now();
      model->predict_batch(grid, grid.size(), posts);
      t1 = Clock::now();
      predict_us += 1e3 * ms_between(t0, t1);
      gp::GaussianProcess copy(*model);
      const int tasks = std::clamp(engine_->tasks(op), 1, max_tasks);
      const double y = posts[static_cast<std::size_t>(tasks - 1)].mean;
      t0 = Clock::now();
      copy.add_observation({static_cast<double>(tasks)}, y);
      t1 = Clock::now();
      add_us += 1e3 * ms_between(t0, t1);
      probes.gp_observations = std::max(probes.gp_observations, model->num_observations());
    }
    if (any) {
      probes.predict_us.push_back(predict_us);
      probes.add_obs_us.push_back(add_us);
    }

    // The oracle, uncached, for this slot's load under this job's budget.
    if (oracle_ == nullptr) oracle_ = std::make_unique<baselines::Oracle>(*engine_);
    t0 = Clock::now();
    const baselines::OracleResult best =
        oracle_->optimal_at(report.start_seconds + 0.5 * report.duration_s, budget_);
    t1 = Clock::now();
    DRAGSTER_REQUIRE(std::isfinite(best.throughput), "oracle probe returned a non-finite optimum");
    probes.oracle_ms.push_back(ms_between(t0, t1));
  }

  std::unique_ptr<streamsim::Engine> engine_;
  online::Budget budget_;
  std::unique_ptr<core::DragsterController> controller_;
  std::unique_ptr<TimedController> timed_;
  std::unique_ptr<dag::FlowSolver> flow_;
  std::unique_ptr<baselines::Oracle> oracle_;
  std::unique_ptr<experiments::ScenarioRunner> runner_;  ///< declared last: destroyed first
};

bool finite_slot(const experiments::SlotSummary& s) {
  for (double v : {s.throughput_rate, s.effective_rate, s.tuples, s.cost, s.latency_s,
                   s.oracle_throughput})
    if (!std::isfinite(v)) return false;
  return true;
}

void fail(Episode& episode, const std::string& check, std::size_t job_slots) {
  episode.failed += job_slots;
  if (std::find(episode.failures.begin(), episode.failures.end(), check) ==
      episode.failures.end())
    episode.failures.push_back(check);
}

/// Per job-slot checks and behaviour totals shared by both shapes.  The
/// deployed total is held to the slot's budget only where actuation is
/// synchronous and commands are lossless (`budget_binds`): an async or
/// retried rescale may overshoot for a slot, as the library documents.
void score_run(Episode& episode, const experiments::RunResult& run,
               const std::vector<long long>& budget_per_slot, bool budget_binds,
               int max_tasks) {
  if (budget_per_slot.size() != run.slots.size())
    fail(episode, "tasks_within_budget", run.slots.size());
  for (std::size_t k = 0; k < run.slots.size(); ++k) {
    const experiments::SlotSummary& s = run.slots[k];
    if (!finite_slot(s)) fail(episode, "metrics_finite", 1);
    long long total = 0;
    for (int tasks : s.tasks) {
      total += tasks;
      if (tasks < 1 || tasks > max_tasks) fail(episode, "tasks_within_bounds", 1);
    }
    if (budget_binds && k < budget_per_slot.size() && total > budget_per_slot[k])
      fail(episode, "tasks_within_budget", 1);
    episode.throughput_sum += s.throughput_rate;
    episode.oracle_sum += s.oracle_throughput;
  }
  episode.job_slots += run.slots.size();
  if (run.supervisor) {
    episode.snapshots += run.supervisor->snapshots_taken;
    episode.replayed_frames += run.supervisor->replayed_frames;
  }
  for (const actuation::OperatorStats& op : run.actuation) {
    episode.epochs_issued += op.issued;
    episode.epochs_applied += op.applied;
  }
  episode.faults_applied += run.fault_timeline.size();
}

Episode run_fleet(Workload workload, std::uint64_t seed, Tracing* tracing, bool setup_only) {
  Episode episode;
  const std::size_t horizon = horizon_slots(workload);
  std::size_t jobs = 0;
  std::size_t slots_done = 0;
  std::size_t job_slots_done = 0;
  try {
    const Clock::time_point t0 = Clock::now();
    std::vector<fleet::JobSpec> specs = workload == Workload::kFleetSteady
                                            ? mix_specs(kSteadyJobs)
                                            : chaos_specs(kChaosJobs, seed, horizon);
    jobs = specs.size();
    const fleet::FleetOptions options = fleet_options(workload, specs, seed);
    std::vector<std::string> names;
    std::vector<bool> synchronous;
    std::vector<int> max_tasks;
    for (const fleet::JobSpec& spec : specs) {
      names.push_back(spec.name);
      synchronous.push_back(!spec.managed && !spec.transported);
      max_tasks.push_back(spec.engine.max_tasks);
    }
    const std::vector<fleet::JobSpec> twin_specs(specs.begin(), specs.begin() + kTwins);
    fleet::FleetScheduler scheduler(std::move(specs), options,
                                    tracing != nullptr ? &tracing->registry : nullptr);

    // Per-job grant of every slot the job stepped: the arbiter writes each
    // running job's quota before stepping it, brownout and finish drop it.
    std::vector<std::vector<long long>> grants(jobs);
    const auto record_grants = [&] {
      std::size_t running = 0;
      for (std::size_t j = 0; j < jobs; ++j) {
        const int quota = scheduler.shared_cluster().job_quota(names[j]).max_total_pods;
        if (quota <= 0) continue;
        grants[j].push_back(quota);
        ++running;
      }
      ++slots_done;
      job_slots_done += running;
      return running;
    };

    const Clock::time_point admit = Clock::now();
    scheduler.step();
    const Clock::time_point admitted = Clock::now();
    episode.first_slot_ms = ms_between(admit, admitted);
    episode.setup_s = ms_between(t0, admitted) / 1e3;
    record_grants();
    if (setup_only) return episode;

    // Twins of the first fleet members carry the controller probes.  Each
    // decorated, probed twin steps beside an undecorated one of the same
    // spec, and the two must give the same checksum.
    std::vector<std::unique_ptr<SingleJob>> twins;
    std::vector<std::unique_ptr<SingleJob>> bare_twins;
    if (tracing != nullptr) {
      for (std::size_t k = 0; k < twin_specs.size(); ++k) {
        for (bool decorate : {true, false}) {
          const fleet::JobSpec& spec = twin_specs[k];
          auto twin = std::make_unique<SingleJob>(
              spec.workload.make_engine(spec.high_rate, spec.engine,
                                        fleet::FleetScheduler::job_seed(seed, k)),
              fleet::FleetScheduler::pods_budget(spec.floor_pods() + 2, kPodPrice), horizon,
              spec.name, nullptr, decorate);
          (void)twin->step(nullptr, nullptr);
          (decorate ? twins : bare_twins).push_back(std::move(twin));
        }
      }
    }

    for (std::size_t t = 1; t < horizon; ++t) {
      const Clock::time_point begin = Clock::now();
      if (tracing != nullptr) tracing->sink.begin(begin);
      scheduler.step();
      const Clock::time_point end = Clock::now();
      if (tracing != nullptr) tracing->sink.end(end, Layer::kFleet);
      episode.slot_ms.push_back(ms_between(begin, end));
      episode.slot_jobs.push_back(record_grants());
      for (auto& twin : twins) (void)twin->step(&tracing->probes, nullptr);
      for (auto& twin : bare_twins) (void)twin->step(nullptr, nullptr);
    }
    for (std::size_t k = 0; k < twins.size(); ++k)
      if (checksum(twins[k]->finish()) != checksum(bare_twins[k]->finish()))
        fail(episode, "traced_decorated_checksum", 0);

    const fleet::FleetResult result = scheduler.finish();
    for (const fleet::FleetSlot& s : result.slots) {
      if (!s.within_limits) fail(episode, "limits_respected", s.running_jobs);
      if (!s.nodes_within_capacity) fail(episode, "nodes_within_capacity", s.running_jobs);
      if (!std::isfinite(s.spend_rate) || !std::isfinite(s.throughput))
        fail(episode, "metrics_finite", s.running_jobs);
    }
    if (!result.limits_respected) fail(episode, "limits_respected", 0);
    for (std::size_t j = 0; j < result.jobs.size(); ++j)
      score_run(episode, result.jobs[j].run, grants[j], synchronous[j], max_tasks[j]);
    episode.attempted = episode.job_slots;
    episode.slo_misses = result.total_slo_misses;
    episode.tuples = result.total_tuples;
    episode.cost = result.total_cost;
    episode.sheds = result.sheds;
    episode.restores = result.restores;
    episode.checksum = checksum(result);
  } catch (const std::exception& error) {
    // The rest of the horizon never ran: every job-slot from here fails.
    const std::size_t lost = jobs * (horizon - std::min(horizon, slots_done));
    episode.attempted = job_slots_done + lost;
    fail(episode, std::string("no_exception (") + error.what() + ")", lost);
  }
  return episode;
}

Episode run_single_long(std::uint64_t seed, Tracing* tracing, bool setup_only) {
  Episode episode;
  const std::size_t horizon = kLongHorizon;
  std::size_t slots_done = 0;
  try {
    const Clock::time_point t0 = Clock::now();
    const workloads::WorkloadSpec spec = workloads::wordcount();
    std::map<dag::NodeId, std::unique_ptr<streamsim::RateSchedule>> schedules;
    for (const auto& [id, high] : spec.high_rate)
      schedules[id] = std::make_unique<streamsim::AlternatingRate>(high, spec.low_rate.at(id),
                                                                   kLongPeriodSeconds);
    const online::Budget budget = fleet::FleetScheduler::pods_budget(kLongBudgetPods, kPodPrice);
    SingleJob job(spec.make_engine_with(std::move(schedules), streamsim::EngineOptions{}, seed),
                  budget, horizon, spec.name,
                  tracing != nullptr ? &tracing->registry : nullptr, tracing != nullptr);
    episode.first_slot_ms = job.step(nullptr, nullptr);
    episode.setup_s = ms_between(t0, Clock::now()) / 1e3;
    slots_done = 1;
    if (setup_only) return episode;
    for (std::size_t t = 1; t < horizon; ++t) {
      episode.slot_ms.push_back(tracing != nullptr ? job.step(&tracing->probes, &tracing->sink)
                                                   : job.step(nullptr, nullptr));
      episode.slot_jobs.push_back(1);
      slots_done = t + 1;
    }
    const experiments::RunResult run = job.finish();
    score_run(episode, run,
              std::vector<long long>(run.slots.size(),
                                     static_cast<long long>(budget.max_total_tasks())),
              true, streamsim::EngineOptions{}.max_tasks);
    for (const experiments::SlotSummary& s : run.slots)
      if (s.latency_s > kLongSloSeconds) ++episode.slo_misses;
    episode.attempted = episode.job_slots;
    episode.tuples = run.total_tuples;
    episode.cost = run.total_cost;
    episode.checksum = checksum(run);
  } catch (const std::exception& error) {
    const std::size_t lost = horizon - std::min(horizon, slots_done);
    episode.attempted = slots_done + lost;
    fail(episode, std::string("no_exception (") + error.what() + ")", lost);
  }
  return episode;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::kFleetSteady, Workload::kSingleLong, Workload::kFleetChaos})
    if (name == workload_name(w)) return w;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kFleetSteady: return "fleet-steady";
    case Workload::kSingleLong: return "single-long";
    case Workload::kFleetChaos: return "fleet-chaos";
  }
  return "unknown";
}

std::size_t horizon_slots(Workload workload) {
  switch (workload) {
    case Workload::kFleetSteady: return kSteadyHorizon;
    case Workload::kSingleLong: return kLongHorizon;
    case Workload::kFleetChaos: return kChaosHorizon;
  }
  return 0;
}

Episode run_episode(Workload workload, std::uint64_t seed, Tracing* tracing) {
  return workload == Workload::kSingleLong ? run_single_long(seed, tracing, false)
                                           : run_fleet(workload, seed, tracing, false);
}

double run_setup(Workload workload, std::uint64_t seed) {
  const Episode episode = workload == Workload::kSingleLong
                              ? run_single_long(seed, nullptr, true)
                              : run_fleet(workload, seed, nullptr, true);
  DRAGSTER_REQUIRE(episode.failures.empty(), "set-up failed: " + episode.failures.front());
  return episode.setup_s;
}

}  // namespace dragbench
