#include "experiments/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "baselines/dhalion.hpp"
#include "baselines/ds2.hpp"
#include "common/error.hpp"
#include "core/dragster_controller.hpp"
#include "transport/transport.hpp"

namespace dragster::experiments {

namespace {

/// A slot is near-optimal when its effective rate is within the paper's 10%
/// of the oracle's.
constexpr double kNearOptimalFraction = 0.90;

}  // namespace

std::unique_ptr<core::Controller> make_controller(const std::string& name,
                                                  const online::Budget& budget) {
  if (name == "Dhalion") {
    baselines::DhalionOptions options;
    options.budget = budget;
    return std::make_unique<baselines::DhalionController>(options);
  }
  if (name == "DS2") {
    baselines::Ds2Options options;
    options.budget = budget;
    return std::make_unique<baselines::Ds2Controller>(options);
  }
  DRAGSTER_REQUIRE(name == "Dragster" || name == "Dragster(saddle)" || name == "Dragster(ogd)",
                   "unknown controller: " + name);
  core::DragsterOptions options;
  options.budget = budget;
  if (name == "Dragster(ogd)") options.method = core::PrimalMethod::kOnlineGradient;
  return std::make_unique<core::DragsterController>(options);
}

ScenarioRunner::ScenarioRunner(streamsim::Engine& engine, core::Controller& controller,
                               const ScenarioOptions& options, std::string workload_name,
                               faults::FaultInjector* injector,
                               actuation::ActuationManager* actuation, obs::Registry* obs,
                               transport::TransportHarness* transport)
    : engine_(engine),
      controller_(controller),
      options_(options),
      injector_(injector),
      actuation_(actuation),
      obs_(obs),
      transport_(transport),
      // With a manager the controller never touches the engine directly:
      // every action goes through the epoch fence and the async pod
      // lifecycle.
      actuator_(actuation != nullptr ? static_cast<streamsim::ScalingActuator*>(actuation)
                                     : static_cast<streamsim::ScalingActuator*>(&engine)),
      supervised_(dynamic_cast<resilience::ControllerSupervisor*>(&controller)),
      oracle_(engine) {
  result_.controller = controller_.name();
  result_.workload = std::move(workload_name);
  operators_ = engine_.dag().operators();

  // Attach telemetry for the duration of the run (detached in the dtor —
  // the registry may outlive none of these components).
  engine_.set_observability(obs_);
  controller_.set_observability(obs_);
  if (actuation_ != nullptr) actuation_->set_observability(obs_);
  // The harness interposes on the control loop only; initialize() below (and
  // crash restarts / budget preemption in step()) act on the deployment
  // directly.
  if (transport_ != nullptr)
    transport_->attach(*actuator_, engine_.dag(), options_.budget, obs_);

  controller_.initialize(engine_.monitor(), *actuator_);
}

ScenarioRunner::~ScenarioRunner() {
  engine_.set_observability(nullptr);
  controller_.set_observability(nullptr);
  if (actuation_ != nullptr) actuation_->set_observability(nullptr);
  if (transport_ != nullptr) transport_->detach();
}

void ScenarioRunner::set_budget(const online::Budget& budget) {
  options_.budget = budget;
  controller_.set_budget(budget);
  if (transport_ != nullptr) transport_->set_budget(budget);
}

void ScenarioRunner::enforce_budget() {
  if (!options_.budget.limited()) return;
  // The platform preempts over-quota configurations the way a cluster kills
  // pods over a shrunk quota, with Pi_X itself (online::Budget::project): one
  // task at a time off the most replicated operator (ties to the earlier
  // operator), never below one task each.  Healthy controllers project onto
  // the budget themselves, so this only fires when the budget shrank under a
  // controller that cannot react yet — a crash outage, a restore of a fatter
  // snapshot, actuation lag.
  std::vector<int> tasks(operators_.size());
  for (std::size_t k = 0; k < operators_.size(); ++k) tasks[k] = engine_.tasks(operators_[k]);
  tasks = options_.budget.project(std::move(tasks));
  bool preempted = false;
  for (std::size_t k = 0; k < operators_.size(); ++k)
    if (tasks[k] != engine_.tasks(operators_[k])) {
      actuator_->set_tasks(operators_[k], tasks[k]);
      preempted = true;
    }
  if (preempted && obs_ != nullptr) {
    obs_->counter("scenario_budget_preemptions_total",
                  "Slots where the platform preempted tasks over the budget")
        .inc();
    if (obs::TraceSink* sink = obs_->trace()) {
      obs::Event(*sink, "budget_preemption", static_cast<std::uint64_t>(slot_))
          .field("total_tasks",
                 static_cast<std::int64_t>(std::accumulate(tasks.begin(), tasks.end(), 0)))
          .field("cap", static_cast<std::int64_t>(options_.budget.max_total_tasks()));
    }
  }
}

double ScenarioRunner::oracle_for(double at_seconds) {
  const auto& dag = engine_.dag();
  std::vector<long long> key;
  key.reserve(dag.sources().size() + 1);
  for (dag::NodeId id : dag.sources())
    key.push_back(static_cast<long long>(std::llround(engine_.offered_rate(id, at_seconds))));
  key.push_back(options_.budget.limited()
                    ? static_cast<long long>(options_.budget.max_total_tasks())
                    : -1);
  const auto it = oracle_cache_.find(key);
  if (it != oracle_cache_.end()) return it->second;
  const double value = oracle_.optimal_at(at_seconds, options_.budget).throughput;
  oracle_cache_.emplace(std::move(key), value);
  return value;
}

void ScenarioRunner::step() {
  const std::size_t t = slot_++;
  const streamsim::JobMonitor monitor = engine_.monitor();

  const std::size_t faults_before = injector_ != nullptr ? injector_->applied().size() : 0;
  if (injector_ != nullptr) injector_->before_slot(engine_, actuation_);
  if (injector_ != nullptr && obs_ != nullptr) {
    for (std::size_t k = faults_before; k < injector_->applied().size(); ++k) {
      const faults::AppliedFault& fault = injector_->applied()[k];
      obs_->counter("scenario_faults_total", "Fault events applied, by kind",
                    {{"kind", faults::to_string(fault.event.kind)}})
          .inc();
      if (obs::TraceSink* sink = obs_->trace()) {
        obs::Event(*sink, "fault_injected", static_cast<std::uint64_t>(fault.slot))
            .field("kind", faults::to_string(fault.event.kind))
            .field("spec", fault.event.to_string());
      }
    }
  }
  enforce_budget();
  // Transport wire clock first: command/ack copies scheduled for this slot
  // land on the manager *before* it reconciles, mirroring how a real
  // controller's late commands arrive ahead of the reconcile loop.
  if (transport_ != nullptr) transport_->begin_slot(t);
  if (actuation_ != nullptr) actuation_->begin_slot();
  const streamsim::SlotReport& report = engine_.run_slot();
  if (injector_ != nullptr && injector_->consume_controller_crash()) {
    if (supervised_ != nullptr)
      supervised_->inject_crash();
    else
      controller_.initialize(monitor, *actuator_);  // amnesiac restart
  }
  if (transport_ != nullptr)
    transport_->control_step(controller_, streamsim::MonitorFrame::capture(engine_.monitor()),
                             t);
  else
    controller_.on_slot(monitor, *actuator_);
  // Quota is also enforced on the way out: a controller that over-commands
  // (typically a restore reapplying a snapshot taken under a fatter budget)
  // is preempted synchronously, so the commanded configuration a ledger
  // reads at slot end never exceeds the budget either.
  enforce_budget();

  SlotSummary summary;
  summary.slot = t;
  summary.start_seconds = report.start_seconds;
  summary.throughput_rate = report.throughput_rate;
  summary.effective_rate =
      report.tuples_processed / std::max(1.0, report.duration_s - report.pause_s);
  summary.tuples = report.tuples_processed;
  summary.cost = report.cost;
  summary.cost_rate = report.cost_rate_per_hour;
  summary.pause_s = report.pause_s;
  summary.latency_s = report.latency_estimate_s;
  summary.tasks.reserve(operators_.size());
  for (dag::NodeId id : operators_) summary.tasks.push_back(report.per_node[id].tasks);
  // Score against the optimum for the load in force at mid-slot (robust to
  // a rate flip at the slot boundary).
  summary.oracle_throughput = oracle_for(report.start_seconds + 0.5 * report.duration_s);
  summary.near_optimal =
      summary.effective_rate >= kNearOptimalFraction * summary.oracle_throughput;
  summary.checkpoint_retries = report.checkpoint_retries;
  summary.checkpoint_aborted = report.checkpoint_aborted;
  for (dag::NodeId id : operators_)
    summary.fault_active = summary.fault_active || report.per_node[id].fault_tainted ||
                           report.per_node[id].metrics_stale;

  if (obs_ != nullptr) {
    if (obs::TraceSink* sink = obs_->trace()) {
      obs::Event(*sink, "scenario_slot", static_cast<std::uint64_t>(t))
          .field("throughput", summary.throughput_rate)
          .field("effective", summary.effective_rate)
          .field("cost", summary.cost)
          .field("oracle", summary.oracle_throughput)
          .field("near_optimal", summary.near_optimal)
          .field("fault_active", summary.fault_active);
    }
  }

  result_.total_tuples += summary.tuples;
  result_.total_cost += summary.cost;
  result_.slots.push_back(std::move(summary));
  result_.series.insert(result_.series.end(), report.throughput_series.begin(),
                        report.throughput_series.end());
}

RunResult ScenarioRunner::finish() {
  // Recovery analytics: score each applied fault against the same
  // oracle-normalized throughput the convergence analytics use.  Full-slot
  // throughput (not pause-excluded) so checkpoint retries show up as loss.
  if (injector_ != nullptr) {
    result_.fault_timeline = injector_->applied();
    std::vector<faults::RecoverySlotData> series;
    series.reserve(result_.slots.size());
    for (const SlotSummary& slot : result_.slots)
      series.push_back({slot.throughput_rate, slot.oracle_throughput});
    result_.recoveries = faults::analyze_recovery(result_.fault_timeline, series,
                                                  engine_.options().slot_duration_s);
  }
  if (supervised_ != nullptr) result_.supervisor = supervised_->stats();
  if (actuation_ != nullptr) result_.actuation = actuation_->operator_stats();
  return std::move(result_);
}

RunResult run_scenario(streamsim::Engine& engine, core::Controller& controller,
                       const ScenarioOptions& options, const std::string& workload_name,
                       faults::FaultInjector* injector,
                       actuation::ActuationManager* actuation, obs::Registry* obs,
                       transport::TransportHarness* transport) {
  ScenarioRunner runner(engine, controller, options, workload_name, injector, actuation, obs,
                        transport);
  for (std::size_t t = 0; t < options.slots; ++t) runner.step();
  return runner.finish();
}

std::optional<std::size_t> convergence_slot(std::span<const SlotSummary> slots, std::size_t from,
                                            std::size_t to, std::size_t persistence) {
  to = std::min(to, slots.size());
  DRAGSTER_REQUIRE(from <= to, "empty convergence window");
  DRAGSTER_REQUIRE(persistence >= 1, "persistence must be at least one slot");
  for (std::size_t k = from; k < to; ++k) {
    if (!slots[k].near_optimal) continue;
    // Persistence: the next `persistence` slots (clipped to the window) must
    // all be near-optimal.
    const std::size_t run_end = std::min(k + persistence, to);
    bool run_ok = true;
    for (std::size_t i = k; i < run_end; ++i) run_ok = run_ok && slots[i].near_optimal;
    if (!run_ok) continue;
    // Stability: most of the remaining window must also be near-optimal.
    std::size_t good = 0;
    for (std::size_t i = k; i < to; ++i)
      if (slots[i].near_optimal) ++good;
    if (static_cast<double>(good) >= 0.75 * static_cast<double>(to - k)) return k;
  }
  return std::nullopt;
}

std::optional<double> convergence_minutes(std::span<const SlotSummary> slots, std::size_t from,
                                          std::size_t to, double slot_minutes) {
  const auto slot = convergence_slot(slots, from, to);
  if (!slot) return std::nullopt;
  return (static_cast<double>(*slot - from) + 1.0) * slot_minutes;
}

PhaseStats analyze_phase(const RunResult& run, std::size_t from, std::size_t to,
                         double slot_minutes) {
  PhaseStats stats;
  to = std::min(to, run.slots.size());
  stats.convergence_min = convergence_minutes(run.slots, from, to, slot_minutes);
  double seconds = 0.0;
  for (std::size_t i = from; i < to; ++i) {
    stats.tuples += run.slots[i].tuples;
    stats.cost += run.slots[i].cost;
    seconds += slot_minutes * 60.0;
  }
  stats.cost_per_billion = stats.tuples > 0.0 ? stats.cost / (stats.tuples / 1e9) : 0.0;
  stats.avg_rate = seconds > 0.0 ? stats.tuples / seconds : 0.0;
  return stats;
}

}  // namespace dragster::experiments
