#include "streamsim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "obs/registry.hpp"

namespace dragster::streamsim {

namespace {

/// Mean arrival demand over capacity above which an operator reports
/// backpressure.
constexpr double kBackpressureUtil = 0.95;
/// Failed checkpoint attempt k costs checkpoint_pause_s * kCheckpointBackoff^k;
/// a retry chain longer than kCheckpointAbortFraction of the slot aborts the
/// reconfiguration instead.
constexpr double kCheckpointBackoff = 2.0;
constexpr double kCheckpointAbortFraction = 0.5;

}  // namespace

// -- MonitorFrame -------------------------------------------------------------

MonitorFrame MonitorFrame::capture(const JobMonitor& monitor) {
  MonitorFrame frame;
  frame.dag = monitor.dag();
  frame.has_report = monitor.has_report();
  if (frame.has_report) frame.report = monitor.last_report();
  for (dag::NodeId id : frame.dag.operators()) {
    frame.tasks[id] = monitor.tasks(id);
    frame.specs[id] = monitor.pod_spec(id);
  }
  frame.slots_run = monitor.slots_run();
  frame.now_seconds = monitor.now_seconds();
  frame.total_tuples = monitor.total_tuples();
  frame.total_cost = monitor.total_cost();
  frame.max_tasks = monitor.max_tasks();
  return frame;
}

// -- JobMonitor ---------------------------------------------------------------

const dag::StreamDag& JobMonitor::dag() const { return engine_ ? engine_->dag() : frame_->dag; }

const SlotReport& JobMonitor::last_report() const {
  if (engine_) return engine_->last_report();
  DRAGSTER_REQUIRE(frame_->has_report, "replay frame has no slot report");
  return frame_->report;
}

bool JobMonitor::has_report() const { return engine_ ? engine_->has_report() : frame_->has_report; }

int JobMonitor::tasks(dag::NodeId op) const {
  if (engine_) return engine_->tasks(op);
  const auto it = frame_->tasks.find(op);
  DRAGSTER_REQUIRE(it != frame_->tasks.end(), "replay frame has no task count for this node");
  return it->second;
}

std::size_t JobMonitor::slots_run() const {
  return engine_ ? engine_->slots_run() : frame_->slots_run;
}

double JobMonitor::total_tuples() const {
  return engine_ ? engine_->total_tuples() : frame_->total_tuples;
}

double JobMonitor::total_cost() const {
  return engine_ ? engine_->total_cost() : frame_->total_cost;
}

double JobMonitor::now_seconds() const {
  return engine_ ? engine_->now_seconds() : frame_->now_seconds;
}

int JobMonitor::max_tasks() const {
  return engine_ ? engine_->options().max_tasks : frame_->max_tasks;
}

double JobMonitor::pod_price_per_hour(dag::NodeId op) const {
  return cluster::pod_price_per_hour(pod_spec(op));
}

cluster::PodSpec JobMonitor::pod_spec(dag::NodeId op) const {
  if (engine_) return engine_->pod_spec(op);
  const auto it = frame_->specs.find(op);
  DRAGSTER_REQUIRE(it != frame_->specs.end(), "replay frame has no pod spec for this node");
  return it->second;
}

// -- Engine -------------------------------------------------------------------

Engine::Engine(dag::StreamDag dag, std::map<dag::NodeId, UslParams> usl,
               std::map<dag::NodeId, std::unique_ptr<RateSchedule>> schedules,
               EngineOptions options, std::uint64_t seed)
    : dag_(std::move(dag)), options_(options), root_rng_(seed) {
  DRAGSTER_REQUIRE(dag_.validated(), "Engine requires a validated DAG");
  DRAGSTER_REQUIRE(options_.slot_duration_s > 0.0 && options_.micro_step_s > 0.0,
                   "durations must be positive");
  DRAGSTER_REQUIRE(options_.micro_step_s <= options_.slot_duration_s,
                   "the micro-step must fit inside a slot");
  DRAGSTER_REQUIRE(options_.checkpoint_pause_s >= 0.0 &&
                       options_.checkpoint_pause_s < options_.slot_duration_s,
                   "checkpoint pause must fit inside a slot");
  DRAGSTER_REQUIRE(options_.buffer_limit >= 0.0, "buffer limit must be non-negative");
  DRAGSTER_REQUIRE(options_.max_tasks >= 1, "max_tasks must be positive");

  const std::size_t nodes = dag_.node_count();
  ops_.resize(nodes);
  for (dag::NodeId id : dag_.operators()) {
    const auto it = usl.find(id);
    DRAGSTER_REQUIRE(it != usl.end(),
                     "missing USL parameters for operator " + dag_.component(id).name);
    ops_[id].model = std::make_unique<CapacityModel>(it->second);
    ops_[id].backlog.assign(dag_.in_edges(id).size(), 0.0);
    cluster_.add_deployment(dag_.component(id).name, 1);
  }
  for (dag::NodeId id : dag_.sources()) {
    DRAGSTER_REQUIRE(schedules.count(id),
                     "missing rate schedule for source " + dag_.component(id).name);
  }
  schedules_.resize(nodes);
  for (auto& [id, schedule] : schedules) {
    DRAGSTER_REQUIRE(id < nodes && dag_.component(id).kind == dag::ComponentKind::kSource,
                     "schedule attached to a non-source node");
    DRAGSTER_REQUIRE(schedule != nullptr, "null rate schedule");
    schedules_[id] = std::move(schedule);
  }
  source_pending_.assign(nodes, 0.0);
  compile_plan();
}

void Engine::compile_plan() {
  std::size_t max_in = 0;
  for (dag::NodeId id : dag_.topo_order()) {
    PlanNode node;
    node.id = id;
    node.kind = dag_.component(id).kind;
    node.in_begin = plan_in_.size();
    for (std::size_t eidx : dag_.in_edges(id)) plan_in_.push_back(eidx);
    node.in_end = plan_in_.size();
    max_in = std::max(max_in, node.in_end - node.in_begin);
    node.out_begin = plan_out_.size();
    for (std::size_t eidx : dag_.out_edges(id)) {
      const dag::Edge& edge = dag_.edge(eidx);
      plan_out_.push_back(PlanEdge{eidx, edge.alpha, &edge.fn});
    }
    node.out_end = plan_out_.size();
    plan_.push_back(node);
  }
  avail_.assign(max_in, 0.0);
  inputs_.assign(max_in, 0.0);
  fresh_.assign(max_in, 0.0);
  edge_rate_.assign(dag_.edge_count(), 0.0);
  path_delay_.assign(dag_.node_count(), 0.0);
}

void Engine::require_operator(dag::NodeId op, const char* method) const {
  DRAGSTER_REQUIRE(op < ops_.size() && ops_[op].model != nullptr,
                   std::string(method) + " on a non-operator node");
}

void Engine::set_tasks(dag::NodeId op, int new_tasks) {
  require_operator(op, "set_tasks");
  OperatorState& state = ops_[op];
  DRAGSTER_REQUIRE(new_tasks >= 1 && new_tasks <= options_.max_tasks,
                   "task count outside [1, max_tasks]");
  if (state.tasks == new_tasks) return;
  if (!state.reconfig_pending) {  // first change this slot: rollback point
    state.prev_tasks = state.tasks;
    state.prev_spec = state.spec;
  }
  state.tasks = new_tasks;
  state.reconfig_pending = true;
  cluster_.scale_replicas(dag_.component(op).name, new_tasks);
}

void Engine::set_pod_spec(dag::NodeId op, cluster::PodSpec spec) {
  require_operator(op, "set_pod_spec");
  OperatorState& state = ops_[op];
  if (state.spec == spec) return;
  if (!state.reconfig_pending) {
    state.prev_tasks = state.tasks;
    state.prev_spec = state.spec;
  }
  state.spec = spec;
  state.reconfig_pending = true;
  cluster_.resize_pods(dag_.component(op).name, spec);
}

void Engine::inject_pod_failure(dag::NodeId op) {
  require_operator(op, "inject_pod_failure");
  OperatorState& state = ops_[op];
  state.crashed_this_slot = true;  // restart churn taints the slot either way
  if (state.tasks <= 1) return;    // last pod: Kubernetes would reschedule
  state.tasks -= 1;
  // No reconfig_pending: crashes do not checkpoint.
  cluster_.scale_replicas(dag_.component(op).name, state.tasks);
}

void Engine::set_capacity_degradation(dag::NodeId op, double factor) {
  require_operator(op, "set_capacity_degradation");
  DRAGSTER_REQUIRE(factor > 0.0 && factor <= 1.0, "degradation factor must be in (0, 1]");
  ops_[op].degradation = factor;
}

void Engine::arm_checkpoint_failure(int retries) {
  DRAGSTER_REQUIRE(retries >= 1, "checkpoint failure needs at least one failed attempt");
  armed_checkpoint_retries_ = retries;
}

void Engine::set_metric_dropout(dag::NodeId op, bool active) {
  require_operator(op, "set_metric_dropout");
  ops_[op].metrics_down = active;
}

const SlotReport& Engine::last_report() const {
  DRAGSTER_REQUIRE(report_.has_value(), "no slot has run yet");
  return *report_;
}

int Engine::tasks(dag::NodeId op) const {
  require_operator(op, "tasks()");
  return ops_[op].tasks;
}

cluster::PodSpec Engine::pod_spec(dag::NodeId op) const {
  require_operator(op, "pod_spec()");
  return ops_[op].spec;
}

double Engine::true_capacity(dag::NodeId op, int task_count,
                             std::optional<cluster::PodSpec> spec) const {
  require_operator(op, "true_capacity()");
  return ops_[op].model->capacity(task_count, spec.value_or(ops_[op].spec));
}

double Engine::offered_rate(dag::NodeId source, double at_seconds) const {
  DRAGSTER_REQUIRE(source < schedules_.size() && schedules_[source] != nullptr,
                   "offered_rate() on a non-source node");
  return schedules_[source]->rate_at(at_seconds);
}

const CapacityModel& Engine::capacity_model(dag::NodeId op) const {
  require_operator(op, "capacity_model()");
  return *ops_[op].model;
}

const SlotReport& Engine::run_slot() {
  ++slot_index_;
  common::Rng slot_rng = root_rng_.substream("slot", slot_index_);

  // The previous report's buffers are reused; every field starts afresh.
  SlotReport& report = report_ ? *report_ : report_.emplace();
  {
    std::vector<OperatorMetrics> per_node = std::move(report.per_node);
    std::vector<double> source_rate = std::move(report.source_rate);
    std::vector<double> edge_rate = std::move(report.edge_rate);
    std::vector<std::pair<double, double>> series = std::move(report.throughput_series);
    report = SlotReport{};
    report.per_node = std::move(per_node);
    report.source_rate = std::move(source_rate);
    report.edge_rate = std::move(edge_rate);
    report.throughput_series = std::move(series);
  }
  report.slot_index = slot_index_ - 1;
  report.start_seconds = now_s_;
  report.duration_s = options_.slot_duration_s;
  report.per_node.assign(dag_.node_count(), OperatorMetrics{});
  report.source_rate.assign(dag_.node_count(), 0.0);
  report.edge_rate.assign(dag_.edge_count(), 0.0);
  report.throughput_series.clear();
  edge_sum_.assign(dag_.edge_count(), 0.0);
  processing_steps_ = 0;
  report.cost_rate_per_hour = cluster_.cost_rate_per_hour();

  // Resample cloud noise and decide whether a checkpoint pause is due.
  bool reconfigured = false;
  for (dag::NodeId id : dag_.operators()) {
    OperatorState& state = ops_[id];
    common::Rng cloud = slot_rng.substream("cloud", id);
    state.slot_cloud_factor = std::clamp(cloud.normal(1.0, options_.capacity_noise), 0.7, 1.3);
    reconfigured = reconfigured || state.reconfig_pending;
  }
  report.pause_s = reconfigured ? options_.checkpoint_pause_s : 0.0;

  // Armed checkpoint failure: each failed attempt repeats the stop-and-resume
  // pause with exponential backoff; past the abort cap the reconfiguration is
  // rolled back (Flink declines the new execution graph) and the time spent
  // retrying is still lost.
  if (reconfigured && armed_checkpoint_retries_ > 0) {
    report.checkpoint_retries = armed_checkpoint_retries_;
    double extended = 0.0;
    for (int k = 0; k <= armed_checkpoint_retries_; ++k)
      extended += options_.checkpoint_pause_s * std::pow(kCheckpointBackoff, k);
    const double abort_cap = kCheckpointAbortFraction * options_.slot_duration_s;
    if (extended > abort_cap) {
      report.checkpoint_aborted = true;
      for (dag::NodeId id : dag_.operators()) {
        OperatorState& state = ops_[id];
        if (!state.reconfig_pending) continue;
        state.tasks = state.prev_tasks;
        state.spec = state.prev_spec;
        cluster_.scale_replicas(dag_.component(id).name, state.tasks);
        cluster_.resize_pods(dag_.component(id).name, state.spec);
      }
      report.cost_rate_per_hour = cluster_.cost_rate_per_hour();
      report.pause_s = abort_cap;
    } else {
      report.pause_s = extended;
    }
    armed_checkpoint_retries_ = 0;
  }

  accum_.assign(dag_.node_count(), StepAccum{});
  for (dag::NodeId id : dag_.operators()) {
    OperatorState& state = ops_[id];
    state.reconfig_pending = false;
    // The configuration is final for this slot: its capacity is fixed.
    state.slot_capacity = state.model->capacity(state.tasks, state.spec) * state.degradation *
                          state.slot_cloud_factor;
    double total = 0.0;
    for (double b : state.backlog) total += b;
    report.per_node[id].backlog_start = total;
    report.per_node[id].tasks = state.tasks;
  }

  const double dt = options_.micro_step_s;
  const auto total_steps = static_cast<std::size_t>(options_.slot_duration_s / dt + 0.5);
  const auto pause_steps = static_cast<std::size_t>(report.pause_s / dt + 0.5);

  common::Rng step_rng = slot_rng.substream("steps");

  double sample_tuples = 0.0;
  double sample_start = now_s_;
  double slot_tuples = 0.0;

  for (std::size_t step = 0; step < total_steps; ++step) {
    if (step < pause_steps) {
      // Checkpoint: offered tuples park upstream (e.g. in Kafka); nothing is
      // processed anywhere.
      for (dag::NodeId id : dag_.sources()) {
        const double rate = schedules_[id]->rate_at(now_s_);
        source_pending_[id] += rate * dt;
        accum_[id].offered_sum += rate;
        accum_[id].steps += 1;
      }
      now_s_ += dt;
      continue;
    }

    const double before = total_tuples_;
    micro_step(dt, step_rng);
    const double processed = total_tuples_ - before;
    slot_tuples += processed;
    sample_tuples += processed;

    if (now_s_ - sample_start >= options_.sample_interval_s - 1e-9) {
      report.throughput_series.emplace_back(now_s_, sample_tuples / (now_s_ - sample_start));
      sample_tuples = 0.0;
      sample_start = now_s_;
    }
  }
  if (now_s_ - sample_start > 1e-9)
    report.throughput_series.emplace_back(now_s_, sample_tuples / (now_s_ - sample_start));

  // Fold accumulators into per-node averages.
  for (dag::NodeId id = 0; id < dag_.node_count(); ++id) {
    const StepAccum& a = accum_[id];
    OperatorMetrics& m = report.per_node[id];
    if (a.steps == 0) continue;
    const double steps = static_cast<double>(a.steps);
    m.in_rate = a.in_sum / steps;
    m.out_rate = a.out_sum / steps;
    m.demand_rate = a.demand_sum / steps;
    m.arrival_demand_rate = a.arrival_demand_sum / steps;
    m.cpu_utilization = a.util_obs_sum / steps;
    m.observed_capacity = a.cap_obs_count > 0
                              ? a.cap_obs_sum / static_cast<double>(a.cap_obs_count)
                              : 0.0;
    m.dropped = a.dropped;
    // Little's law: average buffered tuples over the average drain rate.
    const double consumed_rate = a.consumed_sum / (steps * options_.micro_step_s);
    m.queue_delay_s = consumed_rate > 1e-9 ? (a.backlog_sum / steps) / consumed_rate : 0.0;
    if (schedules_[id] != nullptr) report.source_rate[id] = a.offered_sum / steps;
  }

  // End-to-end latency estimate: longest source->sink path of queue delays.
  for (const PlanNode& node : plan_) {
    double upstream = 0.0;
    for (std::size_t k = node.in_begin; k < node.in_end; ++k)
      upstream = std::max(upstream, path_delay_[dag_.edge(plan_in_[k]).from]);
    path_delay_[node.id] = upstream + report.per_node[node.id].queue_delay_s;
  }
  report.latency_estimate_s = path_delay_[dag_.sink()];

  for (dag::NodeId id : dag_.operators()) {
    OperatorState& state = ops_[id];
    double total = 0.0;
    for (double b : state.backlog) total += b;
    OperatorMetrics& m = report.per_node[id];
    m.backlog_end = total;
    // Backpressure = the operator cannot keep up with its *incoming* rate.
    // Historical backlog being drained does not re-raise the flag (mirrors
    // Flink: backpressure clears once intake keeps up, even while buffers
    // empty at full speed).
    const double avg_overload =
        accum_[id].steps > 0 ? accum_[id].overload_sum / static_cast<double>(accum_[id].steps)
                             : 0.0;
    m.backpressured = avg_overload > kBackpressureUtil;

    // Metric outage: no fresh scrape is taken; controllers see the last
    // scraped (stale) CPU reading and no capacity estimate.
    if (state.metrics_down) {
      m.metrics_stale = true;
      m.cpu_utilization = state.last_cpu;
      m.observed_capacity = 0.0;
    } else {
      state.last_cpu = m.cpu_utilization;
    }
    m.fault_tainted = state.crashed_this_slot || state.degradation < 1.0 || state.metrics_down;
    state.crashed_this_slot = false;
  }

  if (processing_steps_ > 0) {
    for (std::size_t e = 0; e < dag_.edge_count(); ++e)
      report.edge_rate[e] =
          edge_sum_[e] / (static_cast<double>(processing_steps_) * options_.micro_step_s);
  }

  report.tuples_processed = slot_tuples;
  report.throughput_rate = slot_tuples / options_.slot_duration_s;

  const double cost_before = cluster_.accrued_cost();
  cluster_.accrue(options_.slot_duration_s);
  report.cost = cluster_.accrued_cost() - cost_before;

  if (obs_ != nullptr) publish_observability();
  return report;
}

void Engine::publish_observability() const {
  const SlotReport& r = *report_;
  obs_->counter("engine_slots_total", "Simulation slots completed").inc();
  obs_->counter("engine_tuples_total", "Tuples delivered to the sink").inc(r.tuples_processed);
  obs_->gauge("engine_throughput_rate", "Sink throughput over the last slot (tuples/s)")
      .set(r.throughput_rate);
  obs::TraceSink* sink = obs_->trace();
  if (sink != nullptr) {
    obs::Event(*sink, "engine_slot", static_cast<std::uint64_t>(r.slot_index))
        .field("tuples", r.tuples_processed)
        .field("throughput", r.throughput_rate)
        .field("cost", r.cost)
        .field("pause_s", r.pause_s)
        .field("latency_s", r.latency_estimate_s)
        .field("checkpoint_retries", r.checkpoint_retries)
        .field("checkpoint_aborted", r.checkpoint_aborted);
  }
  for (dag::NodeId id : dag_.operators()) {
    const OperatorMetrics& m = r.per_node[id];
    const std::string& name = dag_.component(id).name;
    obs_->gauge("engine_backlog", "Buffered tuples at slot end", {{"op", name}})
        .set(m.backlog_end);
    obs_->gauge("engine_tasks", "Deployed parallelism", {{"op", name}})
        .set(static_cast<double>(m.tasks));
    if (sink == nullptr) continue;
    obs::Event(*sink, "engine_op", static_cast<std::uint64_t>(r.slot_index))
        .field("op", name)
        .field("tasks", m.tasks)
        .field("backlog", m.backlog_end)
        .field("in_rate", m.in_rate)
        .field("out_rate", m.out_rate)
        .field("capacity", m.observed_capacity)
        .field("dropped", m.dropped)
        .field("tainted", m.fault_tainted)
        .field("stale", m.metrics_stale)
        .field("backpressured", m.backpressured);
  }
}

void Engine::micro_step(double dt, common::Rng& step_rng) {
  // Every edge is written by its upstream node before its downstream node
  // reads it (plan_ is topological), so edge_rate_ needs no reset.
  double* const edge_rate = edge_rate_.data();

  for (const PlanNode& node : plan_) {
    const dag::NodeId id = node.id;
    StepAccum& acc = accum_[id];
    const std::span<const std::size_t> in_edges(plan_in_.data() + node.in_begin,
                                                node.in_end - node.in_begin);
    const std::span<const PlanEdge> out_edges(plan_out_.data() + node.out_begin,
                                              node.out_end - node.out_begin);

    if (node.kind == dag::ComponentKind::kSource) {
      const double base_rate = schedules_[id]->rate_at(now_s_);
      const double noisy_rate =
          std::max(0.0, base_rate * (1.0 + step_rng.normal(0.0, options_.source_noise)));
      const double amount = noisy_rate * dt + source_pending_[id];
      source_pending_[id] = 0.0;
      const double in_rate = amount / dt;
      double emitted = 0.0;
      for (const PlanEdge& edge : out_edges) {
        const double out = edge.fn->eval(std::span<const double>(&in_rate, 1));
        edge_rate[edge.edge] = out * dt;
        emitted += out;
      }
      acc.offered_sum += noisy_rate;
      acc.in_sum += noisy_rate;
      acc.out_sum += emitted;
      acc.steps += 1;
      continue;
    }

    if (node.kind == dag::ComponentKind::kSink) {
      double inflow = 0.0;
      for (std::size_t eidx : in_edges) inflow += edge_rate[eidx];
      total_tuples_ += inflow;
      acc.in_sum += inflow / dt;
      acc.steps += 1;
      continue;
    }

    // Operator: offer backlog + arrivals, truncate by hidden capacity.
    OperatorState& state = ops_[id];
    const std::size_t n = in_edges.size();
    double arrivals = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const double arrived = edge_rate[in_edges[k]];
      avail_[k] = state.backlog[k] + arrived;
      inputs_[k] = avail_[k] / dt;
      // Demand from fresh arrivals only — the "can it keep up with the
      // incoming rate" signal backpressure detection uses.
      fresh_[k] = arrived / dt;
      arrivals += arrived;
    }
    const std::span<const double> inputs(inputs_.data(), n);
    const std::span<const double> fresh(fresh_.data(), n);

    const double y_now =
        std::max(1.0, state.slot_capacity * (1.0 + step_rng.normal(0.0, options_.step_noise)));

    double demand_total = 0.0;
    double arrival_demand = 0.0;
    double out_total = 0.0;
    for (const PlanEdge& edge : out_edges) {
      const double d = edge.fn->eval(inputs);
      demand_total += d;
      arrival_demand += edge.fn->eval(fresh);
      const double out = std::min(edge.alpha * y_now, d);
      edge_rate[edge.edge] = out * dt;
      out_total += out;
    }

    const double rho = demand_total > 1e-12 ? std::min(1.0, out_total / demand_total) : 0.0;
    double backlog_total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      double remaining = avail_[k] * (1.0 - rho);
      if (remaining > options_.buffer_limit) {
        acc.dropped += remaining - options_.buffer_limit;
        remaining = options_.buffer_limit;
      }
      state.backlog[k] = remaining;
      backlog_total += remaining;
      acc.consumed_sum += avail_[k] * rho;
    }
    acc.backlog_sum += backlog_total;

    const double util_true = std::min(1.0, demand_total / y_now);
    const double util_obs = std::clamp(
        util_true * (1.0 + step_rng.normal(0.0, options_.cpu_read_noise)), 0.005, 1.0);

    acc.in_sum += arrivals / dt;
    acc.out_sum += out_total;
    acc.demand_sum += demand_total;
    acc.arrival_demand_sum += arrival_demand;
    acc.overload_sum += arrival_demand / y_now;
    acc.util_obs_sum += util_obs;
    // eq. (8): the capacity estimate is only informative under load.
    if (demand_total > 0.05 * y_now) {
      acc.cap_obs_sum += out_total / util_obs;
      acc.cap_obs_count += 1;
    }
    acc.steps += 1;
  }

  for (std::size_t e = 0; e < edge_rate_.size(); ++e) edge_sum_[e] += edge_rate[e];
  ++processing_steps_;
  now_s_ += dt;
}

}  // namespace dragster::streamsim
