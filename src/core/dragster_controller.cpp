#include "core/dragster_controller.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <span>

#include "cluster/pricing.hpp"
#include "common/error.hpp"
#include "obs/registry.hpp"

namespace dragster::core {
namespace {

constexpr double kEtaRelative = 0.30;          ///< OGD step relative to the capacity scale
constexpr double kOgdRegularization = 0.30;    ///< epsilon for the OGD variant (compute_targets)
constexpr double kOgdLambdaFloor = 0.50;       ///< minimum effective multiplier for OGD
constexpr double kGpNoiseRel = 0.08;           ///< observation noise std / capacity scale
constexpr double kGpSignalStd = 1.5;           ///< prior std on the normalized capacity
constexpr double kBottleneckTolerance = 0.05;  ///< relative target gap that triggers adjustment
/// Config selection tracks target * headroom and penalizes candidates whose
/// posterior mean falls short of the target more than ones that overshoot:
/// the constraint l_i <= 0 is one-sided (capacity must *cover* demand), so
/// between two equally distant configurations the covering one is safer.
constexpr double kTargetHeadroom = 1.10;
constexpr double kUnderProvisionPenalty = 10.0;
/// Vertical scaling: the cpu grid and the memory each core brings.
constexpr std::array<double, 3> kCpuCandidates{0.5, 1.0, 2.0};
constexpr double kMemoryPerCoreGb = 2.0;

}  // namespace

DragsterController::DragsterController(DragsterOptions options) : options_(options) {
  DRAGSTER_REQUIRE(options_.delta > 1.0, "paper requires delta > 1");
  DRAGSTER_REQUIRE(options_.gamma0 > 0.0, "gamma0 must be positive");
}

std::string DragsterController::name() const {
  return options_.method == PrimalMethod::kSaddlePoint ? "Dragster(saddle)" : "Dragster(ogd)";
}

void DragsterController::initialize(const streamsim::JobMonitor& monitor,
                                    streamsim::ScalingActuator& actuator) {
  (void)actuator;  // the paper launches with the given x_i(1); we keep it
  dag_ = std::make_unique<dag::StreamDag>(monitor.dag());
  flow_ = std::make_unique<dag::FlowSolver>(*dag_);
  dual_ = std::make_unique<online::DualState>(dag_->node_count(), options_.gamma0);
  if (options_.learn_throughput) {
    learner_ = std::make_unique<ThroughputLearner>(*dag_);
    // Start from a deliberately wrong prior: unit selectivity everywhere.
    for (std::size_t e = 0; e < dag_->edge_count(); ++e) {
      auto params = dag_->edge_mutable(e).fn.params();
      if (dag_->component(dag_->edge(e).from).kind == dag::ComponentKind::kSource) continue;
      for (double& p : params) p = 1.0;
    }
  }
  const std::size_t n = dag_->node_count();
  y_est_.assign(n, 0.0);
  y_target_.assign(n, 0.0);
  demand_est_.assign(n, 0.0);
  commanded_tasks_.clear();
  commanded_spec_.clear();
  for (dag::NodeId id : dag_->operators()) {
    commanded_tasks_[id] = monitor.tasks(id);
    commanded_spec_[id] = monitor.pod_spec(id);
  }
  slot_ = 0;
}

int DragsterController::commanded_tasks(dag::NodeId op) const {
  const auto it = commanded_tasks_.find(op);
  DRAGSTER_REQUIRE(it != commanded_tasks_.end(), "commanded_tasks() on a non-operator node");
  return it->second;
}

const std::vector<double>& DragsterController::lambda() const {
  DRAGSTER_REQUIRE(dual_ != nullptr, "controller not initialized");
  return dual_->lambda();
}

double DragsterController::budget_pressure() const {
  if (dual_ == nullptr) return 0.0;  // pre-initialize: no constraint observed yet
  const std::vector<double>& lambda = dual_->lambda();
  if (lambda.empty()) return 0.0;
  double sum = 0.0;
  for (double value : lambda) sum += value;
  return sum / static_cast<double>(lambda.size());
}

const gp::GaussianProcess* DragsterController::gp_for(dag::NodeId op) const {
  const auto it = models_.find(op);
  if (it == models_.end() || !it->second.gp.has_value()) return nullptr;
  return &*it->second.gp;
}

gp::GaussianProcess DragsterController::make_operator_gp() const {
  std::vector<double> lengthscales{options_.gp_lengthscale};
  if (options_.enable_vertical) lengthscales.push_back(0.75);  // cores
  const double signal = kGpSignalStd * kGpSignalStd;
  const gp::Kernel kernel = options_.use_matern_kernel
                                ? gp::Kernel(gp::Matern52Kernel(signal, lengthscales))
                                : gp::Kernel(gp::SquaredExponentialKernel(signal, lengthscales));
  return gp::GaussianProcess(kernel, kGpNoiseRel * kGpNoiseRel, /*prior_mean=*/1.0);
}

void DragsterController::observe(const streamsim::JobMonitor& monitor) {
  const streamsim::SlotReport& report = monitor.last_report();
  const std::size_t n = dag_->node_count();

  // Per-operator GP update + posterior refresh.
  for (dag::NodeId id : dag_->operators()) {
    const streamsim::OperatorMetrics& m = report.per_node[id];
    OperatorModel& model = models_[id];

    // GP input: (tasks) for horizontal-only, (tasks, cpu) with VPA enabled.
    std::vector<double> deployed{static_cast<double>(m.tasks)};
    if (options_.enable_vertical) deployed.push_back(monitor.pod_spec(id).cpu_cores);

    // Observations taken while a fault or metric outage was active are
    // poisoned: the capacity sample reflects the fault, not the
    // configuration, and one such point skews the posterior the acquisition
    // trusts.  Reject them outright (the engine flags them the way a job
    // manager reports restarting tasks / missing metrics).
    const bool trustworthy = !m.fault_tainted && !m.metrics_stale;

    if (trustworthy && m.observed_capacity > 0.0) {
      if (!model.gp.has_value()) {
        // First estimate fixes the normalization scale and the GP prior.
        model.scale = m.observed_capacity;
        model.gp.emplace(make_operator_gp());
      }
      model.gp->add_observation(deployed, m.observed_capacity / model.scale);
    }

    // Capacity estimate: GP posterior at the deployed configuration
    // (smoother than the raw per-slot sample), else the raw sample.  During
    // a fault window the posterior still reflects the healthy surface, so
    // the targets keep tracking what the configuration *should* deliver.
    if (model.gp.has_value()) {
      y_est_[id] = model.gp->predict(deployed).mean * model.scale;
    } else if (trustworthy && m.observed_capacity > 0.0) {
      y_est_[id] = m.observed_capacity;
    } else {
      y_est_[id] = std::max(y_est_[id], 1.0);
    }
  }

  // Theorem 2 mode: refine the throughput-function parameters from the
  // observed per-edge flows (excluding capacity-truncated operators).
  if (learner_) {
    // span<const bool> cannot view std::vector<bool>; use a plain buffer.
    std::unique_ptr<bool[]> saturated(new bool[n]());
    for (dag::NodeId id = 0; id < n; ++id) {
      if (dag_->component(id).kind != dag::ComponentKind::kOperator) continue;
      // Fault-tainted slots are excluded the same way capacity-truncated
      // ones are: their edge flows say nothing about h.
      const streamsim::OperatorMetrics& m = report.per_node[id];
      saturated[id] = m.backpressured || m.fault_tainted || m.metrics_stale;
    }
    learner_->observe(*dag_, report.edge_rate, std::span<const bool>(saturated.get(), n));
    learner_->apply(*dag_);
  }

  // Demand estimate per operator: known h applied to the observed received
  // rates, plus buffered backlog that must drain (the long-term constraint's
  // purpose).
  for (dag::NodeId id = 0; id < n; ++id) {
    demand_est_[id] = 0.0;
    if (dag_->component(id).kind != dag::ComponentKind::kOperator) continue;
    const auto& ins = dag_->in_edges(id);
    std::vector<double> inputs(ins.size());
    for (std::size_t k = 0; k < ins.size(); ++k) inputs[k] = report.edge_rate[ins[k]];
    for (std::size_t eidx : dag_->out_edges(id))
      demand_est_[id] += dag_->edge(eidx).fn.eval(inputs);
    if (options_.include_backlog_in_demand)
      demand_est_[id] += report.per_node[id].backlog_end / report.duration_s;
  }
}

std::vector<double> DragsterController::compute_targets(const streamsim::JobMonitor& monitor) {
  const streamsim::SlotReport& report = monitor.last_report();
  const std::size_t n = dag_->node_count();

  // Dual update with the observed soft-constraint values (eq. 11/15),
  // normalized per operator so lambda stays dimensionless and commensurate
  // with the gradient of f (otherwise gamma would need units of
  // 1/capacity and the Lagrangian term would dwarf the objective).
  std::vector<double> constraints(n, 0.0);
  for (dag::NodeId id = 0; id < n; ++id) {
    if (dag_->component(id).kind != dag::ComponentKind::kOperator) continue;
    const double op_scale = std::max({y_est_[id], demand_est_[id], 1.0});
    constraints[id] = (demand_est_[id] - y_est_[id]) / op_scale;
  }
  dual_->update(constraints);

  // Planning source rates: what we observed last slot.  Backlogged tuples
  // enter through the constraint, not the rates.
  std::vector<double> rates(n, 0.0);
  for (dag::NodeId id : dag_->sources()) rates[id] = report.source_rate[id];

  double scale = 1000.0;
  for (dag::NodeId id = 0; id < n; ++id)
    scale = std::max({scale, y_est_[id], demand_est_[id]});

  // The constraint uses last slot's observed demand (plus backlog to drain,
  // already folded into demand_est_) as a constant — paper eq. (11).
  if (options_.method == PrimalMethod::kSaddlePoint) {
    online::SaddlePointOptions sp;
    sp.y_min = 0.0;
    sp.y_max = 3.0 * scale;
    online::SaddlePointSolver solver(sp);
    return solver.solve(*flow_, rates, dual_->lambda(), y_est_, demand_est_);
  }

  online::OgdOptions og;
  og.eta = kEtaRelative * scale;
  og.y_min = 0.0;
  og.y_max = 3.0 * scale;
  // OGD sees the constraint only through the per-step gradient, so its
  // scale-down pressure is eta*epsilon per slot; a larger epsilon (and a
  // floor above it) keeps de-provisioning at a useful pace while staying
  // below the O(1) gradient of f.
  og.capacity_regularization = kOgdRegularization;
  online::OgdSolver solver(og);
  std::vector<double> floored = dual_->lambda();
  // Per-operator steps: capacities differ by orders of magnitude across the
  // DAG (e.g. deserializer vs windowed counter), so each operator moves
  // relative to its own scale.
  std::vector<double> etas(n, og.eta);
  for (dag::NodeId id = 0; id < n; ++id) {
    if (dag_->component(id).kind != dag::ComponentKind::kOperator) continue;
    floored[id] = std::max(floored[id], kOgdLambdaFloor);
    etas[id] = kEtaRelative * std::max({y_est_[id], demand_est_[id], 10.0});
  }
  // OGD is stateful: step from the previous target (first slot: estimate).
  std::vector<double> y_prev = y_target_;
  bool have_prev = false;
  for (double v : y_prev)
    if (v > 0.0) have_prev = true;
  if (!have_prev) y_prev = y_est_;
  return solver.step(*flow_, rates, floored, y_prev, demand_est_, etas);
}

void DragsterController::select_configs(const streamsim::JobMonitor& monitor,
                                        streamsim::ScalingActuator& actuator) {
  const std::size_t n = dag_->node_count();
  const int max_tasks = monitor.max_tasks();

  decision_details_.clear();
  bottlenecks_.clear();
  for (dag::NodeId id = 0; id < n; ++id) {
    if (dag_->component(id).kind != dag::ComponentKind::kOperator) continue;
    const double gap = std::abs(y_target_[id] - y_est_[id]);
    if (gap > kBottleneckTolerance * std::max(y_est_[id], 1.0))
      bottlenecks_.push_back(id);
  }

  // |X| in beta_t is the size of the joint search space (paper Sec. 6.5:
  // one million candidates for six operators).
  const std::size_t num_ops = dag_->operators().size();
  double joint_candidates = 1.0;
  for (std::size_t i = 0; i < num_ops; ++i) joint_candidates *= static_cast<double>(max_tasks);
  const auto beta_candidates =
      static_cast<std::size_t>(std::min(joint_candidates, 1e12));
  const double beta =
      options_.beta_scale * gp::ucb_beta(beta_candidates, slot_, options_.delta);

  // Current planned allocation and spend (for budget feasibility; with
  // heterogeneous pods the budget is enforced in dollars, not pod counts).
  std::map<dag::NodeId, int> planned;
  std::map<dag::NodeId, cluster::PodSpec> planned_spec;
  double planned_cost = 0.0;
  for (dag::NodeId id : dag_->operators()) {
    planned[id] = monitor.tasks(id);
    planned_spec[id] = monitor.pod_spec(id);
    planned_cost += planned[id] * cluster::pod_price_per_hour(planned_spec[id]);
  }

  std::vector<double> cpu_options{0.0};  // sentinel: keep the current spec
  if (options_.enable_vertical) cpu_options.assign(kCpuCandidates.begin(), kCpuCandidates.end());

  for (dag::NodeId id : dag_->topo_order()) {
    if (dag_->component(id).kind != dag::ComponentKind::kOperator) continue;
    if (std::find(bottlenecks_.begin(), bottlenecks_.end(), id) == bottlenecks_.end()) continue;
    OperatorModel& model = models_[id];
    if (!model.gp.has_value()) continue;  // nothing observed yet

    const double target = y_target_[id] * kTargetHeadroom / model.scale;

    const double own_cost = planned[id] * cluster::pod_price_per_hour(planned_spec[id]);
    const double others_cost = planned_cost - own_cost;

    int new_tasks = planned[id];
    cluster::PodSpec new_spec = planned_spec[id];
    double best_score = -std::numeric_limits<double>::infinity();
    gp::Posterior best_post;
    bool any_feasible = false;
    bool projection_active = false;

    // Enumerate feasible candidates (cpu outer, tasks inner), score them
    // with one batched posterior, then fold with the strict first-max rule.
    struct Candidate {
      cluster::PodSpec spec;
      int tasks = 0;
    };
    const std::size_t gp_dim = options_.enable_vertical ? 2 : 1;
    std::vector<Candidate> cands;
    std::vector<double> xs;
    cands.reserve(cpu_options.size() * static_cast<std::size_t>(max_tasks));
    xs.reserve(cands.capacity() * gp_dim);
    for (double cpu : cpu_options) {
      const cluster::PodSpec spec =
          options_.enable_vertical
              ? cluster::PodSpec{cpu, cpu * kMemoryPerCoreGb}
              : planned_spec[id];
      const double pod_price = cluster::pod_price_per_hour(spec);
      for (int tasks = 1; tasks <= max_tasks; ++tasks) {
        if (options_.budget.limited() &&
            others_cost + tasks * pod_price > options_.budget.dollars_per_hour() + 1e-9) {
          projection_active = true;  // Pi_X pruned this candidate
          continue;
        }
        any_feasible = true;
        cands.push_back({spec, tasks});
        xs.push_back(static_cast<double>(tasks));
        if (options_.enable_vertical) xs.push_back(spec.cpu_cores);
      }
    }
    std::vector<gp::Posterior> posts(cands.size());
    model.gp->predict_batch(xs, cands.size(), posts);
    for (std::size_t c = 0; c < cands.size(); ++c) {
      const gp::Posterior post = posts[c];
      // Asymmetric extended UCB (eq. 18 + one-sided constraint weighting).
      const double gap = post.mean - target;
      const double penalty = gap < 0.0 ? kUnderProvisionPenalty * -gap : gap;
      const double score = -penalty + beta * post.variance;
      if (score > best_score) {
        best_score = score;
        best_post = post;
        new_tasks = cands[c].tasks;
        new_spec = cands[c].spec;
      }
    }
    if (obs_ != nullptr && any_feasible)
      decision_details_[id] = {best_post.mean, best_post.variance, best_score, new_tasks,
                               projection_active};
    if (!any_feasible) continue;  // budget leaves no room
    if (new_tasks != planned[id] || !(new_spec == planned_spec[id])) {
      if (!(new_spec == planned_spec[id])) actuator.set_pod_spec(id, new_spec);
      if (new_tasks != planned[id]) actuator.set_tasks(id, new_tasks);
      planned_cost += new_tasks * cluster::pod_price_per_hour(new_spec) - own_cost;
      planned[id] = new_tasks;
      planned_spec[id] = new_spec;
    }
    commanded_tasks_[id] = new_tasks;
    commanded_spec_[id] = new_spec;
  }
}

void DragsterController::repair_lost_pods(const streamsim::JobMonitor& monitor,
                                          streamsim::ScalingActuator& actuator) {
  // A deployment running below what we last commanded means pods died (or a
  // checkpoint aborted a reconfiguration) — the capacity drop is damage, not
  // information.  Re-issue the last target instead of letting the slot-two
  // loop chase the crashed configuration; the tainted observation was
  // already rejected, so the GP posterior is unaffected.
  //
  // A rescale still in flight is not damage: the mismatch is the actuation
  // layer mid-apply, and re-issuing would either spam duplicate commands or
  // — worse — land a stale target after a newer decision.  Routing repairs
  // through the actuator's epoch fence (in_flight + target dedupe) makes a
  // late-landing repair structurally unable to clobber a newer epoch.
  for (const auto& [id, tasks] : commanded_tasks_) {
    if (actuator.in_flight(id)) continue;
    if (monitor.tasks(id) != tasks) actuator.set_tasks(id, tasks);
    const cluster::PodSpec spec = commanded_spec_.at(id);
    if (!(monitor.pod_spec(id) == spec)) actuator.set_pod_spec(id, spec);
  }
}

void DragsterController::on_slot(const streamsim::JobMonitor& monitor,
                                 streamsim::ScalingActuator& actuator) {
  DRAGSTER_REQUIRE(dag_ != nullptr, "initialize() must run before on_slot()");
  ++slot_;
  observe(monitor);
  y_target_ = compute_targets(monitor);
  repair_lost_pods(monitor, actuator);
  select_configs(monitor, actuator);
  if (obs_ != nullptr) emit_decisions();
}

void DragsterController::emit_decisions() {
  obs_->counter("dragster_slots_total", "Controller decision slots completed").inc();
  obs::TraceSink* sink = obs_->trace();
  for (dag::NodeId id : dag_->operators()) {
    const std::string& op = dag_->component(id).name;
    obs_->gauge("dragster_lambda", "Dual multiplier per operator", {{"op", op}})
        .set(dual_->lambda()[id]);
    obs_->gauge("dragster_target", "Level-1 target capacity y_i(t)", {{"op", op}})
        .set(y_target_[id]);
    if (sink == nullptr) continue;
    const bool bottleneck =
        std::find(bottlenecks_.begin(), bottlenecks_.end(), id) != bottlenecks_.end();
    obs::Event event(*sink, "decision", static_cast<std::uint64_t>(slot_));
    event.field("op", op)
        .field("lambda", dual_->lambda()[id])
        .field("target", y_target_[id])
        .field("estimate", y_est_[id])
        .field("bottleneck", bottleneck);
    const auto it = decision_details_.find(id);
    if (it != decision_details_.end()) {
      event.field("mu", it->second.mu)
          .field("sigma2", it->second.sigma2)
          .field("acquisition", it->second.acquisition)
          .field("tasks", it->second.tasks)
          .field("projection_active", it->second.projection_active);
    }
  }
}

std::size_t DragsterController::non_finite_constraints() const {
  DRAGSTER_REQUIRE(dual_ != nullptr, "controller not initialized");
  return dual_->non_finite_observations();
}

void DragsterController::save_state(resilience::SnapshotWriter& writer) const {
  DRAGSTER_REQUIRE(dag_ != nullptr, "initialize() must run before save_state()");
  const std::vector<dag::NodeId>& ops = dag_->operators();

  writer.begin_section("controller");
  writer.field("method", static_cast<std::uint64_t>(options_.method));
  writer.field("learn_throughput", static_cast<std::uint64_t>(options_.learn_throughput ? 1 : 0));
  writer.field("enable_vertical", static_cast<std::uint64_t>(options_.enable_vertical ? 1 : 0));
  writer.field("slot", static_cast<std::uint64_t>(slot_));
  writer.field("node_count", static_cast<std::uint64_t>(dag_->node_count()));
  writer.field("y_est", std::span<const double>(y_est_));
  writer.field("y_target", std::span<const double>(y_target_));
  writer.field("demand_est", std::span<const double>(demand_est_));
  std::vector<int> bn(bottlenecks_.begin(), bottlenecks_.end());
  writer.field("bottlenecks", std::span<const int>(bn));
  std::vector<int> op_ids;
  std::vector<int> cmd_tasks;
  std::vector<double> cmd_cpu;
  std::vector<double> cmd_mem;
  for (dag::NodeId id : ops) {
    op_ids.push_back(static_cast<int>(id));
    cmd_tasks.push_back(commanded_tasks_.at(id));
    const cluster::PodSpec& spec = commanded_spec_.at(id);
    cmd_cpu.push_back(spec.cpu_cores);
    cmd_mem.push_back(spec.memory_gb);
  }
  writer.field("operators", std::span<const int>(op_ids));
  writer.field("commanded_tasks", std::span<const int>(cmd_tasks));
  writer.field("commanded_cpu", std::span<const double>(cmd_cpu));
  writer.field("commanded_mem", std::span<const double>(cmd_mem));

  writer.begin_section("budget");
  writer.field("dollars_per_hour", options_.budget.dollars_per_hour());
  writer.field("pod_price", options_.budget.pod_price());

  writer.begin_section("dual");
  dual_->save_state(writer);

  for (dag::NodeId id : ops) {
    writer.begin_section("op" + std::to_string(id));
    const auto it = models_.find(id);
    const bool has_gp = it != models_.end() && it->second.gp.has_value();
    writer.field("scale", it != models_.end() ? it->second.scale : 0.0);
    writer.field("gp_present", static_cast<std::uint64_t>(has_gp ? 1 : 0));
    if (has_gp) it->second.gp->save_state(writer);
  }

  if (learner_) {
    writer.begin_section("learner");
    learner_->save_state(writer);
  }
}

void DragsterController::load_state(resilience::SnapshotReader& reader) {
  DRAGSTER_REQUIRE(dag_ != nullptr, "initialize() must run before load_state()");
  const std::vector<dag::NodeId>& ops = dag_->operators();
  const std::size_t n = dag_->node_count();

  // Every section is read and checked into locals first; the controller
  // changes only once the whole snapshot has been accepted, so a rejected
  // one leaves it as it was.
  reader.enter_section("controller");
  DRAGSTER_REQUIRE(reader.get_uint("method") == static_cast<std::uint64_t>(options_.method),
                   "snapshot was taken with a different primal method");
  DRAGSTER_REQUIRE((reader.get_uint("learn_throughput") != 0) == options_.learn_throughput,
                   "snapshot was taken with a different learn_throughput mode");
  DRAGSTER_REQUIRE((reader.get_uint("enable_vertical") != 0) == options_.enable_vertical,
                   "snapshot was taken with a different vertical-scaling mode");
  DRAGSTER_REQUIRE(reader.get_uint("node_count") == n,
                   "snapshot was taken against a different application topology");
  const std::size_t slot = reader.get_uint("slot");
  std::vector<double> y_est = reader.get_doubles("y_est");
  std::vector<double> y_target = reader.get_doubles("y_target");
  std::vector<double> demand_est = reader.get_doubles("demand_est");
  DRAGSTER_REQUIRE(y_est.size() == n && y_target.size() == n && demand_est.size() == n,
                   "snapshot state vectors do not match the topology");
  std::vector<dag::NodeId> bottlenecks;
  for (int id : reader.get_ints("bottlenecks")) bottlenecks.push_back(static_cast<dag::NodeId>(id));
  const std::vector<int> op_ids = reader.get_ints("operators");
  const std::vector<int> cmd_tasks = reader.get_ints("commanded_tasks");
  const std::vector<double> cmd_cpu = reader.get_doubles("commanded_cpu");
  const std::vector<double> cmd_mem = reader.get_doubles("commanded_mem");
  DRAGSTER_REQUIRE(op_ids.size() == ops.size() && cmd_tasks.size() == ops.size() &&
                       cmd_cpu.size() == ops.size() && cmd_mem.size() == ops.size(),
                   "snapshot commanded configuration does not match the topology");
  std::map<dag::NodeId, int> commanded_tasks;
  std::map<dag::NodeId, cluster::PodSpec> commanded_spec;
  for (std::size_t k = 0; k < ops.size(); ++k) {
    DRAGSTER_REQUIRE(static_cast<dag::NodeId>(op_ids[k]) == ops[k],
                     "snapshot operator ids do not match the topology");
    commanded_tasks[ops[k]] = cmd_tasks[k];
    commanded_spec[ops[k]] = cluster::PodSpec{cmd_cpu[k], cmd_mem[k]};
  }

  reader.enter_section("budget");
  // The dollar cap may legitimately differ from the snapshot's: a fleet
  // arbiter can move the budget between snapshot and restore, and the live
  // options_ value (kept current by set_budget) stays authoritative.  Only
  // the pod price — fixed for the lifetime of a run — must agree.
  (void)reader.get_double("dollars_per_hour");
  DRAGSTER_REQUIRE(reader.get_double("pod_price") == options_.budget.pod_price(),
                   "snapshot was taken under a different pod price");

  reader.enter_section("dual");
  online::DualState dual = *dual_;
  dual.load_state(reader);

  std::map<dag::NodeId, OperatorModel> models;
  for (dag::NodeId id : ops) {
    reader.enter_section("op" + std::to_string(id));
    OperatorModel& model = models[id];
    model.scale = reader.get_double("scale");
    if (reader.get_uint("gp_present") != 0) {
      model.gp.emplace(make_operator_gp());
      model.gp->load_state(reader);
    }
  }

  std::optional<ThroughputLearner> learner;
  if (learner_) {
    reader.enter_section("learner");
    learner.emplace(*learner_);
    learner->load_state(reader);
  }

  slot_ = slot;
  y_est_ = std::move(y_est);
  y_target_ = std::move(y_target);
  demand_est_ = std::move(demand_est);
  bottlenecks_ = std::move(bottlenecks);
  commanded_tasks_ = std::move(commanded_tasks);
  commanded_spec_ = std::move(commanded_spec);
  *dual_ = std::move(dual);
  models_ = std::move(models);
  if (learner_) {
    *learner_ = std::move(*learner);
    // The planning DAG's edge parameters are a pure function of the learner
    // state; re-applying restores them exactly.
    learner_->apply(*dag_);
  }
}

}  // namespace dragster::core
