// The Dragster controller (paper Algorithm 2).
//
// Two-level loop, once per slot:
//   Level 1 — target capacities.  Build f_{t-1} from the known (or learned)
//   throughput functions and the observed source rates, update the dual
//   multipliers (eq. 15), and compute the target capacity vector y_t either
//   as argmax of the Lagrangian (online saddle point, eq. 14) or by one
//   online-gradient step (eq. 16).  Operators whose estimated capacity
//   deviates from the target are the bottleneck operators.
//   Level 2 — configurations.  Each operator has an independent GP over its
//   capacity-vs-tasks curve, fed with the eq. (8) estimates; the extended
//   target-tracking GP-UCB (eq. 18) picks the configuration whose capacity
//   tracks y_i(t), restricted to candidates that fit the budget (Pi_X).
//
// Observations are normalized per operator by the first capacity estimate so
// the acquisition's |mu - target| and beta*sigma^2 terms are commensurate —
// the standard practice the paper inherits from sklearn's normalize_y.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/controller.hpp"
#include "core/throughput_learner.hpp"
#include "dag/flow_solver.hpp"
#include "gp/acquisition.hpp"
#include "gp/gaussian_process.hpp"
#include "online/budget.hpp"
#include "online/dual_state.hpp"
#include "online/ogd.hpp"
#include "online/saddle_point.hpp"
#include "resilience/snapshot.hpp"

namespace dragster::core {

enum class PrimalMethod { kSaddlePoint, kOnlineGradient };

/// The knobs a run or an ablation varies; the controller's fixed tuning
/// (OGD step and floors, GP noise and signal, bottleneck tolerance, target
/// headroom, vertical-scaling grid) lives as named constants in the .cpp.
struct DragsterOptions {
  PrimalMethod method = PrimalMethod::kSaddlePoint;
  online::Budget budget = online::Budget::unlimited(0.10);
  double gamma0 = 1.0;             ///< dual step scale; effective gamma_t = gamma0/sqrt(t)
  double delta = 2.0;              ///< UCB confidence parameter (paper: delta > 1)
  double beta_scale = 1.0;         ///< multiplies beta_t (sensitivity ablation)
  double gp_lengthscale = 2.5;     ///< kernel lengthscale in task units
  /// The paper adopts the squared-exponential kernel (its Gamma_T bound is
  /// SE-specific); Matern-5/2 is offered for the kernel-choice ablation —
  /// rougher posteriors, same controller.
  bool use_matern_kernel = false;
  bool learn_throughput = false;   ///< Theorem 2 mode: fit h online instead of trusting it
  bool include_backlog_in_demand = true;  ///< drain buffers via the constraint
  /// Vertical scaling (VPA analogue): when enabled the per-operator GP input
  /// becomes (tasks, cpu_cores) and the acquisition searches the joint grid
  /// of tasks x cpu candidates, with memory proportional to the cores, so
  /// vertical moves also relieve memory-capped operators.  Budget
  /// feasibility switches from pod counts to dollars (heterogeneous pods).
  bool enable_vertical = false;
};

class DragsterController final : public Controller, public resilience::Snapshotable {
 public:
  explicit DragsterController(DragsterOptions options);

  [[nodiscard]] std::string name() const override;

  void initialize(const streamsim::JobMonitor& monitor,
                  streamsim::ScalingActuator& actuator) override;
  void on_slot(const streamsim::JobMonitor& monitor,
               streamsim::ScalingActuator& actuator) override;
  void set_observability(obs::Registry* registry) override { obs_ = registry; }

  /// Fleet seam: swap the budget in place.  The dual state, GP posteriors,
  /// and commanded configuration carry over; only the feasible set Pi_X that
  /// select_configs projects onto changes from the next slot on.
  void set_budget(const online::Budget& budget) override { options_.budget = budget; }
  /// Mean dual multiplier — the shadow price the fleet arbiter water-fills on.
  [[nodiscard]] double budget_pressure() const override;

  // -- crash recovery (src/resilience) ---------------------------------------
  /// Serializes every piece of learned state — per-operator GP observations
  /// and normalization scales, dual multipliers, throughput-learner weights,
  /// target/estimate vectors, and the last commanded configuration — into a
  /// versioned snapshot.  initialize() must have run.
  void save_state(resilience::SnapshotWriter& writer) const override;
  /// Inverse of save_state(): overwrites this controller's state in place.
  /// initialize() must have run first (against the same application) so the
  /// planning DAG and solver exist; GP posteriors are rebuilt by replaying
  /// the serialized observations, after which the controller's decisions are
  /// bit-identical to the snapshotted one's given identical inputs.  A
  /// snapshot that fails any check throws dragster::Error and leaves the
  /// controller unchanged.
  void load_state(resilience::SnapshotReader& reader) override;

  // -- introspection (tests and benches) -------------------------------------
  [[nodiscard]] const std::vector<double>& last_targets() const noexcept { return y_target_; }
  [[nodiscard]] const std::vector<double>& last_capacity_estimates() const noexcept {
    return y_est_;
  }
  [[nodiscard]] const std::vector<dag::NodeId>& last_bottlenecks() const noexcept {
    return bottlenecks_;
  }
  [[nodiscard]] const std::vector<double>& lambda() const;
  [[nodiscard]] const gp::GaussianProcess* gp_for(dag::NodeId op) const;
  [[nodiscard]] const dag::StreamDag& planning_dag() const { return *dag_; }
  /// Last configuration this controller issued (crash-repair reference).
  [[nodiscard]] int commanded_tasks(dag::NodeId op) const;
  /// Constraint entries the dual update skipped as NaN/inf — a supervisor
  /// health signal (see online::DualState::non_finite_observations()).
  [[nodiscard]] std::size_t non_finite_constraints() const;

 private:
  struct OperatorModel {
    std::optional<gp::GaussianProcess> gp;
    double scale = 0.0;  ///< normalization: first capacity estimate
  };

  /// Level-2 detail captured during select_configs for the decision trace:
  /// the GP posterior at the chosen configuration, the acquisition value,
  /// and whether the budget projection pruned any candidate.
  struct DecisionDetail {
    double mu = 0.0;
    double sigma2 = 0.0;
    double acquisition = 0.0;
    int tasks = 0;
    bool projection_active = false;
  };

  void emit_decisions();

  void observe(const streamsim::JobMonitor& monitor);
  [[nodiscard]] gp::GaussianProcess make_operator_gp() const;
  [[nodiscard]] std::vector<double> compute_targets(const streamsim::JobMonitor& monitor);
  void select_configs(const streamsim::JobMonitor& monitor,
                      streamsim::ScalingActuator& actuator);
  void repair_lost_pods(const streamsim::JobMonitor& monitor,
                        streamsim::ScalingActuator& actuator);

  DragsterOptions options_;
  std::unique_ptr<dag::StreamDag> dag_;          ///< planning copy (learner may mutate)
  // draglint:allow(DL009 derived solver over dag_, reconstructed rather than serialized)
  std::unique_ptr<dag::FlowSolver> flow_;
  std::unique_ptr<online::DualState> dual_;
  std::unique_ptr<ThroughputLearner> learner_;
  std::map<dag::NodeId, OperatorModel> models_;
  std::vector<double> y_est_;       ///< node-indexed capacity estimates
  std::vector<double> y_target_;    ///< node-indexed targets y_t
  std::vector<double> demand_est_;  ///< node-indexed demand estimates
  std::vector<dag::NodeId> bottlenecks_;
  /// Configuration as last issued through the actuator.  When the deployed
  /// state drifts from it (pod crash, aborted checkpoint) the controller
  /// re-issues it rather than re-planning around the damaged deployment.
  std::map<dag::NodeId, int> commanded_tasks_;
  std::map<dag::NodeId, cluster::PodSpec> commanded_spec_;
  // draglint:allow(DL009 per-slot trace scratch, cleared at the top of every step)
  std::map<dag::NodeId, DecisionDetail> decision_details_;  ///< per slot, traced
  std::size_t slot_ = 0;
  // draglint:allow(DL009 borrowed telemetry sink, re-attached after restore; not state)
  obs::Registry* obs_ = nullptr;  ///< borrowed; null = telemetry off
};

}  // namespace dragster::core
