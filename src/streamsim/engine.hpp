// Flink-analogue discrete-time stream-processing simulator.
//
// Time advances in 1-second micro-steps grouped into controller slots
// (default 600 s, the paper's 10-minute adjustment interval).  Within each
// step every operator:
//   1. offers its per-in-edge backlog plus fresh arrivals,
//   2. computes per-out-edge demand through h_{i,j},
//   3. emits min(alpha_{i,j} * y_i, demand)  (paper eq. 4) where y_i is the
//      *hidden* ground-truth capacity (USL surface x cloud noise),
//   4. retains unconsumed input in FIFO buffers (bounded; drops counted).
//
// Reconfigurations go through a checkpoint stop-and-resume pause (~30 s)
// during which nothing is processed — reproducing the paper's periodic
// throughput dips and its ~5 % processing-time tax.
//
// Controllers must interact only through the JobMonitor view (observations:
// Flink REST + Metrics Server analogue) and the ScalingActuator interface
// (actions: HPA/VPA analogue); the ground truth stays hidden behind them.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "dag/stream_dag.hpp"
#include "streamsim/capacity_model.hpp"
#include "streamsim/rate_schedule.hpp"

namespace dragster::obs {
class Registry;
}

namespace dragster::streamsim {

struct EngineOptions {
  double slot_duration_s = 600.0;     ///< controller adjustment interval
  double micro_step_s = 1.0;          ///< simulation granularity
  double checkpoint_pause_s = 30.0;   ///< stop-and-resume cost per reconfig
  double capacity_noise = 0.05;       ///< per-slot multiplicative cloud noise (sigma)
  double step_noise = 0.02;           ///< per-step capacity jitter (sigma)
  double cpu_read_noise = 0.02;       ///< relative noise on CPU readings
  double source_noise = 0.01;         ///< relative noise on offered rates
  double buffer_limit = 5e7;          ///< per-in-edge buffer bound (tuples)
  int max_tasks = 10;                 ///< per-operator parallelism bound
  double sample_interval_s = 60.0;    ///< figure-series sampling period
};

struct OperatorMetrics {
  double in_rate = 0.0;            ///< avg received tuples/s
  double out_rate = 0.0;           ///< avg emitted tuples/s
  double demand_rate = 0.0;        ///< avg unconstrained demand (sum_j h_{i,j}),
                                   ///< including buffered backlog on offer
  double arrival_demand_rate = 0.0;///< demand from fresh arrivals only
  double cpu_utilization = 0.0;    ///< observed (noisy) avg utilization
  double observed_capacity = 0.0;  ///< paper eq. 8 estimate c_i(t)
  double backlog_start = 0.0;
  double backlog_end = 0.0;
  double dropped = 0.0;            ///< tuples lost to the buffer bound
  /// Little's-law queueing delay estimate: avg buffered tuples / avg
  /// consumption rate.  The paper's dynamic-fit bound implies this stays
  /// bounded ("upper-bounded buffer size results in the low latency").
  double queue_delay_s = 0.0;
  int tasks = 1;
  bool backpressured = false;
  /// Set when an injected fault (crash, straggler, metric outage) was active
  /// on this operator during the slot — the analogue of the job manager
  /// reporting a restarting/unhealthy task.  Learners must not trust this
  /// slot's capacity estimate.
  bool fault_tainted = false;
  /// Set when no fresh scrape reached the engine for this operator this
  /// slot: cpu_utilization is the last scraped (stale) reading, 0 before the
  /// first scrape, and observed_capacity is absent (0).
  bool metrics_stale = false;
};

struct SlotReport {
  std::size_t slot_index = 0;
  double start_seconds = 0.0;
  double duration_s = 0.0;
  double pause_s = 0.0;                       ///< checkpoint time inside the slot
  double tuples_processed = 0.0;              ///< sink arrivals during the slot
  double throughput_rate = 0.0;               ///< tuples_processed / duration
  double cost = 0.0;                          ///< $ accrued this slot
  double cost_rate_per_hour = 0.0;            ///< spend rate during the slot
  /// End-to-end queueing-latency estimate: the maximum over source->sink
  /// paths of the summed per-operator queue delays (processing time itself
  /// is sub-second and ignored).
  double latency_estimate_s = 0.0;
  /// Failed checkpoint attempts before this slot's reconfiguration took (or
  /// was abandoned); 0 on a clean checkpoint.
  int checkpoint_retries = 0;
  /// True when the retry chain exceeded the abort cap: the reconfiguration
  /// was rolled back and the slot ran on the previous configuration.
  bool checkpoint_aborted = false;
  std::vector<OperatorMetrics> per_node;      ///< node-indexed
  std::vector<double> source_rate;            ///< node-indexed observed offered rates
  std::vector<double> edge_rate;              ///< edge-indexed avg realized flow (tuples/s)
  /// (time_seconds, tuples/s) sampled every sample_interval_s — the Fig. 6/7
  /// series.
  std::vector<std::pair<double, double>> throughput_series;
};

/// Action interface controllers use — the HPA analogue.
class ScalingActuator {
 public:
  virtual ~ScalingActuator() = default;
  virtual void set_tasks(dag::NodeId op, int tasks) = 0;
  virtual void set_pod_spec(dag::NodeId op, cluster::PodSpec spec) = 0;

  /// True while an earlier decision for `op` is still being actuated (pods
  /// pending, retries outstanding).  Instant actuators — the Engine itself —
  /// apply synchronously, so the default is false.  Controllers use this to
  /// tell "damage to repair" apart from "rescale still in progress".
  [[nodiscard]] virtual bool in_flight(dag::NodeId op) const {
    (void)op;
    return false;
  }
};

class Engine;
class JobMonitor;

/// A frozen copy of everything a JobMonitor exposes for one slot.  The
/// resilience layer journals one frame per slot so a restarted controller can
/// replay the observations it missed (the metrics-store analogue), and tests
/// can feed two controllers byte-identical inputs.  The topology is borrowed:
/// `dag` points at the producing engine's, which never changes while the
/// engine lives, so a frame must not outlive its engine.
struct MonitorFrame {
  const dag::StreamDag* dag = nullptr;
  SlotReport report;
  bool has_report = false;
  std::vector<int> tasks;               ///< node-indexed, set at operators
  std::vector<cluster::PodSpec> specs;  ///< node-indexed, set at operators
  std::size_t slots_run = 0;
  double now_seconds = 0.0;
  double total_tuples = 0.0;
  double total_cost = 0.0;
  int max_tasks = 1;

  /// Snapshots the monitor's current view (works on live and frame-backed
  /// monitors alike).
  [[nodiscard]] static MonitorFrame capture(const JobMonitor& monitor);
};

/// Read-only observation boundary — the Flink REST API / Metrics Server
/// analogue.  Controllers get this plus a ScalingActuator, never the Engine.
/// Backed either by a live Engine or by a recorded MonitorFrame (replay).
class JobMonitor {
 public:
  explicit JobMonitor(const Engine& engine) : engine_(&engine) {}
  explicit JobMonitor(const MonitorFrame& frame) : frame_(&frame) {}

  [[nodiscard]] const dag::StreamDag& dag() const;
  [[nodiscard]] const SlotReport& last_report() const;
  [[nodiscard]] bool has_report() const;
  [[nodiscard]] int tasks(dag::NodeId op) const;
  [[nodiscard]] std::size_t slots_run() const;
  [[nodiscard]] double total_tuples() const;
  [[nodiscard]] double total_cost() const;
  [[nodiscard]] double now_seconds() const;
  [[nodiscard]] int max_tasks() const;
  [[nodiscard]] double pod_price_per_hour(dag::NodeId op) const;
  [[nodiscard]] cluster::PodSpec pod_spec(dag::NodeId op) const;

 private:
  const Engine* engine_ = nullptr;
  const MonitorFrame* frame_ = nullptr;
};

class Engine final : public ScalingActuator {
 public:
  /// `usl` must contain one entry per operator node.  `schedules` must
  /// contain one entry per source node.  The DAG must be validated.
  Engine(dag::StreamDag dag, std::map<dag::NodeId, UslParams> usl,
         std::map<dag::NodeId, std::unique_ptr<RateSchedule>> schedules,
         EngineOptions options, std::uint64_t seed);

  // -- ScalingActuator ------------------------------------------------------
  void set_tasks(dag::NodeId op, int tasks) override;
  void set_pod_spec(dag::NodeId op, cluster::PodSpec spec) override;

  /// Advances one controller slot and returns its report.  Deliberately not
  /// [[nodiscard]]: advancing the simulation is a legitimate reason to call
  /// this, and tests do so in bulk.
  const SlotReport& run_slot();

  /// Attaches an observability registry: run_slot() publishes a per-slot
  /// summary event plus one event per operator (backlog, throughput, tainted
  /// flags).  Null disables telemetry; publication is read-only, so the
  /// simulation trajectory is bit-identical either way.
  void set_observability(obs::Registry* registry) noexcept { obs_ = registry; }

  // -- fault-injection seams (src/faults drives these) ----------------------

  /// Failure injection: crashes one pod of the operator (replicas -1, floor
  /// one).  Unlike a scaling action there is no checkpoint pause — the task
  /// is simply gone next slot, as when a node dies under a deployment — and
  /// controllers only find out through the degraded metrics.  Capacity stays
  /// at the surviving tasks' level until an actuator call re-provisions.
  void inject_pod_failure(dag::NodeId op);

  /// Straggler seam: multiplies the operator's hidden capacity by `factor`
  /// in (0, 1] until reset to 1.0.  Slots with factor < 1 are reported
  /// fault-tainted.
  void set_capacity_degradation(dag::NodeId op, double factor);

  /// Arms a checkpoint failure: the next reconfiguration's checkpoint fails
  /// `retries` times, failed attempt k costing checkpoint_pause_s * 2^k; once
  /// the chain would eat more than half the slot the reconfiguration aborts
  /// and the previous configuration is restored (the time is still lost).
  void arm_checkpoint_failure(int retries);

  /// Metric outage seam: while active no fresh scrape of the operator is
  /// taken and the slot report carries its last scraped CPU plus no capacity
  /// estimate (metrics_stale / fault_tainted are set).
  void set_metric_dropout(dag::NodeId op, bool active);

  // -- observation ----------------------------------------------------------
  [[nodiscard]] const dag::StreamDag& dag() const noexcept { return dag_; }
  [[nodiscard]] const SlotReport& last_report() const;
  [[nodiscard]] bool has_report() const noexcept { return report_.has_value(); }
  [[nodiscard]] int tasks(dag::NodeId op) const;
  [[nodiscard]] cluster::PodSpec pod_spec(dag::NodeId op) const;
  [[nodiscard]] std::size_t slots_run() const noexcept { return slot_index_; }
  [[nodiscard]] double now_seconds() const noexcept { return now_s_; }
  [[nodiscard]] double total_tuples() const noexcept { return total_tuples_; }
  [[nodiscard]] double total_cost() const noexcept { return cluster_.accrued_cost(); }
  [[nodiscard]] const EngineOptions& options() const noexcept { return options_; }
  [[nodiscard]] JobMonitor monitor() const { return JobMonitor(*this); }

  /// Pod ledger / admission gate.  Exposed for the actuation layer, which
  /// tracks pending pods and consults admission caps; controllers still see
  /// only the JobMonitor.
  [[nodiscard]] cluster::Cluster& cluster() noexcept { return cluster_; }
  [[nodiscard]] const cluster::Cluster& cluster() const noexcept { return cluster_; }

  // -- ground truth (oracle/evaluation only; hidden from controllers) -------
  [[nodiscard]] double true_capacity(dag::NodeId op, int tasks,
                                     std::optional<cluster::PodSpec> spec = std::nullopt) const;
  [[nodiscard]] double offered_rate(dag::NodeId source, double at_seconds) const;
  [[nodiscard]] const CapacityModel& capacity_model(dag::NodeId op) const;

 private:
  struct OperatorState {
    std::unique_ptr<CapacityModel> model;
    int tasks = 1;
    cluster::PodSpec spec;
    std::vector<double> backlog;      // per in-edge
    double slot_cloud_factor = 1.0;   // resampled each slot
    // capacity(tasks, spec) * degradation * slot_cloud_factor, set once per
    // slot after any checkpoint rollback: nothing changes it inside a slot.
    double slot_capacity = 0.0;
    bool reconfig_pending = false;
    int prev_tasks = 1;               // rollback target for aborted checkpoints
    cluster::PodSpec prev_spec;
    double degradation = 1.0;         // straggler seam; 1 = healthy
    bool metrics_down = false;        // metric-dropout seam
    double last_cpu = 0.0;            // last scraped CPU, served while metrics_down
    bool crashed_this_slot = false;   // set by inject_pod_failure, slot-scoped
  };

  struct StepAccum {
    double in_sum = 0.0;
    double out_sum = 0.0;
    double demand_sum = 0.0;
    double arrival_demand_sum = 0.0;
    double overload_sum = 0.0;  // arrival demand / capacity, for backpressure
    double util_obs_sum = 0.0;
    double cap_obs_sum = 0.0;
    std::size_t cap_obs_count = 0;
    double dropped = 0.0;
    double offered_sum = 0.0;
    double backlog_sum = 0.0;   // total buffered tuples, sampled per step
    double consumed_sum = 0.0;  // tuples consumed from buffers+arrivals
    std::size_t steps = 0;
  };

  // The step plan: the DAG compiled once, in topological order, into flat
  // arrays micro_step walks without lookups.  Each edge evaluates through its
  // function's inline eval, which switches on the form tag.
  struct PlanEdge {
    std::size_t edge = 0;  // dag edge index (edge_rate slot)
    double alpha = 1.0;
    const dag::ThroughputFn* fn = nullptr;  // in dag_, which never changes
  };
  struct PlanNode {
    dag::NodeId id = 0;
    dag::ComponentKind kind = dag::ComponentKind::kOperator;
    std::size_t in_begin = 0, in_end = 0;    // range of plan_in_
    std::size_t out_begin = 0, out_end = 0;  // range of plan_out_
  };

  void compile_plan();
  /// Throws naming `method` unless `op` is an operator's id.
  void require_operator(dag::NodeId op, const char* method) const;
  void micro_step(double dt, common::Rng& step_rng);
  void publish_observability() const;

  dag::StreamDag dag_;
  EngineOptions options_;
  cluster::Cluster cluster_;
  common::Rng root_rng_;
  // Node-indexed state; the dag's sources() and operators() list the ids in
  // ascending order.  A schedule is null off sources, a model off operators.
  std::vector<OperatorState> ops_;
  std::vector<std::unique_ptr<RateSchedule>> schedules_;
  std::vector<double> source_pending_;            // tuples parked during pauses
  std::vector<PlanNode> plan_;                    // topological order
  std::vector<std::size_t> plan_in_;              // in-edge indexes, per node
  std::vector<PlanEdge> plan_out_;                // out-edges, per node
  std::vector<StepAccum> accum_;                  // node-indexed, per-slot scratch
  std::vector<double> edge_sum_;                  // edge-indexed, per-slot scratch
  std::vector<double> edge_rate_;                 // edge-indexed, per-step flow
  std::vector<double> path_delay_;                // node-indexed, latency scratch
  // micro_step scratch, per in-edge of the operator being stepped: buffered
  // plus arrived tuples, that as a rate, and the arrivals-only rate.
  std::vector<double> avail_;
  std::vector<double> inputs_;
  std::vector<double> fresh_;
  std::size_t processing_steps_ = 0;              // non-paused steps this slot
  std::optional<SlotReport> report_;              // buffers reused slot to slot
  int armed_checkpoint_retries_ = 0;              // fault seam; consumed by next reconfig
  std::size_t slot_index_ = 0;
  double now_s_ = 0.0;
  double total_tuples_ = 0.0;
  obs::Registry* obs_ = nullptr;  ///< borrowed; null = telemetry off
};

}  // namespace dragster::streamsim
