// Shared experiment harness: runs a controller against a simulated
// application, scores every slot against the oracle, and provides the
// convergence / tuple / cost analytics the paper's tables and figures
// report.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "actuation/actuation.hpp"
#include "baselines/oracle.hpp"
#include "core/controller.hpp"
#include "faults/fault_injector.hpp"
#include "faults/recovery.hpp"
#include "obs/registry.hpp"
#include "online/budget.hpp"
#include "resilience/supervisor.hpp"
#include "streamsim/engine.hpp"

namespace dragster::transport {
class TransportHarness;
}

namespace dragster::experiments {

struct SlotSummary {
  std::size_t slot = 0;
  double start_seconds = 0.0;
  double throughput_rate = 0.0;   ///< tuples / full slot duration
  double effective_rate = 0.0;    ///< tuples / processing time (pause excluded)
  double tuples = 0.0;
  double cost = 0.0;
  double cost_rate = 0.0;
  double pause_s = 0.0;
  double latency_s = 0.0;         ///< end-to-end queueing-latency estimate
  std::vector<int> tasks;         ///< per operator, in dag.operators() order
  double oracle_throughput = 0.0; ///< offline optimum for this slot's load
  bool near_optimal = false;      ///< effective_rate within 10% of the oracle
  bool fault_active = false;      ///< any operator fault-tainted/stale this slot
  int checkpoint_retries = 0;     ///< failed checkpoint attempts this slot
  bool checkpoint_aborted = false;
};

struct RunResult {
  std::string controller;
  std::string workload;
  std::vector<SlotSummary> slots;
  /// Concatenated (time_s, tuples/s) samples across all slots (Fig. 6/7).
  std::vector<std::pair<double, double>> series;
  double total_tuples = 0.0;
  double total_cost = 0.0;
  /// Chaos runs: every fault the injector applied, in firing order, plus
  /// per-fault recovery analytics (slots-to-recover, tuples lost).  Empty
  /// for fault-free runs.
  std::vector<faults::AppliedFault> fault_timeline;
  std::vector<faults::RecoveryStats> recoveries;
  /// Present when the controller was a resilience::ControllerSupervisor:
  /// its crash/snapshot/safe-mode counters at the end of the run.
  std::optional<resilience::SupervisorStats> supervisor;
  /// Present when the run went through an actuation::ActuationManager:
  /// per-operator counters (epochs issued/retried/rolled back, mean slots
  /// from issue to fully Running) at the end of the run.
  std::vector<actuation::OperatorStats> actuation;
};

struct ScenarioOptions {
  std::size_t slots = 30;
  online::Budget budget = online::Budget::unlimited(0.10);
};

/// The per-slot scenario loop as a steppable object, so callers that
/// interleave many jobs (the fleet scheduler) drive the *same* code path as
/// run_scenario — one step() is exactly one iteration of its loop, finish()
/// is exactly its epilogue.  Construction attaches observability and calls
/// controller.initialize(); destruction detaches observability.
class ScenarioRunner {
 public:
  ScenarioRunner(streamsim::Engine& engine, core::Controller& controller,
                 const ScenarioOptions& options, std::string workload_name = "",
                 faults::FaultInjector* injector = nullptr,
                 actuation::ActuationManager* actuation = nullptr,
                 obs::Registry* obs = nullptr,
                 transport::TransportHarness* transport = nullptr);
  ~ScenarioRunner();
  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  /// Runs one slot: injector -> actuation reconcile -> engine -> controller,
  /// then scores the slot against the oracle and appends a SlotSummary.
  void step();

  /// Replaces the run's budget from the next step() on: oracle scoring,
  /// near-optimal thresholds, and the controller's own projection all see
  /// the new value (the fleet arbiter's per-slot seam).
  void set_budget(const online::Budget& budget);

  [[nodiscard]] std::size_t slots_run() const noexcept { return result_.slots.size(); }
  [[nodiscard]] const RunResult& partial() const noexcept { return result_; }

  /// Recovery analytics + supervisor/actuation stats; returns the completed
  /// result.  Call at most once, after the last step().
  [[nodiscard]] RunResult finish();

 private:
  /// Platform-side quota enforcement, run before the engine's slot: if the
  /// live configuration exceeds the (possibly just-shrunk) budget and the
  /// controller has not reacted — crash outage, restored snapshot, actuation
  /// lag — tasks are preempted deterministically down to the cap.
  void enforce_budget();
  [[nodiscard]] double oracle_for(double at_seconds);

  streamsim::Engine& engine_;
  core::Controller& controller_;
  ScenarioOptions options_;
  faults::FaultInjector* injector_;
  actuation::ActuationManager* actuation_;
  obs::Registry* obs_;
  transport::TransportHarness* transport_;
  streamsim::ScalingActuator* actuator_;
  resilience::ControllerSupervisor* supervised_;
  baselines::Oracle oracle_;
  std::vector<dag::NodeId> operators_;
  /// Keyed by the (rounded) offered-rate vector plus a budget fingerprint,
  /// so a mid-run set_budget never serves an optimum computed under the old
  /// cap.  For fixed-budget runs the suffix is constant — same hit pattern
  /// (and bit-identical results) as the pre-fingerprint cache.
  std::map<std::vector<long long>, double> oracle_cache_;
  RunResult result_;
  std::size_t slot_ = 0;
};

/// Runs `controller` on `engine` for the configured number of slots.
/// The oracle is re-evaluated whenever the offered load changes (cached per
/// distinct rate vector).  With an `injector`, its fault plan is applied at
/// each slot boundary and the result carries the applied timeline plus
/// recovery analytics scored against the oracle-normalized throughput.
/// `ctrlcrash` events are delivered to the controller itself: a supervised
/// controller gets inject_crash() (snapshot restore + safe mode), a bare one
/// is re-initialize()d — the amnesiac-restart baseline.
/// With an `actuation` manager, the controller's actions route through it
/// instead of the engine (per-slot order: injector -> actuation reconcile ->
/// engine -> controller) and the result carries per-operator actuation
/// stats.
/// With an `obs` registry, the engine, the actuation manager and the
/// controller (including a supervisor and whatever it wraps) all publish
/// metrics and trace events through it for the duration of the run.
/// Telemetry is read-only: the RunResult is bit-identical with or without it.
/// With a `transport` harness, the control loop runs over the unreliable
/// wire: scrapes traverse the telemetry channel (the controller sees the
/// newest *delivered* frame, staleness-marked), commands traverse the
/// command/ack channels with retries and idempotent dedup, and the staleness
/// watchdog may hold or DS2-fallback during blackouts.  Null transport — or
/// an all-zero (ideal) one — is bit-identical to today.  Platform-side
/// actions (initialize, crash restarts, budget preemption) stay direct: they
/// model the deployment itself, not control-plane traffic.
[[nodiscard]] RunResult run_scenario(streamsim::Engine& engine, core::Controller& controller,
                                     const ScenarioOptions& options,
                                     const std::string& workload_name = "",
                                     faults::FaultInjector* injector = nullptr,
                                     actuation::ActuationManager* actuation = nullptr,
                                     obs::Registry* obs = nullptr,
                                     transport::TransportHarness* transport = nullptr);

/// A fresh controller of one compared scheme under `budget`: `Dragster` or
/// `Dragster(saddle)`, `Dragster(ogd)`, `DS2` or `Dhalion`.  Throws
/// dragster::Error on any other name, so a misspelt scheme never runs another.
[[nodiscard]] std::unique_ptr<core::Controller> make_controller(const std::string& name,
                                                                const online::Budget& budget);

/// First slot index in [from, to) that starts `persistence` consecutive
/// near-optimal slots AND from which at least 75% of the window's remaining
/// slots are near-optimal (so a transient backlog-drain spike on a stuck
/// configuration does not count as convergence); nullopt if never reached.
[[nodiscard]] std::optional<std::size_t> convergence_slot(std::span<const SlotSummary> slots,
                                                          std::size_t from, std::size_t to,
                                                          std::size_t persistence = 3);

/// Convergence time in minutes from the start of the window (counting the
/// converged slot itself), or nullopt.
[[nodiscard]] std::optional<double> convergence_minutes(std::span<const SlotSummary> slots,
                                                        std::size_t from, std::size_t to,
                                                        double slot_minutes);

struct PhaseStats {
  std::optional<double> convergence_min;
  double tuples = 0.0;
  double cost = 0.0;
  double cost_per_billion = 0.0;  ///< $ per 1e9 processed tuples
  double avg_rate = 0.0;
};

/// Aggregates one [from, to) window of a run — a row of the paper's Table 2.
[[nodiscard]] PhaseStats analyze_phase(const RunResult& run, std::size_t from, std::size_t to,
                                       double slot_minutes);

}  // namespace dragster::experiments
