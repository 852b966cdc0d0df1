// Controller supervision: health invariants, periodic snapshots, and
// safe-mode fallback (ISSUE: controller crash-recovery).
//
// The paper's controller is a single process holding all learned state — GP
// observation histories, dual multipliers, throughput-learner weights.  A
// crash of that process loses the state and with it the regret guarantee:
// a cold-restarted controller re-pays the exploration cost.  The supervisor
// wraps any core::Controller and
//   1. journals each slot's observations (MonitorFrame) and, every
//      `snapshot_every` healthy slots, serializes the controller's full
//      state through the resilience::Snapshotable hooks;
//   2. validates every decision against health invariants *before* it
//      reaches the cluster (actions are buffered, then committed in issue
//      order, so a healthy supervised run is bit-identical to an
//      unsupervised one);
//   3. on an injected crash or a tripped invariant enters safe mode:
//      the last-known-good configuration is re-issued while the controller
//      is rebuilt from the latest snapshot and the journaled slots are
//      replayed; after a prolonged outage a DS2-style linear rule keeps the
//      job sized until the learned controller validates clean again.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "online/budget.hpp"
#include "resilience/snapshot.hpp"
#include "streamsim/engine.hpp"

namespace dragster::resilience {

/// One scaling action as a controller issued it.
struct ScalingAction {
  dag::NodeId op = 0;
  bool is_spec = false;        ///< false: set_tasks, true: set_pod_spec
  int tasks = 0;
  cluster::PodSpec spec;
};

/// Records actions instead of applying them, so the supervisor can inspect a
/// complete decision before any of it reaches the cluster.  commit() replays
/// the buffer in issue order — a committed buffer is indistinguishable from
/// the controller having driven the target actuator directly.
class BufferedActuator final : public streamsim::ScalingActuator {
 public:
  /// `fence` is the actuator the buffer will eventually commit to; in_flight
  /// queries are forwarded to it so a buffered controller sees the same
  /// epoch-fence state as one driving the target directly.  Defaults to
  /// nullptr (no in-flight state — the pre-actuation behavior).
  explicit BufferedActuator(const streamsim::ScalingActuator* fence = nullptr)
      : fence_(fence) {}

  void set_tasks(dag::NodeId op, int tasks) override;
  void set_pod_spec(dag::NodeId op, cluster::PodSpec spec) override;
  [[nodiscard]] bool in_flight(dag::NodeId op) const override {
    return fence_ != nullptr && fence_->in_flight(op);
  }

  [[nodiscard]] const std::vector<ScalingAction>& actions() const noexcept { return actions_; }
  [[nodiscard]] bool empty() const noexcept { return actions_.empty(); }
  void clear() noexcept { actions_.clear(); }
  void commit(streamsim::ScalingActuator& target) const;

 private:
  std::vector<ScalingAction> actions_;
  const streamsim::ScalingActuator* fence_ = nullptr;
};

/// Swallows actions.  Used when replaying journaled slots into a restored
/// controller: the cluster already executed the original actions, so the
/// replayed decisions must not be re-applied.
class NullActuator final : public streamsim::ScalingActuator {
 public:
  void set_tasks(dag::NodeId, int) override {}
  void set_pod_spec(dag::NodeId, cluster::PodSpec) override {}
};

enum class SupervisorState { kHealthy, kSafeMode };

/// Why a decision was rejected (ordered roughly by severity).
enum class HealthViolation {
  kNonFiniteTarget,        ///< controller target capacities contain NaN/inf
  kDualDivergence,         ///< a dual multiplier is non-finite or above bound
  kNonFiniteObservations,  ///< the dual update skipped NaN constraint entries
  kInvalidAction,          ///< non-operator id, tasks outside [1, max_tasks], bad spec
  kOverBudget,             ///< planned deployment exceeds the dollar budget
  kReconfigFlapping,       ///< reconfigured every slot for too long
};

[[nodiscard]] const char* to_string(SupervisorState state);
[[nodiscard]] const char* to_string(HealthViolation violation);

struct SupervisorOptions {
  /// Serialize the inner controller's state every k healthy slots.
  std::size_t snapshot_every = 5;
  bool enable_snapshots = true;
  /// Trip after this many consecutive reconfiguring slots...
  std::size_t flap_window = 8;
  /// ...but only after the warmup, where exploration legitimately churns.
  std::size_t flap_warmup = 20;
  /// Safe-mode slots before the DS2-style linear rule takes over sizing.
  std::size_t rule_fallback_after = 3;
  /// Budget the supervisor enforces (and hands to the fallback rule).
  online::Budget budget = online::Budget::unlimited(0.10);
  /// When set, a crash with no usable snapshot builds a fresh controller
  /// from this factory (true cold restart).  When empty, the existing
  /// instance is re-initialize()d instead.
  std::function<std::unique_ptr<core::Controller>()> cold_factory;
};

struct SupervisorStats {
  std::size_t snapshots_taken = 0;
  std::size_t crashes_injected = 0;
  std::size_t restores = 0;        ///< snapshot-restore attempts
  std::size_t cold_restarts = 0;
  std::size_t replayed_frames = 0;
  std::size_t safe_mode_slots = 0;
  std::size_t invariant_trips = 0;
  std::size_t rule_fallback_slots = 0;
  std::vector<std::string> trip_log;  ///< "slot 12: dual-divergence", ...
};

class ControllerSupervisor final : public core::Controller {
 public:
  ControllerSupervisor(std::unique_ptr<core::Controller> inner, SupervisorOptions options);

  [[nodiscard]] std::string name() const override;

  void initialize(const streamsim::JobMonitor& monitor,
                  streamsim::ScalingActuator& actuator) override;
  void on_slot(const streamsim::JobMonitor& monitor,
               streamsim::ScalingActuator& actuator) override;

  /// Forwards to the wrapped controller as well, and re-attaches after a
  /// cold restart replaces it.
  void set_observability(obs::Registry* registry) override {
    obs_ = registry;
    inner_->set_observability(registry);
  }

  /// Forwards the new budget to the wrapped controller and tightens the
  /// supervisor's own OverBudget invariant (and the rule fallback's budget)
  /// to match.
  void set_budget(const online::Budget& budget) override {
    options_.budget = budget;
    inner_->set_budget(budget);
  }
  [[nodiscard]] double budget_pressure() const override { return inner_->budget_pressure(); }

  /// Kills the controller process at the start of the next on_slot() — the
  /// faults::FaultInjector's controller_crash lands here.
  void inject_crash() noexcept { crash_pending_ = true; }

  [[nodiscard]] SupervisorState state() const noexcept { return state_; }
  [[nodiscard]] const SupervisorStats& stats() const noexcept { return stats_; }
  [[nodiscard]] core::Controller& inner() noexcept { return *inner_; }
  [[nodiscard]] const core::Controller& inner() const noexcept { return *inner_; }

 private:
  /// Action-level invariants: operator ids, sane tasks/specs, the budget.
  [[nodiscard]] std::optional<HealthViolation> validate_actions(
      const BufferedActuator& buffer, const streamsim::MonitorFrame& frame) const;
  /// Full decision check: actions plus the inner controller's internals
  /// (finite targets/multipliers, `nf_before` non-finite watermark) and the
  /// reconfiguration-rate hysteresis.  `real_change` is false when every
  /// buffered action targets an operator whose rescale is still in flight —
  /// holding course through a slow actuation is not flapping.
  [[nodiscard]] std::optional<HealthViolation> validate(const BufferedActuator& buffer,
                                                        const streamsim::MonitorFrame& frame,
                                                        std::size_t nf_before,
                                                        bool real_change) const;
  [[nodiscard]] std::size_t inner_non_finite() const;
  void take_snapshot();
  /// Rebuild the inner controller at its last trusted state, replay every
  /// missed frame, shadow-run the newest one, and commit iff it validates.
  [[nodiscard]] bool try_recover(streamsim::ScalingActuator& actuator);
  void run_rule_fallback(streamsim::ScalingActuator& actuator);
  void reissue_last_known_good(const streamsim::MonitorFrame& frame,
                               streamsim::ScalingActuator& actuator);
  void adopt_actions(const BufferedActuator& buffer);
  void record_trip(std::size_t slot, HealthViolation violation);

  std::unique_ptr<core::Controller> inner_;
  Snapshotable* snapshotable_ = nullptr;  ///< inner_ view; refreshed on cold restart
  SupervisorOptions options_;
  SupervisorStats stats_;
  SupervisorState state_ = SupervisorState::kHealthy;

  bool crash_pending_ = false;
  bool need_cold_restart_ = false;

  std::string snapshot_;
  std::vector<streamsim::MonitorFrame> journal_;  ///< consumed since snapshot
  std::vector<streamsim::MonitorFrame> pending_;  ///< arrived during safe mode

  std::vector<int> lkg_tasks_;               ///< node-indexed, as in a frame
  std::vector<cluster::PodSpec> lkg_specs_;  ///< node-indexed, as in a frame

  std::size_t slots_seen_ = 0;
  std::size_t slots_since_snapshot_ = 0;
  std::size_t consecutive_reconfigs_ = 0;
  std::size_t safe_streak_ = 0;
  obs::Registry* obs_ = nullptr;  ///< borrowed; null = telemetry off
};

}  // namespace dragster::resilience
