#include "resilience/supervisor.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "baselines/ds2.hpp"
#include "cluster/pricing.hpp"
#include "common/error.hpp"
#include "core/dragster_controller.hpp"
#include "obs/registry.hpp"

namespace dragster::resilience {

void BufferedActuator::set_tasks(dag::NodeId op, int tasks) {
  ScalingAction action;
  action.op = op;
  action.is_spec = false;
  action.tasks = tasks;
  actions_.push_back(action);
}

void BufferedActuator::set_pod_spec(dag::NodeId op, cluster::PodSpec spec) {
  ScalingAction action;
  action.op = op;
  action.is_spec = true;
  action.spec = spec;
  actions_.push_back(action);
}

void BufferedActuator::commit(streamsim::ScalingActuator& target) const {
  for (const ScalingAction& action : actions_) {
    if (action.is_spec)
      target.set_pod_spec(action.op, action.spec);
    else
      target.set_tasks(action.op, action.tasks);
  }
}

namespace {

/// A dual multiplier above this (or non-finite) trips kDualDivergence.
constexpr double kDualDivergenceBound = 1e3;

/// True when any buffered action opens a *new* actuation epoch — re-issues
/// aimed at an operator whose rescale is still in flight are absorbed by the
/// actuator's dedupe fence and must not count toward the flapping window.
bool targets_new_epoch(const BufferedActuator& buffer,
                       const streamsim::ScalingActuator& actuator) {
  bool any = false;
  for (const ScalingAction& action : buffer.actions())
    any = any || !actuator.in_flight(action.op);
  return any;
}

}  // namespace

const char* to_string(SupervisorState state) {
  switch (state) {
    case SupervisorState::kHealthy: return "healthy";
    case SupervisorState::kSafeMode: return "safe-mode";
  }
  return "unknown";
}

const char* to_string(HealthViolation violation) {
  switch (violation) {
    case HealthViolation::kNonFiniteTarget: return "non-finite-target";
    case HealthViolation::kDualDivergence: return "dual-divergence";
    case HealthViolation::kNonFiniteObservations: return "non-finite-observations";
    case HealthViolation::kInvalidAction: return "invalid-action";
    case HealthViolation::kOverBudget: return "over-budget";
    case HealthViolation::kReconfigFlapping: return "reconfig-flapping";
  }
  return "unknown";
}

ControllerSupervisor::ControllerSupervisor(std::unique_ptr<core::Controller> inner,
                                           SupervisorOptions options)
    : inner_(std::move(inner)), options_(std::move(options)) {
  DRAGSTER_REQUIRE(inner_ != nullptr, "supervisor needs a controller to wrap");
  DRAGSTER_REQUIRE(options_.snapshot_every >= 1, "snapshot_every must be at least one slot");
  DRAGSTER_REQUIRE(options_.flap_window >= 2, "flap_window must be at least two slots");
  snapshotable_ = dynamic_cast<Snapshotable*>(inner_.get());
}

std::string ControllerSupervisor::name() const {
  return "Supervised(" + inner_->name() + ")";
}

void ControllerSupervisor::initialize(const streamsim::JobMonitor& monitor,
                                      streamsim::ScalingActuator& actuator) {
  inner_->initialize(monitor, actuator);
  lkg_tasks_.clear();
  lkg_specs_.clear();
  for (dag::NodeId op : monitor.dag().operators()) {
    lkg_tasks_[op] = monitor.tasks(op);
    lkg_specs_[op] = monitor.pod_spec(op);
  }
  // Snapshot immediately so even a crash in the first slots can restore.
  if (options_.enable_snapshots && snapshotable_ != nullptr) take_snapshot();
}

void ControllerSupervisor::on_slot(const streamsim::JobMonitor& monitor,
                                   streamsim::ScalingActuator& actuator) {
  streamsim::MonitorFrame frame = streamsim::MonitorFrame::capture(monitor);
  ++slots_seen_;

  // A crashed controller restarts within the slot it died in: the restore
  // below runs on this same call.
  const bool crashed = crash_pending_;
  if (crash_pending_) {
    crash_pending_ = false;
    ++stats_.crashes_injected;
    if (obs_ != nullptr) {
      obs_->counter("supervisor_crashes_total", "Controller crashes delivered").inc();
      if (obs::TraceSink* sink = obs_->trace()) {
        obs::Event(*sink, "controller_crash", static_cast<std::uint64_t>(frame.slots_run))
            .field("cold_restart", !(options_.enable_snapshots && snapshotable_ != nullptr &&
                                     !snapshot_.empty()));
      }
    }
    need_cold_restart_ =
        !(options_.enable_snapshots && snapshotable_ != nullptr && !snapshot_.empty());
    state_ = SupervisorState::kSafeMode;
    safe_streak_ = 0;
    consecutive_reconfigs_ = 0;
  }

  if (state_ == SupervisorState::kSafeMode) {
    ++stats_.safe_mode_slots;
    ++safe_streak_;
    if (obs_ != nullptr) {
      obs_->counter("supervisor_safe_mode_slots_total", "Slots spent in safe mode").inc();
      if (obs::TraceSink* sink = obs_->trace()) {
        obs::Event(*sink, "safe_mode_slot", static_cast<std::uint64_t>(frame.slots_run))
            .field("streak", static_cast<std::uint64_t>(safe_streak_))
            .field("inner_down", crashed);
      }
    }
    pending_.push_back(std::move(frame));
    if (try_recover(actuator)) {
      state_ = SupervisorState::kHealthy;
      safe_streak_ = 0;
      return;
    }
    if (safe_streak_ >= options_.rule_fallback_after)
      run_rule_fallback(actuator);
    else
      reissue_last_known_good(pending_.back(), actuator);
    return;
  }

  // Healthy: run the inner controller against the live monitor, gate the
  // decision, commit it unchanged — bit-transparent when nothing trips.
  const std::size_t nf_before = inner_non_finite();
  BufferedActuator buffer(&actuator);
  inner_->on_slot(monitor, buffer);
  const bool real_change = targets_new_epoch(buffer, actuator);
  const std::optional<HealthViolation> violation =
      validate(buffer, frame, nf_before, real_change);
  if (!violation.has_value()) {
    buffer.commit(actuator);
    adopt_actions(buffer);
    consecutive_reconfigs_ = real_change ? consecutive_reconfigs_ + 1 : 0;
    journal_.push_back(std::move(frame));
    if (options_.enable_snapshots && snapshotable_ != nullptr &&
        ++slots_since_snapshot_ >= options_.snapshot_every)
      take_snapshot();
    return;
  }
  record_trip(frame.slots_run, *violation);
  state_ = SupervisorState::kSafeMode;
  ++stats_.safe_mode_slots;
  safe_streak_ = 1;
  consecutive_reconfigs_ = 0;
  pending_.push_back(std::move(frame));
  reissue_last_known_good(pending_.back(), actuator);
}

std::optional<HealthViolation> ControllerSupervisor::validate_actions(
    const BufferedActuator& buffer, const streamsim::MonitorFrame& frame) const {
  for (const ScalingAction& action : buffer.actions()) {
    if (action.is_spec) {
      if (!std::isfinite(action.spec.cpu_cores) || action.spec.cpu_cores <= 0.0 ||
          !std::isfinite(action.spec.memory_gb) || action.spec.memory_gb <= 0.0)
        return HealthViolation::kInvalidAction;
    } else if (action.tasks < 1 || action.tasks > frame.max_tasks) {
      return HealthViolation::kInvalidAction;
    }
  }
  if (options_.budget.limited()) {
    std::map<dag::NodeId, int> tasks = frame.tasks;
    std::map<dag::NodeId, cluster::PodSpec> specs = frame.specs;
    for (const ScalingAction& action : buffer.actions()) {
      if (action.is_spec)
        specs[action.op] = action.spec;
      else
        tasks[action.op] = action.tasks;
    }
    double rate = 0.0;
    for (const auto& [op, count] : tasks) {
      const auto it = specs.find(op);
      const cluster::PodSpec spec = it == specs.end() ? cluster::PodSpec{} : it->second;
      rate += static_cast<double>(count) * cluster::pod_price_per_hour(spec);
    }
    if (rate > options_.budget.dollars_per_hour() * (1.0 + 1e-9))
      return HealthViolation::kOverBudget;
  }
  return std::nullopt;
}

std::optional<HealthViolation> ControllerSupervisor::validate(
    const BufferedActuator& buffer, const streamsim::MonitorFrame& frame,
    std::size_t nf_before, bool real_change) const {
  if (const auto* dragster = dynamic_cast<const core::DragsterController*>(inner_.get())) {
    for (double target : dragster->last_targets())
      if (!std::isfinite(target)) return HealthViolation::kNonFiniteTarget;
    for (double multiplier : dragster->lambda())
      if (!std::isfinite(multiplier) || multiplier > kDualDivergenceBound)
        return HealthViolation::kDualDivergence;
    const std::size_t nf = dragster->non_finite_constraints();
    if (nf > nf_before) return HealthViolation::kNonFiniteObservations;
  }
  if (const auto violation = validate_actions(buffer, frame)) return violation;
  if (real_change && slots_seen_ > options_.flap_warmup &&
      consecutive_reconfigs_ + 1 >= options_.flap_window)
    return HealthViolation::kReconfigFlapping;
  return std::nullopt;
}

std::size_t ControllerSupervisor::inner_non_finite() const {
  const auto* dragster = dynamic_cast<const core::DragsterController*>(inner_.get());
  return dragster == nullptr ? 0 : dragster->non_finite_constraints();
}

void ControllerSupervisor::take_snapshot() {
  SnapshotWriter writer;
  snapshotable_->save_state(writer);
  snapshot_ = writer.str();
  journal_.clear();
  slots_since_snapshot_ = 0;
  ++stats_.snapshots_taken;
  if (obs_ != nullptr) {
    obs_->counter("supervisor_snapshots_total", "Controller state snapshots taken").inc();
    if (obs::TraceSink* sink = obs_->trace())
      obs::Event(*sink, "snapshot", static_cast<std::uint64_t>(slots_seen_))
          .field("bytes", static_cast<std::uint64_t>(snapshot_.size()));
  }
}

bool ControllerSupervisor::try_recover(streamsim::ScalingActuator& actuator) {
  DRAGSTER_REQUIRE(!pending_.empty(), "recovery attempted without a pending frame");
  const streamsim::MonitorFrame& newest = pending_.back();
  NullActuator sink;
  if (need_cold_restart_) {
    // No usable snapshot: rebuild the process with all learned state lost.
    if (options_.cold_factory) inner_ = options_.cold_factory();
    inner_->set_observability(obs_);  // the fresh instance needs re-attaching
    snapshotable_ = dynamic_cast<Snapshotable*>(inner_.get());
    snapshot_.clear();
    journal_.clear();
    streamsim::JobMonitor boot(newest);
    inner_->initialize(boot, sink);
    ++stats_.cold_restarts;
    need_cold_restart_ = false;
    if (obs_ != nullptr) {
      obs_->counter("supervisor_cold_restarts_total", "Recoveries without a usable snapshot")
          .inc();
      if (obs::TraceSink* trace = obs_->trace())
        obs::Event(*trace, "cold_restart", static_cast<std::uint64_t>(newest.slots_run))
            .field("replayed", static_cast<std::uint64_t>(pending_.size() - 1));
    }
    // The fresh controller still learns from the frames that arrived while
    // it was down — they are observations, even if their decisions are moot.
    for (std::size_t i = 0; i + 1 < pending_.size(); ++i) {
      streamsim::JobMonitor replay(pending_[i]);
      inner_->on_slot(replay, sink);
      ++stats_.replayed_frames;
    }
  } else if (options_.enable_snapshots && snapshotable_ != nullptr && !snapshot_.empty()) {
    // Rebuild the last trusted state and replay every frame consumed or
    // missed since: the restored controller ends bit-identical to one that
    // had lived through those slots.
    SnapshotReader reader(snapshot_);
    snapshotable_->load_state(reader);
    ++stats_.restores;
    if (obs_ != nullptr) {
      obs_->counter("supervisor_restores_total", "Snapshot-restore recovery attempts").inc();
      if (obs::TraceSink* trace = obs_->trace())
        obs::Event(*trace, "restore", static_cast<std::uint64_t>(newest.slots_run))
            .field("journal", static_cast<std::uint64_t>(journal_.size()))
            .field("pending", static_cast<std::uint64_t>(pending_.size()));
    }
    for (const streamsim::MonitorFrame& missed : journal_) {
      streamsim::JobMonitor replay(missed);
      inner_->on_slot(replay, sink);
    }
    stats_.replayed_frames += journal_.size();
    for (std::size_t i = 0; i + 1 < pending_.size(); ++i) {
      streamsim::JobMonitor replay(pending_[i]);
      inner_->on_slot(replay, sink);
      ++stats_.replayed_frames;
    }
  }
  // else: no snapshot capability — the inner instance keeps its live state
  // and simply shadow-steps the newest frame below.
  const std::size_t nf_before = inner_non_finite();
  streamsim::JobMonitor shadow(newest);
  BufferedActuator buffer(&actuator);
  inner_->on_slot(shadow, buffer);
  const bool real_change = targets_new_epoch(buffer, actuator);
  if (validate(buffer, newest, nf_before, real_change).has_value()) return false;
  if (obs_ != nullptr) {
    if (obs::TraceSink* trace = obs_->trace())
      obs::Event(*trace, "recovered", static_cast<std::uint64_t>(newest.slots_run));
  }
  buffer.commit(actuator);
  adopt_actions(buffer);
  consecutive_reconfigs_ = real_change ? consecutive_reconfigs_ + 1 : 0;
  for (streamsim::MonitorFrame& consumed : pending_) journal_.push_back(std::move(consumed));
  pending_.clear();
  if (options_.enable_snapshots && snapshotable_ != nullptr) take_snapshot();
  return true;
}

void ControllerSupervisor::run_rule_fallback(streamsim::ScalingActuator& actuator) {
  const streamsim::MonitorFrame& newest = pending_.back();
  streamsim::JobMonitor view(newest);
  ++stats_.rule_fallback_slots;
  if (obs_ != nullptr) {
    obs_->counter("supervisor_rule_fallback_slots_total", "Slots sized by the DS2 rule").inc();
    if (obs::TraceSink* sink = obs_->trace())
      obs::Event(*sink, "rule_fallback", static_cast<std::uint64_t>(newest.slots_run));
  }
  if (!view.has_report()) {
    reissue_last_known_good(newest, actuator);
    return;
  }
  // DS2's only state is its budget, which is always ours: a fresh rule per
  // slot sizes exactly like a kept one.
  BufferedActuator buffer(&actuator);
  baselines::Ds2Controller(baselines::Ds2Options{options_.budget}).on_slot(view, buffer);
  if (!validate_actions(buffer, newest).has_value()) {
    buffer.commit(actuator);
    adopt_actions(buffer);
  } else {
    reissue_last_known_good(newest, actuator);
  }
}

void ControllerSupervisor::reissue_last_known_good(const streamsim::MonitorFrame& frame,
                                                   streamsim::ScalingActuator& actuator) {
  // Only re-issue entries the deployment drifted away from — a redundant
  // set_tasks would still pay the checkpoint pause.
  for (const auto& [op, tasks] : lkg_tasks_) {
    const auto it = frame.tasks.find(op);
    if (it == frame.tasks.end() || it->second != tasks) actuator.set_tasks(op, tasks);
  }
  for (const auto& [op, spec] : lkg_specs_) {
    const auto it = frame.specs.find(op);
    if (it == frame.specs.end() || !(it->second == spec)) actuator.set_pod_spec(op, spec);
  }
}

void ControllerSupervisor::adopt_actions(const BufferedActuator& buffer) {
  for (const ScalingAction& action : buffer.actions()) {
    if (action.is_spec)
      lkg_specs_[action.op] = action.spec;
    else
      lkg_tasks_[action.op] = action.tasks;
  }
}

void ControllerSupervisor::record_trip(std::size_t slot, HealthViolation violation) {
  ++stats_.invariant_trips;
  stats_.trip_log.push_back("slot " + std::to_string(slot) + ": " + to_string(violation));
  if (obs_ != nullptr) {
    obs_->counter("supervisor_invariant_trips_total", "Health-invariant violations, by kind",
                  {{"violation", to_string(violation)}})
        .inc();
    if (obs::TraceSink* sink = obs_->trace())
      obs::Event(*sink, "invariant_trip", static_cast<std::uint64_t>(slot))
          .field("violation", to_string(violation));
  }
}

}  // namespace dragster::resilience
