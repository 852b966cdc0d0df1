// Drives a FaultPlan against a running simulation.
//
// The injector is called once per controller slot, just before the engine
// runs it, and translates due events into the engine's fault seams:
//   * pod crash        -> Engine::inject_pod_failure (no checkpoint; the
//                         capacity drops to the surviving tasks until the
//                         controller re-provisions through the actuator)
//   * straggler        -> Engine::set_capacity_degradation with the
//                         one-slow-task USL factor (tasks-1+f)/tasks,
//                         recomputed each slot while the window is active so
//                         re-scaling mid-window keeps the model honest
//   * checkpoint fail  -> Engine::arm_checkpoint_failure; the next
//                         reconfiguration retries with exponential backoff
//                         (pause extended) or aborts past the cap
//   * metric dropout   -> Engine::set_metric_dropout; the engine serves the
//                         last scraped CPU and no capacity for the window
//   * scheduler outage -> ActuationManager::set_admission_outage; every
//                         admission check is rejected for the window
//   * scheduler delay  -> ActuationManager::set_latency_multiplier; pods
//                         drawn during the window schedule slower
//
// Every applied event is recorded with its slot and resolved node so
// experiment harnesses can attach the fault timeline to their results.
#pragma once

#include <vector>

#include "actuation/actuation.hpp"
#include "faults/fault_plan.hpp"
#include "streamsim/engine.hpp"

namespace dragster::faults {

struct AppliedFault {
  FaultEvent event;
  dag::NodeId op = 0;     ///< resolved target (0 when the event has none)
  std::size_t slot = 0;   ///< slot index the event fired on
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Applies every event scheduled for the slot the engine is about to run
  /// (`engine.slots_run()` is the upcoming index) and maintains active
  /// straggler/dropout/scheduler windows.  Throws if an event names an
  /// unknown operator, or if the plan contains scheduler faults
  /// (schedfail/scheddelay) and no `actuation` manager is attached.  Call
  /// once per slot, before ActuationManager::begin_slot() and
  /// Engine::run_slot().
  void before_slot(streamsim::Engine& engine,
                   actuation::ActuationManager* actuation = nullptr);

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] const std::vector<AppliedFault>& applied() const noexcept { return applied_; }

  /// True once every event has fired and every window has closed.
  [[nodiscard]] bool exhausted() const noexcept;

  /// Controller crashes are control-plane events: the engine is untouched
  /// and the experiment loop delivers them to the supervisor instead.
  /// Returns true (once) when a ctrlcrash event fired in the last
  /// before_slot() call and clears the flag.
  [[nodiscard]] bool consume_controller_crash() noexcept;

 private:
  struct ActiveWindow {
    FaultKind kind = FaultKind::kStraggler;
    dag::NodeId op = 0;
    std::size_t end_slot = 0;  ///< first slot the fault is no longer active
    double value = 0.0;        ///< straggler: slowed task's relative rate
  };

  FaultPlan plan_;
  std::size_t next_event_ = 0;
  std::vector<AppliedFault> applied_;
  std::vector<ActiveWindow> active_;
  bool controller_crash_pending_ = false;
};

}  // namespace dragster::faults
