// Recovery analytics over a fault timeline.
//
// Scores how a controller rode out each injected fault using the same
// oracle-normalized throughput the convergence analytics use: for every
// applied fault we take the mean achieved/oracle ratio over the (up to)
// three slots just before it as the pre-fault level, then scan forward for
// the first slot back above 90% of that level (the paper's "within 10%"
// bar).  Tuples lost are integrated against the pre-fault level over the
// degraded span, so a fault that never dents throughput costs zero.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "faults/fault_injector.hpp"
#include "faults/fleet_fault_plan.hpp"

namespace dragster::faults {

/// Per-slot throughput pair (harness-agnostic: any achieved/oracle series).
struct RecoverySlotData {
  double achieved_rate = 0.0;  ///< tuples/s the controller actually processed
  double oracle_rate = 0.0;    ///< offline-optimal tuples/s for that slot's load
};

struct RecoveryStats {
  AppliedFault fault;
  double pre_fault_ratio = 0.0;  ///< mean achieved/oracle before the fault
  /// Slots from the fault's start until the ratio is back above
  /// 0.9 * pre_fault_ratio; 0 means the fault slot itself
  /// stayed above the bar (no visible impact); nullopt = never recovered
  /// within the run.
  std::optional<std::size_t> slots_to_recover;
  double tuples_lost = 0.0;      ///< integral of the dip vs. the pre-fault level
};

[[nodiscard]] std::vector<RecoveryStats> analyze_recovery(
    std::span<const AppliedFault> timeline, std::span<const RecoverySlotData> slots,
    double slot_seconds);

// -- fleet-level extension ----------------------------------------------------
//
// The fleet analogue scores the same pre-fault-baseline / recovery-fraction
// logic over a cluster-wide health series: per slot, how many jobs met
// their SLO (`healthy_jobs`) out of how many should have been serving
// (`active_jobs` — running plus brownout-parked, so a shed tenant counts as
// unhealthy until it is restored).  The "ratio" is the healthy fraction,
// and the cost unit is job-slots of lost health instead of tuples.

struct FleetHealthSlot {
  double healthy_jobs = 0.0;  ///< running jobs that met their SLO this slot
  double active_jobs = 0.0;   ///< running + parked jobs (the serving demand)
};

struct FleetRecoveryStats {
  AppliedFleetFault fault;
  double pre_fault_level = 0.0;  ///< mean healthy fraction before the fault
  /// Slots from the fault until the healthy fraction is back above
  /// 0.9 * pre_fault_level; nullopt = never within the run.
  std::optional<std::size_t> slots_to_recover;
  double job_slots_lost = 0.0;   ///< integral of the health dip, in job-slots
};

[[nodiscard]] std::vector<FleetRecoveryStats> analyze_fleet_recovery(
    std::span<const AppliedFleetFault> timeline, std::span<const FleetHealthSlot> slots);

}  // namespace dragster::faults
