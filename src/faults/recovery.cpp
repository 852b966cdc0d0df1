#include "faults/recovery.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dragster::faults {

namespace {

/// The paper's "within 10%" recovery bar, as a fraction of the pre-fault
/// level.
constexpr double kRecoveryFraction = 0.90;
/// Slots before the fault averaged into the pre-fault level.
constexpr std::size_t kBaselineSlots = 3;

double ratio_at(std::span<const RecoverySlotData> slots, std::size_t index) {
  const RecoverySlotData& s = slots[index];
  return s.oracle_rate > 1e-9 ? s.achieved_rate / s.oracle_rate : 1.0;
}

double health_at(std::span<const FleetHealthSlot> slots, std::size_t index) {
  const FleetHealthSlot& s = slots[index];
  return s.active_jobs > 1e-9 ? s.healthy_jobs / s.active_jobs : 1.0;
}

}  // namespace

std::vector<RecoveryStats> analyze_recovery(std::span<const AppliedFault> timeline,
                                            std::span<const RecoverySlotData> slots,
                                            double slot_seconds) {
  DRAGSTER_REQUIRE(slot_seconds > 0.0, "slot duration must be positive");

  std::vector<RecoveryStats> stats;
  stats.reserve(timeline.size());
  for (const AppliedFault& fault : timeline) {
    RecoveryStats entry;
    entry.fault = fault;
    if (fault.slot >= slots.size()) {  // fired past the recorded horizon
      stats.push_back(std::move(entry));
      continue;
    }

    // Pre-fault level: mean ratio over up to kBaselineSlots slots before the
    // fault; a fault on the very first slot is scored against the oracle.
    const std::size_t window = std::min(kBaselineSlots, fault.slot);
    if (window == 0) {
      entry.pre_fault_ratio = 1.0;
    } else {
      double sum = 0.0;
      for (std::size_t i = fault.slot - window; i < fault.slot; ++i) sum += ratio_at(slots, i);
      entry.pre_fault_ratio = sum / static_cast<double>(window);
    }

    const double bar = kRecoveryFraction * entry.pre_fault_ratio;
    for (std::size_t i = fault.slot; i < slots.size(); ++i) {
      const double ratio = ratio_at(slots, i);
      if (ratio >= bar) {
        entry.slots_to_recover = i - fault.slot;
        break;
      }
      entry.tuples_lost +=
          std::max(0.0, entry.pre_fault_ratio - ratio) * slots[i].oracle_rate * slot_seconds;
    }
    stats.push_back(std::move(entry));
  }
  return stats;
}

std::vector<FleetRecoveryStats> analyze_fleet_recovery(
    std::span<const AppliedFleetFault> timeline, std::span<const FleetHealthSlot> slots) {
  std::vector<FleetRecoveryStats> stats;
  stats.reserve(timeline.size());
  for (const AppliedFleetFault& fault : timeline) {
    FleetRecoveryStats entry;
    entry.fault = fault;
    if (fault.slot >= slots.size()) {  // fired past the recorded horizon
      stats.push_back(std::move(entry));
      continue;
    }

    const std::size_t window = std::min(kBaselineSlots, fault.slot);
    if (window == 0) {
      entry.pre_fault_level = 1.0;
    } else {
      double sum = 0.0;
      for (std::size_t i = fault.slot - window; i < fault.slot; ++i) sum += health_at(slots, i);
      entry.pre_fault_level = sum / static_cast<double>(window);
    }

    const double bar = kRecoveryFraction * entry.pre_fault_level;
    for (std::size_t i = fault.slot; i < slots.size(); ++i) {
      const double health = health_at(slots, i);
      if (health >= bar) {
        entry.slots_to_recover = i - fault.slot;
        break;
      }
      entry.job_slots_lost +=
          std::max(0.0, entry.pre_fault_level - health) * slots[i].active_jobs;
    }
    stats.push_back(std::move(entry));
  }
  return stats;
}

}  // namespace dragster::faults
