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

/// Slot i's level: achieved over oracle throughput, or the healthy share of
/// the fleet's serving jobs; a slot with nothing to serve counts as whole.
double level_at(const RecoverySlotData& s) {
  return s.oracle_rate > 1e-9 ? s.achieved_rate / s.oracle_rate : 1.0;
}

double level_at(const FleetHealthSlot& s) {
  return s.active_jobs > 1e-9 ? s.healthy_jobs / s.active_jobs : 1.0;
}

/// The one recovery scan, per fault: the pre-fault level is the mean level
/// over up to kBaselineSlots slots before it (a fault on the very first slot
/// is scored against the ideal, 1); from the fault on, every slot below
/// kRecoveryFraction of that level adds `loss(slot, dip)` until one clears
/// the bar.  A fault past the recorded horizon scores nothing.
template <typename Stats, typename Fault, typename Slot, typename Loss>
std::vector<Stats> scan(std::span<const Fault> timeline, std::span<const Slot> slots, Loss loss) {
  std::vector<Stats> stats;
  stats.reserve(timeline.size());
  for (const Fault& fault : timeline) {
    if (fault.slot >= slots.size()) {
      stats.push_back(Stats{fault, 0.0, std::nullopt, 0.0});
      continue;
    }
    const std::size_t window = std::min(kBaselineSlots, fault.slot);
    double pre_fault = 1.0;
    if (window > 0) {
      double sum = 0.0;
      for (std::size_t i = fault.slot - window; i < fault.slot; ++i) sum += level_at(slots[i]);
      pre_fault = sum / static_cast<double>(window);
    }
    const double bar = kRecoveryFraction * pre_fault;
    std::optional<std::size_t> slots_to_recover;
    double lost = 0.0;
    for (std::size_t i = fault.slot; i < slots.size(); ++i) {
      const double level = level_at(slots[i]);
      if (level >= bar) {
        slots_to_recover = i - fault.slot;
        break;
      }
      lost += loss(slots[i], std::max(0.0, pre_fault - level));
    }
    stats.push_back(Stats{fault, pre_fault, slots_to_recover, lost});
  }
  return stats;
}

}  // namespace

std::vector<RecoveryStats> analyze_recovery(std::span<const AppliedFault> timeline,
                                            std::span<const RecoverySlotData> slots,
                                            double slot_seconds) {
  DRAGSTER_REQUIRE(slot_seconds > 0.0, "slot duration must be positive");
  const auto tuples = [slot_seconds](const RecoverySlotData& slot, double dip) {
    return dip * slot.oracle_rate * slot_seconds;
  };
  return scan<RecoveryStats>(timeline, slots, tuples);
}

std::vector<FleetRecoveryStats> analyze_fleet_recovery(
    std::span<const AppliedFleetFault> timeline, std::span<const FleetHealthSlot> slots) {
  const auto job_slots = [](const FleetHealthSlot& slot, double dip) {
    return dip * slot.active_jobs;
  };
  return scan<FleetRecoveryStats>(timeline, slots, job_slots);
}

}  // namespace dragster::faults
