// Online cross-job budget arbitration (the fleet's upper layer).
//
// Each slot the fleet hands the arbiter one demand record per running job —
// scheduling weight, minimum footprint (floor), maximum useful allocation
// (cap), and the job controller's budget pressure (Dragster: the mean dual
// multiplier, the shadow price of one more task-slot) — and a global budget
// in whole pods.  The arbiter returns integer pod grants:
//
//   * every job gets its floor (admission guaranteed the floors fit);
//   * kStatic: the surplus water-fills straight to the caps proportionally
//     to weight — the pressure- and request-blind baseline arm;
//   * kPressure: three tiers over the floors.  Tier 0 regrants what each
//     job already held (incumbency — a rescued job keeps its level until it
//     releases).  Tier 1 water-fills each job's *request* — the fleet's
//     delta-transfer target, the static share shifted by paired one-pod
//     transfers from provably idle donors to distressed jobs — weighted by
//       score_i = w_i * (eps + p_i / (1 + p_i)),
//     so under contention the dual pressure decides who gets squeezed.
//     Tier 2 spreads any leftover toward the caps by weight alone.
//
// All allocation happens in whole pods via largest-remainder rounding with
// index-order tie-breaks, so same-seed fleets produce bit-identical grants —
// no floating-point budget splitting ever reaches online::Budget.
#pragma once

#include <cstddef>
#include <vector>

namespace dragster::fleet {

enum class ArbiterMode {
  kStatic,    ///< weight-proportional, ignores pressure (the baseline arm)
  kPressure,  ///< weight * dual-pressure guided (the Dragster-native arm)
};

struct ArbiterOptions {
  ArbiterMode mode = ArbiterMode::kPressure;
};

/// One running job's demand, in the fleet's fixed job-index order.
struct JobDemand {
  double weight = 1.0;    ///< > 0
  int floor_pods = 1;     ///< minimum footprint (one pod per operator)
  int cap_pods = 1;       ///< maximum useful allocation (>= floor_pods)
  /// The job's target this slot: its static share by default, lower when it
  /// has donated provably idle pods, higher when its ratchet claims a
  /// rescue.  0 means "no opinion" and the arbiter substitutes the static
  /// share.  Clamped into [floor, cap] by the arbiter.
  int request_pods = 0;
  /// Pods the job held last slot (its previous grant; 0 = none).  Incumbency:
  /// up to min(held, request) is regranted before any new claim is funded,
  /// so a rescued job keeps its level until it releases — later claimants
  /// compete only for unheld pods.
  int held_pods = 0;
  double pressure = 0.0;  ///< smoothed budget_pressure(), >= 0
};

class BudgetArbiter {
 public:
  explicit BudgetArbiter(ArbiterOptions options);

  /// Integer pod grants, one per demand, with floor_i <= grant_i <= cap_i and
  /// sum(grant) <= budget_pods.  Requires sum(floor) <= budget_pods (the
  /// admission gate's invariant).  `budget_pods <= 0` means unlimited: every
  /// job gets its cap.
  [[nodiscard]] std::vector<int> split(int budget_pods,
                                       const std::vector<JobDemand>& demands) const;

 private:
  ArbiterOptions options_;
};

}  // namespace dragster::fleet
