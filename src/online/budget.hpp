// Resource-budget handling (paper constraint 9d and the projection Pi_X in
// eq. 18).
//
// In the evaluation each configuration dimension is a task (pod) count, and
// the budget is expressed in dollars per hour with a fixed per-pod price
// (1 CPU / 2 GB slots).  `Budget` answers feasibility queries for candidate
// sets and projects integer allocations back into the feasible region by
// shaving tasks off the largest allocations first.
#pragma once

#include <limits>
#include <span>
#include <vector>

namespace dragster::online {

class Budget {
 public:
  /// `dollars_per_hour` may be infinity for the unconstrained experiments;
  /// `pod_price` is the cost of one task slot per hour.
  Budget(double dollars_per_hour, double pod_price);

  [[nodiscard]] static Budget unlimited(double pod_price) {
    return Budget(std::numeric_limits<double>::infinity(), pod_price);
  }

  [[nodiscard]] double dollars_per_hour() const noexcept { return dollars_per_hour_; }
  [[nodiscard]] double pod_price() const noexcept { return pod_price_; }
  [[nodiscard]] bool limited() const noexcept;

  /// Maximum total task count affordable under the budget.
  [[nodiscard]] std::size_t max_total_tasks() const noexcept;

  [[nodiscard]] double cost_of_tasks(double total_tasks) const noexcept {
    return total_tasks * pod_price_;
  }

  /// True when the summed allocation is affordable.
  [[nodiscard]] bool feasible_total(double total_tasks) const noexcept;
  [[nodiscard]] bool feasible(std::span<const int> tasks_per_operator) const noexcept;

  /// Projects an integer allocation into the feasible region: repeatedly
  /// decrements the operator with the most tasks (the first on ties, min 1
  /// task each) until the total fits.  This is the discrete analogue of
  /// Pi_X, and its one copy: DS2, the platform's preemption and the oracle
  /// call it.  Throws when the budget cannot afford one task per operator.
  [[nodiscard]] std::vector<int> project(std::vector<int> tasks_per_operator) const;

 private:
  double dollars_per_hour_;
  double pod_price_;
};

}  // namespace dragster::online
