// Dhalion baseline (Floratou et al., VLDB'17) as described in the paper:
//
//   "Dhalion linearly increases the number of tasks for an operator
//    suffering from the backpressure and removes the idle one if its CPU
//    utilization is lower than a threshold."
//   "At each time slot, Dhalion selects one operator to adjust its
//    configuration."
//
// Symptom -> diagnosis -> resolution, one action per slot:
//   * any backpressured operator  -> +1 task on the first backpressured
//     operator in topological order (upstream pressure is resolved first,
//     which is exactly what traps it under a tight budget: the upstream
//     operator soaks up pods the downstream one needed);
//   * otherwise, the least-utilized operator below 50% CPU -> -1 task.
// Scale-ups that would exceed the budget are skipped (the freeze the paper
// observes in Fig. 4d).
#pragma once

#include "core/controller.hpp"
#include "online/budget.hpp"

namespace dragster::baselines {

struct DhalionOptions {
  online::Budget budget = online::Budget::unlimited(0.10);
};

class DhalionController final : public core::Controller {
 public:
  explicit DhalionController(DhalionOptions options = {});

  [[nodiscard]] std::string name() const override { return "Dhalion"; }

  void on_slot(const streamsim::JobMonitor& monitor,
               streamsim::ScalingActuator& actuator) override;

  void set_budget(const online::Budget& budget) override { options_.budget = budget; }
  /// Binary pressure proxy: 1 while the last slot froze a backpressure
  /// scale-up for lack of budget, else 0.
  [[nodiscard]] double budget_pressure() const override { return frozen_ ? 1.0 : 0.0; }

 private:
  DhalionOptions options_;
  bool frozen_ = false;
};

}  // namespace dragster::baselines
