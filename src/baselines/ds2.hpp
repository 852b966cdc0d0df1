// DS2-style linear scaling baseline (Kalavri et al., OSDI'18).
//
// DS2 estimates each operator's "true processing rate" per task and sets the
// parallelism proportionally to the observed demand:
//   tasks' = ceil(1.1 * demand / per_task_rate_estimate)   (10% headroom)
// applied to every operator at once.  It assumes linear scaling — no USL
// contention — which is exactly the assumption the paper criticizes; on the
// retrograde-scaling operators DS2 over-provisions without gaining
// throughput.
#pragma once

#include "core/controller.hpp"
#include "online/budget.hpp"

namespace dragster::baselines {

struct Ds2Options {
  online::Budget budget = online::Budget::unlimited(0.10);
};

class Ds2Controller final : public core::Controller {
 public:
  explicit Ds2Controller(Ds2Options options = {});

  [[nodiscard]] std::string name() const override { return "DS2"; }

  void on_slot(const streamsim::JobMonitor& monitor,
               streamsim::ScalingActuator& actuator) override;

  void set_budget(const online::Budget& budget) override { options_.budget = budget; }
  /// Coarse pressure proxy: how far the last unprojected demand-proportional
  /// plan exceeded what the budget could buy, relative to the cap.
  [[nodiscard]] double budget_pressure() const override { return pressure_; }

 private:
  Ds2Options options_;
  double pressure_ = 0.0;
};

}  // namespace dragster::baselines
