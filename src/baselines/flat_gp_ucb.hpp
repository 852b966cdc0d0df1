// BO4CO-style flat Bayesian-optimization baseline (Jamshidi & Casale,
// MASCOTS'16).
//
// One joint Gaussian process over the M-dimensional configuration space,
// classic UCB acquisition on the *application throughput* — no DAG
// information, no per-operator capacity model.  The paper's related-work
// point: such DAG-blind black-box search needs far more evaluations because
// the search space is |tasks|^M instead of M independent 1-D problems.
//
// For spaces too large to enumerate (Yahoo: 10^6), each slot scores a
// uniform random sample of candidates, as BO implementations commonly do.
#pragma once

#include <optional>

#include "common/rng.hpp"
#include "core/controller.hpp"
#include "gp/acquisition.hpp"
#include "gp/gaussian_process.hpp"
#include "online/budget.hpp"

namespace dragster::baselines {

struct FlatGpUcbOptions {
  online::Budget budget = online::Budget::unlimited(0.10);
  std::size_t sample_size = 2'000;  ///< candidates per slot beyond a 20,000-point grid
};

class FlatGpUcbController final : public core::Controller {
 public:
  explicit FlatGpUcbController(FlatGpUcbOptions options = {});

  [[nodiscard]] std::string name() const override { return "BO4CO"; }

  void initialize(const streamsim::JobMonitor& monitor,
                  streamsim::ScalingActuator& actuator) override;
  void on_slot(const streamsim::JobMonitor& monitor,
               streamsim::ScalingActuator& actuator) override;

 private:
  FlatGpUcbOptions options_;
  std::optional<gp::GaussianProcess> gp_;
  std::vector<dag::NodeId> ops_;
  double scale_ = 0.0;
  std::size_t slot_ = 0;
  common::Rng rng_;
};

}  // namespace dragster::baselines
