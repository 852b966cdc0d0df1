#include "fleet/job_spec.hpp"

#include "experiments/scenario.hpp"
#include "resilience/supervisor.hpp"

namespace dragster::fleet {

std::unique_ptr<core::Controller> make_job_controller(const JobSpec& spec,
                                                      const online::Budget& budget) {
  std::unique_ptr<core::Controller> inner = experiments::make_controller(spec.controller, budget);
  if (!spec.supervised) return inner;
  resilience::SupervisorOptions sup;
  sup.budget = budget;
  return std::make_unique<resilience::ControllerSupervisor>(std::move(inner), sup);
}

}  // namespace dragster::fleet
