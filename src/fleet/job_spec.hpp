// Fleet job description: everything needed to wire one tenant of the shared
// cluster — topology + offered load (a workloads::WorkloadSpec), the per-job
// controller kind (the lower layer of the two-layer framework stays
// pluggable), scheduling weight, SLO, optional resilience/actuation layers,
// and an optional chaos plan.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "actuation/actuation.hpp"
#include "core/controller.hpp"
#include "online/budget.hpp"
#include "streamsim/engine.hpp"
#include "transport/transport.hpp"
#include "workloads/workloads.hpp"

namespace dragster::fleet {

/// Per-job service-level objective.  A slot misses when the end-to-end
/// queueing-latency estimate exceeds `max_latency_s`.
struct JobSlo {
  double max_latency_s = 60.0;
};

struct JobSpec {
  /// Unique within the fleet; becomes the "job" label on metrics and trace
  /// events and the deployment prefix on the shared cluster ledger.
  std::string name;
  workloads::WorkloadSpec workload;
  bool high_rate = true;
  /// "Dragster" / "Dragster(saddle)" / "Dragster(ogd)" / "DS2" / "Dhalion".
  std::string controller = "Dragster";
  /// Arbiter priority weight (> 0).  Higher-weight jobs receive
  /// proportionally more of the surplus budget and may evict strictly
  /// lower-weight jobs when admission is full.
  double weight = 1.0;
  JobSlo slo;
  /// First slot the job is eligible for admission (staggered arrivals).
  std::size_t arrival_slot = 0;
  /// Wrap the controller in a resilience::ControllerSupervisor.
  bool supervised = false;
  /// Route scaling actions through an actuation::ActuationManager.
  bool managed = false;
  actuation::ActuationOptions actuation;
  /// Run the control loop over an unreliable transport::TransportHarness
  /// (per-job channels; the `net*` fleet chaos kinds act on them).
  bool transported = false;
  transport::TransportOptions transport;
  /// Chaos grammar (faults::FaultPlan::parse); empty = fault-free.
  std::string fault_plan;
  streamsim::EngineOptions engine;

  /// One pod per operator — the minimum footprint a running job occupies.
  [[nodiscard]] int floor_pods() const {
    return static_cast<int>(workload.operator_count());
  }
  /// Every operator at max parallelism — the most the job could ever deploy.
  [[nodiscard]] int cap_pods() const {
    return static_cast<int>(workload.operator_count()) * engine.max_tasks;
  }
};

/// The job's lower-layer controller, experiments::make_controller(spec.controller,
/// budget), wrapped in a ControllerSupervisor when the spec asks for one.
/// Throws dragster::Error on an unknown kind.
[[nodiscard]] std::unique_ptr<core::Controller> make_job_controller(
    const JobSpec& spec, const online::Budget& budget);

}  // namespace dragster::fleet
