// Crash-tolerant autoscaling: Dragster wrapped in a ControllerSupervisor.
//
// The supervisor snapshots the controller's learned state every few slots,
// validates every decision against health invariants, and survives the
// injected controller crashes by restoring from the latest snapshot and
// replaying the missed observations.  Compare the printed supervisor stats
// against the same run without --crashes to see what recovery costs.
//
//   ./supervised_autoscale                       # two crashes mid-run
//   ./supervised_autoscale --crashes "ctrlcrash@12"
//   ./supervised_autoscale --crashes "" --slots 40
#include <cstdio>
#include <memory>
#include <string>

#include "common/flags.hpp"
#include "core/dragster_controller.hpp"
#include "experiments/scenario.hpp"
#include "faults/fault_plan.hpp"
#include "resilience/supervisor.hpp"
#include "workloads/workloads.hpp"

int main(int argc, char** argv) {
  using namespace dragster;
  const common::Flags flags(argc, argv);
  const auto slots = static_cast<std::size_t>(flags.get("slots", std::int64_t{30}));
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{17}));
  const std::string plan_text =
      flags.get("crashes", std::string("ctrlcrash@10;ctrlcrash@20"));
  flags.reject_unused();

  const workloads::WorkloadSpec spec = workloads::wordcount();
  streamsim::Engine engine = spec.make_engine(/*high=*/true, streamsim::EngineOptions{}, seed);

  resilience::SupervisorOptions supervision;
  supervision.snapshot_every = 3;
  resilience::ControllerSupervisor controller(
      std::make_unique<core::DragsterController>(core::DragsterOptions{}), supervision);

  const faults::FaultPlan plan =
      plan_text.empty() ? faults::FaultPlan() : faults::FaultPlan::parse(plan_text);
  faults::FaultInjector injector(plan);

  std::printf("WordCount + %s, %zu slots, seed %llu\ncrash plan: %s\n\n",
              controller.name().c_str(), slots, static_cast<unsigned long long>(seed),
              plan.empty() ? "(none)" : plan.to_string().c_str());

  experiments::ScenarioOptions options;
  options.slots = slots;
  const experiments::RunResult run =
      experiments::run_scenario(engine, controller, options, spec.name, &injector);

  std::printf("slot  tuples/s   vs oracle\n");
  for (const auto& slot : run.slots) {
    const double ratio =
        slot.oracle_throughput > 0.0 ? slot.throughput_rate / slot.oracle_throughput : 0.0;
    std::printf("%4zu  %9.0f  %5.2f %s\n", slot.slot, slot.throughput_rate, ratio,
                slot.fault_active ? "!" : "");
  }

  const resilience::SupervisorStats& stats = controller.stats();
  std::printf("\nsupervisor: %zu snapshots, %zu crashes, %zu restores (%zu frames replayed), "
              "%zu safe-mode slots, %zu invariant trips\n",
              stats.snapshots_taken, stats.crashes_injected, stats.restores,
              stats.replayed_frames, stats.safe_mode_slots, stats.invariant_trips);
  for (const std::string& trip : stats.trip_log) std::printf("  trip: %s\n", trip.c_str());
  std::printf("total: %.3fe9 tuples, $%.2f, final state %s\n", run.total_tuples / 1e9,
              run.total_cost, to_string(controller.state()));
  return 0;
}
