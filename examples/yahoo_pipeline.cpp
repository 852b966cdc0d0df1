// Yahoo streaming benchmark end-to-end: a six-operator advertising pipeline
// (deserialize -> filter -> project -> campaign join -> window count ->
// redis writer) autoscaled by Dragster while the input rate steps up
// mid-run.  Prints a per-slot view of every operator's task count,
// utilization and backlog — the "operator dashboard" a stream-platform
// operator would watch.
//
//   ./yahoo_pipeline [--minutes 400] [--step 200] [--seed 23] [--method saddle|ogd]
#include <cstdio>

#include "common/flags.hpp"
#include "core/dragster_controller.hpp"
#include "workloads/workloads.hpp"

int main(int argc, char** argv) {
  using namespace dragster;
  const common::Flags flags(argc, argv);
  const double minutes = flags.get("minutes", 400.0);
  const double step_min = flags.get("step", 200.0);
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{23}));
  const std::string method = flags.get("method", std::string("saddle"));
  flags.reject_unused();

  const workloads::WorkloadSpec spec = workloads::yahoo();

  // The input rate steps from the low to the high regime at --step minutes.
  std::map<dag::NodeId, std::unique_ptr<streamsim::RateSchedule>> schedules;
  for (const auto& [id, low] : spec.low_rate) {
    schedules[id] = std::make_unique<streamsim::PiecewiseRate>(
        std::vector<streamsim::PiecewiseRate::Segment>{{0.0, low},
                                                       {step_min * 60.0,
                                                        spec.high_rate.at(id)}});
  }
  streamsim::Engine engine =
      spec.make_engine_with(std::move(schedules), streamsim::EngineOptions{}, seed);

  core::DragsterOptions options;
  if (method == "ogd") options.method = core::PrimalMethod::kOnlineGradient;
  core::DragsterController controller(options);
  const streamsim::JobMonitor monitor = engine.monitor();
  controller.initialize(monitor, engine);

  const auto operators = spec.dag.operators();
  std::printf("Yahoo pipeline autoscaled by %s; input steps up at %.0f min\n\n",
              controller.name().c_str(), step_min);
  std::printf("%5s | %9s |", "min", "tuples/s");
  for (dag::NodeId id : operators) std::printf(" %14.14s |", spec.dag.component(id).name.c_str());
  std::printf("\n");

  const auto slots = static_cast<std::size_t>(minutes / 10.0);
  for (std::size_t t = 0; t < slots; ++t) {
    const streamsim::SlotReport& report = engine.run_slot();
    controller.on_slot(monitor, engine);
    std::printf("%5.0f | %9.0f |", report.start_seconds / 60.0 + 10.0, report.throughput_rate);
    for (dag::NodeId id : operators) {
      const auto& m = report.per_node[id];
      // tasks, utilization%, and a backlog marker when buffers are growing.
      std::printf(" %2d  %3.0f%% %5.5s |", m.tasks, 100.0 * m.cpu_utilization,
                  m.backlog_end > m.backlog_start + 1.0 ? "queue" : "");
    }
    std::printf("\n");
  }

  std::printf("\nprocessed %.3g tuples for $%.2f (%.1f pods-hours equivalent)\n",
              engine.total_tuples(), engine.total_cost(), engine.total_cost() / 0.10);
  return 0;
}
