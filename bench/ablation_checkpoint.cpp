// Ablation for the paper's Section 3.1 claim: the checkpoint stop-and-resume
// mechanism sacrifices ~5% of processing time yet autoscaling still yields a
// 5x-6x throughput improvement over the un-scaled deployment.
//
// Arms:
//   static-1      — initial 1-task-per-operator configuration, never scaled;
//   dragster      — Dragster(saddle) with the paper's 30 s checkpoint pause;
//   dragster-free — Dragster with a hypothetical zero-cost reconfiguration
//                   (the Cameo-style mechanism the paper mentions);
//   dragster-slow — 120 s checkpoints, stressing the pause sensitivity.
//
//   ./ablation_checkpoint [--minutes 300] [--seed 9]
#include "baselines/static_controller.hpp"
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace dragster;
  const common::Flags flags(argc, argv);
  const double minutes = flags.get("minutes", 300.0);
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{9}));
  flags.reject_unused();

  bench::print_header("Ablation: checkpoint cost vs autoscaling benefit (Yahoo)", seed);

  const workloads::WorkloadSpec spec = workloads::yahoo();
  const auto slots = static_cast<std::size_t>(minutes / 10.0);

  struct Arm {
    std::string label;
    double pause_s;
    bool autoscale;
  };
  const std::vector<Arm> arms{{"static-1", 30.0, false},
                              {"dragster (30s checkpoints)", 30.0, true},
                              {"dragster (free reconfig)", 0.0, true},
                              {"dragster (120s checkpoints)", 120.0, true}};

  common::Table table(
      {"arm", "tuples (1e9)", "vs static", "checkpoint time (%)", "cost ($)"});
  double static_tuples = 0.0;
  for (const Arm& arm : arms) {
    streamsim::EngineOptions options;
    options.checkpoint_pause_s = arm.pause_s;
    streamsim::Engine engine = spec.make_engine(true, options, seed);
    std::unique_ptr<core::Controller> controller;
    if (arm.autoscale)
      controller = experiments::make_controller("Dragster", online::Budget::unlimited(0.10));
    else
      controller = std::make_unique<baselines::StaticController>();
    experiments::ScenarioOptions scenario;
    scenario.slots = slots;
    const auto run = experiments::run_scenario(engine, *controller, scenario, spec.name);
    if (!arm.autoscale) static_tuples = run.total_tuples;
    double pause = 0.0;
    for (const auto& slot : run.slots) pause += slot.pause_s;
    table.add_row({arm.label, common::Table::num(run.total_tuples / 1e9, 3),
                   static_tuples > 0.0
                       ? common::Table::num(run.total_tuples / static_tuples, 2) + "x"
                       : "1.00x",
                   common::Table::num(100.0 * pause / (minutes * 60.0), 1),
                   common::Table::num(run.total_cost, 2)});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\npaper claim: checkpoints cost ~5%% of processing time while autoscaling wins\n"
      "5x-6x in throughput; free reconfiguration recovers most of the checkpoint tax.\n");
  return 0;
}
