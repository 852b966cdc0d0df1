// Quickstart: autoscale the WordCount pipeline with Dragster.
//
// Builds the two-operator WordCount application, runs the Dragster
// controller (online saddle point + target-tracking GP-UCB) for a few
// 10-minute slots, and prints the per-slot configuration, throughput, and
// distance from the offline-optimal throughput.
//
//   ./quickstart [--slots N] [--seed S] [--method saddle|ogd] [--high 0|1]
#include <cstdio>

#include "baselines/oracle.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "baselines/dhalion.hpp"
#include "core/dragster_controller.hpp"
#include "experiments/scenario.hpp"
#include "workloads/workloads.hpp"

int main(int argc, char** argv) {
  using namespace dragster;
  const common::Flags flags(argc, argv);
  const auto slots = static_cast<std::size_t>(flags.get("slots", std::int64_t{15}));
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{42}));
  const bool high = flags.get("high", true);
  const std::string method = flags.get("method", std::string("saddle"));
  flags.reject_unused();

  // 1. Pick a workload: WordCount = Source -> Map -> Shuffle/Count -> Sink.
  const workloads::WorkloadSpec spec = workloads::wordcount();

  // 2. Instantiate the simulated Flink/Kubernetes substrate.
  streamsim::EngineOptions engine_options;  // 600 s slots, 30 s checkpoints
  streamsim::Engine engine = spec.make_engine(high, engine_options, seed);

  // 3. Configure the controller (Dragster by default; --method dhalion runs
  //    the rule-based baseline for comparison).
  core::DragsterOptions options;
  options.method = method == "ogd" ? core::PrimalMethod::kOnlineGradient
                                   : core::PrimalMethod::kSaddlePoint;
  core::DragsterController dragster(options);
  baselines::DhalionController dhalion;
  core::Controller& controller =
      method == "dhalion" ? static_cast<core::Controller&>(dhalion)
                          : static_cast<core::Controller&>(dragster);

  // 4. Run the control loop and score each slot against the oracle.
  experiments::ScenarioOptions scenario;
  scenario.slots = slots;
  const experiments::RunResult run =
      experiments::run_scenario(engine, controller, scenario, spec.name);

  std::printf("Dragster quickstart: %s on %s (%s rate, seed %llu)\n",
              controller.name().c_str(), spec.name.c_str(), high ? "high" : "low",
              static_cast<unsigned long long>(seed));

  common::Table table({"slot", "map", "shuffle", "tuples/s", "optimal", "pct", "cost $/h"});
  for (const auto& s : run.slots) {
    table.add_row({std::to_string(s.slot), std::to_string(s.tasks[0]),
                   std::to_string(s.tasks[1]), common::Table::num(s.effective_rate, 0),
                   common::Table::num(s.oracle_throughput, 0),
                   common::Table::num(100.0 * s.effective_rate / s.oracle_throughput, 1),
                   common::Table::num(s.cost_rate, 2)});
  }
  std::printf("%s", table.to_string().c_str());

  const auto conv = experiments::convergence_minutes(run.slots, 0, run.slots.size(),
                                                     engine_options.slot_duration_s / 60.0);
  if (conv)
    std::printf("converged to within 10%% of optimal in %.0f minutes\n", *conv);
  else
    std::printf("did not converge within %zu slots\n", slots);
  std::printf("processed %.3g tuples for $%.2f\n", run.total_tuples, run.total_cost);
  return 0;
}
