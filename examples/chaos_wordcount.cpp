// Chaos demo: Dragster autoscaling WordCount while faults rain down.
//
// Either give an explicit fault plan or let one be sampled from the seeded
// RNG — both are reproducible bit-for-bit from the seed:
//
//   ./chaos_wordcount                                  # canonical plan
//   ./chaos_wordcount --faults "crash@15:map;dropout@20+3:shuffle_count"
//   ./chaos_wordcount --random --seed 23               # sampled chaos
//
// Prints the applied timeline, a per-slot strip chart of oracle-normalized
// throughput (with fault markers), and the recovery analytics.
#include <algorithm>
#include <cstdio>
#include <string>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "core/dragster_controller.hpp"
#include "experiments/scenario.hpp"
#include "faults/fault_plan.hpp"
#include "workloads/workloads.hpp"

int main(int argc, char** argv) {
  using namespace dragster;
  const common::Flags flags(argc, argv);
  const auto slots = static_cast<std::size_t>(flags.get("slots", std::int64_t{50}));
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{17}));
  const bool random_plan = flags.get("random", false);
  const std::string fault_spec =
      flags.get("faults", std::string("crash@15:shuffle_count;straggler@22+2*0.3:map;"
                                      "ckptfail@28*2;dropout@34+3:shuffle_count"));
  flags.reject_unused();

  const workloads::WorkloadSpec spec = workloads::wordcount();

  faults::FaultPlan plan;
  if (random_plan) {
    faults::FaultPlan::SampleOptions sample;
    sample.horizon_slots = slots;
    for (dag::NodeId id : spec.dag.operators())
      sample.operators.push_back(spec.dag.component(id).name);
    common::Rng rng(seed);
    common::Rng chaos = rng.substream("chaos");
    plan = faults::FaultPlan::sample(chaos, sample);
  } else {
    plan = faults::FaultPlan::parse(fault_spec);
  }
  std::printf("WordCount + Dragster(saddle), %zu slots, seed %llu\nfault plan: %s\n\n", slots,
              static_cast<unsigned long long>(seed),
              plan.empty() ? "(none)" : plan.to_string().c_str());

  streamsim::Engine engine = spec.make_engine(/*high=*/true, streamsim::EngineOptions{}, seed);
  core::DragsterController controller{core::DragsterOptions{}};
  faults::FaultInjector injector(plan);
  experiments::ScenarioOptions options;
  options.slots = slots;
  const experiments::RunResult run =
      experiments::run_scenario(engine, controller, options, spec.name, &injector);

  // Strip chart: oracle-normalized throughput per slot, '!' where faulty.
  std::printf("slot  ratio  0%%        50%%       100%%\n");
  for (const auto& slot : run.slots) {
    const double ratio =
        slot.oracle_throughput > 1e-9 ? slot.throughput_rate / slot.oracle_throughput : 1.0;
    const int bars = static_cast<int>(std::min(ratio, 1.2) * 25.0);
    std::printf("%4zu  %5.2f  %c ", slot.slot, ratio, slot.fault_active ? '!' : ' ');
    for (int b = 0; b < bars; ++b) std::printf("#");
    std::printf("\n");
  }

  common::Table table({"fault", "recover (slots)", "tuples lost (1e6)"});
  for (const auto& recovery : run.recoveries) {
    table.add_row({recovery.fault.event.to_string(),
                   recovery.slots_to_recover ? std::to_string(*recovery.slots_to_recover)
                                             : "never",
                   common::Table::num(recovery.tuples_lost / 1e6, 2)});
  }
  std::printf("\n%s", table.to_string().c_str());
  std::printf("\ntotal: %.3f 1e9 tuples, $%.2f; every fault observation was withheld from the "
              "GP posterior\n",
              run.total_tuples / 1e9, run.total_cost);
  return 0;
}
