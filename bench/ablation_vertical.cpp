// Extension ablation: horizontal-only (HPA) vs joint horizontal+vertical
// (HPA+VPA) scaling — the paper's system uses both Kubernetes autoscalers
// but only evaluates task-count scaling; this bench exercises the vertical
// dimension on a state-heavy operator whose throughput is *memory-capped*
// on the default 1-CPU/2-GB slots.
//
// The hidden surface: 5k tuples/s/task USL, but each task can hold state
// for only 2.5k tuples/s per 2 GB of pod memory.  30k offered tuples/s is
// unreachable with ten 1-CPU pods (ceiling 25k) yet easy with 2-CPU/4-GB
// pods; Dragster's 2-D (tasks x cpu) GP must discover that.
//
//   ./ablation_vertical [--slots 18] [--seed 6]
#include "bench_util.hpp"

namespace {

using namespace dragster;

workloads::WorkloadSpec memory_bound_spec() {
  workloads::WorkloadSpec spec;
  spec.name = "MemoryBound";
  const auto src = spec.dag.add_source("src");
  const auto op = spec.dag.add_operator("stateful");
  const auto sink = spec.dag.add_sink("sink");
  spec.dag.add_edge(src, op, dag::identity_fn());
  spec.dag.add_edge(op, sink, dag::identity_fn());
  spec.dag.validate();
  streamsim::UslParams usl;
  usl.per_task_rate = 5'000.0;
  usl.contention = 0.05;
  usl.coherence = 0.0;
  usl.memory_gb_per_10k = 8.0;  // 2 GB pod -> 2.5k tuples/s ceiling per task
  spec.usl[op] = usl;
  spec.high_rate[src] = 30'000.0;
  spec.low_rate[src] = 10'000.0;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const common::Flags flags(argc, argv);
  const auto slots = static_cast<std::size_t>(flags.get("slots", std::int64_t{18}));
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{6}));
  flags.reject_unused();

  bench::print_header("Ablation: horizontal-only vs horizontal+vertical scaling", seed);
  std::printf("memory-capped operator, 30k tuples/s offered; 1-CPU pods cap at 25k total\n\n");

  const workloads::WorkloadSpec spec = memory_bound_spec();
  common::Table table({"controller", "final tuples/s", "pods (n x cpu)", "cost ($/h)",
                       "tuples (1e9)"});

  for (const bool vertical : {false, true}) {
    streamsim::Engine engine = spec.make_engine(true, streamsim::EngineOptions{}, seed);
    core::DragsterOptions options;
    options.enable_vertical = vertical;
    core::DragsterController controller(options);
    experiments::ScenarioOptions scenario;
    scenario.slots = slots;
    const auto run = experiments::run_scenario(engine, controller, scenario, spec.name);

    const auto op = *spec.dag.find("stateful");
    const auto spec_now = engine.pod_spec(op);
    table.add_row(
        {vertical ? "Dragster HPA+VPA" : "Dragster HPA only",
         common::Table::num(run.slots.back().effective_rate, 0),
         std::to_string(engine.tasks(op)) + " x " + common::Table::num(spec_now.cpu_cores, 1) +
             " cpu",
         common::Table::num(run.slots.back().cost_rate, 2),
         common::Table::num(run.total_tuples / 1e9, 3)});
  }

  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nshape to verify: HPA-only saturates below the offered 30k tuples/s; the\n"
      "joint (tasks, cpu) search finds bigger pods and meets the load.\n");
  return 0;
}
