// Traced run: the observability layer end to end on a chaos WordCount run.
//
// Attaches an obs::Registry (with a JSONL trace sink) to a supervised,
// actuated Dragster run under the canonical fault plan, then prints a sample
// of the structured trace and the full Prometheus exposition.  Because every
// trace timestamp is a slot index and every value derives from the seed, the
// same invocation emits a byte-identical trace every time — diff two traces
// to bisect a behavior change to the exact slot and operator.
//
//   ./traced_run [--slots 40] [--seed 17] [--trace-jsonl run.jsonl]
//                [--metrics metrics.prom]
#include <cstdio>
#include <string>
#include <vector>

#include "actuation/actuation.hpp"
#include "common/flags.hpp"
#include "core/dragster_controller.hpp"
#include "experiments/scenario.hpp"
#include "faults/fault_plan.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "resilience/supervisor.hpp"
#include "workloads/workloads.hpp"

int main(int argc, char** argv) {
  using namespace dragster;
  const common::Flags flags(argc, argv);
  const auto slots = static_cast<std::size_t>(flags.get("slots", std::int64_t{40}));
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{17}));
  const std::string trace_path = flags.get("trace-jsonl", std::string());
  const std::string metrics_path = flags.get("metrics", std::string());
  flags.reject_unused();

  const workloads::WorkloadSpec spec = workloads::wordcount();
  const faults::FaultPlan plan = faults::FaultPlan::parse(
      "crash@15:shuffle_count;straggler@22+2*0.3:map;"
      "ckptfail@28*2;dropout@34+3:shuffle_count;ctrlcrash@20");

  std::printf("WordCount, all layers traced: supervisor + actuation + Dragster, %zu slots, "
              "seed %llu\nfault plan: %s\n\n",
              slots, static_cast<unsigned long long>(seed), plan.to_string().c_str());

  // The in-memory sink keeps the whole trace for inspection; --trace-jsonl
  // streams it to a file instead (what the figure binaries do).
  obs::Registry registry;
  obs::MemoryTraceSink memory;
  std::unique_ptr<obs::FileTraceSink> file;
  if (trace_path.empty()) {
    registry.set_trace(&memory);
  } else {
    file = std::make_unique<obs::FileTraceSink>(trace_path);
    registry.set_trace(file.get());
  }

  streamsim::Engine engine = spec.make_engine(/*high=*/true, streamsim::EngineOptions{}, seed);
  actuation::ActuationManager manager(engine, actuation::ActuationOptions{}, seed);
  resilience::SupervisorOptions sup;
  sup.snapshot_every = 5;
  resilience::ControllerSupervisor controller(
      std::make_unique<core::DragsterController>(core::DragsterOptions{}), sup);
  faults::FaultInjector injector(plan);
  experiments::ScenarioOptions options;
  options.slots = slots;
  const experiments::RunResult run = experiments::run_scenario(
      engine, controller, options, spec.name, &injector, &manager, &registry);

  if (trace_path.empty()) {
    std::vector<std::string> lines;
    const std::string& text = memory.str();
    for (std::size_t pos = 0; pos < text.size();) {
      const std::size_t end = text.find('\n', pos);
      lines.emplace_back(text.substr(pos, end - pos));
      pos = end + 1;
    }
    std::printf("trace: %zu events; a sample (first 3, one mid-run decision, last 3):\n",
                lines.size());
    auto show = [&](std::size_t i) { std::printf("  %s\n", lines[i].c_str()); };
    for (std::size_t i = 0; i < 3 && i < lines.size(); ++i) show(i);
    for (std::size_t i = 3; i < lines.size(); ++i) {
      if (lines[i].find("\"type\":\"decision\"") == std::string::npos) continue;
      std::printf("  ...\n");
      show(i);
      break;
    }
    if (lines.size() > 6) {
      std::printf("  ...\n");
      for (std::size_t i = lines.size() - 3; i < lines.size(); ++i) show(i);
    }
  } else {
    std::printf("trace streamed to %s\n", trace_path.c_str());
  }

  const std::string exposition = registry.expose();
  if (metrics_path.empty()) {
    std::printf("\nPrometheus exposition:\n%s", exposition.c_str());
  } else if (std::FILE* out = std::fopen(metrics_path.c_str(), "w")) {
    std::fwrite(exposition.data(), 1, exposition.size(), out);
    std::fclose(out);
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }

  std::printf("\ntotal: %.3f 1e9 tuples, $%.2f; re-run with the same seed and diff the "
              "trace — it is byte-identical\n",
              run.total_tuples / 1e9, run.total_cost);
  return 0;
}
