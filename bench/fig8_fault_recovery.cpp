// Figure 8 (extension beyond the paper): fault recovery on WordCount.
//
// Runs Dragster against DS2 and Dhalion under a canonical seeded fault plan
// — a pod crash, a straggler window, a crash whose repair checkpoint fails
// twice, and a metric outage, all aimed at the bottleneck shuffle stage —
// and reports per-fault recovery analytics: the oracle-normalized throughput
// level before the fault, slots until the controller regains 90% of it, and
// tuples lost to the dip.  Everything derives from the one seed, so the same
// invocation prints byte-identical output every time.
//
//   ./fig8_fault_recovery [--slots 60] [--seed 17] [--faults <spec>]
//                         [--csv fig8.csv] [--json BENCH_fig8.json]
//                         [--trace-jsonl run.jsonl] [--metrics metrics.prom]
#include <fstream>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "faults/fault_plan.hpp"

namespace {

// Crash, straggler, crash+failed-checkpoint, metric outage — spaced so each
// recovery is attributable, after a warmup that lets the GP converge.
const char* kCanonicalPlan =
    "crash@20*2:shuffle_count;"
    "straggler@28+2*0.3:shuffle_count;"
    "crash@36:shuffle_count;ckptfail@36*2;"
    "dropout@44+3:shuffle_count";

}  // namespace

int main(int argc, char** argv) {
  using namespace dragster;
  const common::Flags flags(argc, argv);
  const auto slots = static_cast<std::size_t>(flags.get("slots", std::int64_t{60}));
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{17}));
  const std::string spec_text = flags.get("faults", std::string(kCanonicalPlan));
  const std::string csv_path = flags.get("csv", std::string(""));
  const std::string json_path = flags.get("json", std::string(""));
  bench::Observability obs(flags);
  flags.reject_unused();

  bench::print_header("Figure 8: fault recovery on WordCount", seed);
  const faults::FaultPlan plan = faults::FaultPlan::parse(spec_text);
  std::printf("fault plan: %s\n\n", plan.to_string().c_str());

  const workloads::WorkloadSpec spec = workloads::wordcount();
  const std::vector<std::string> schemes{"Dhalion", "DS2", "Dragster(saddle)"};

  std::vector<experiments::RunResult> runs;
  for (const std::string& name : schemes) {
    streamsim::Engine engine = spec.make_engine(/*high=*/true, streamsim::EngineOptions{}, seed);
    auto controller = experiments::make_controller(name, online::Budget::unlimited(0.10));
    faults::FaultInjector injector(plan);
    experiments::ScenarioOptions options;
    options.slots = slots;
    runs.push_back(experiments::run_scenario(engine, *controller, options, spec.name, &injector,
                                             nullptr, obs.registry()));
  }

  common::Table table({"scheme", "fault", "pre-fault (x oracle)", "recover (slots)",
                       "tuples lost (1e6)"});
  for (const auto& run : runs) {
    for (const auto& recovery : run.recoveries) {
      table.add_row({run.controller, recovery.fault.event.to_string(),
                     common::Table::num(recovery.pre_fault_ratio, 3),
                     recovery.slots_to_recover ? std::to_string(*recovery.slots_to_recover) : "never",
                     common::Table::num(recovery.tuples_lost / 1e6, 2)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());

  common::Table totals({"scheme", "total tuples (1e9)", "total cost ($)",
                        "tuples lost to faults (1e6)", "worst recovery (slots)"});
  for (const auto& run : runs) {
    double lost = 0.0;
    std::size_t worst = 0;
    bool unrecovered = false;
    for (const auto& recovery : run.recoveries) {
      lost += recovery.tuples_lost;
      if (recovery.slots_to_recover)
        worst = std::max(worst, *recovery.slots_to_recover);
      else
        unrecovered = true;
    }
    totals.add_row({run.controller, common::Table::num(run.total_tuples / 1e9, 3),
                    common::Table::num(run.total_cost, 2), common::Table::num(lost / 1e6, 2),
                    unrecovered ? "never" : std::to_string(worst)});
  }
  std::printf("%s", totals.to_string().c_str());

  // The acceptance bar this bench exists to demonstrate: Dragster back at
  // >= 90% of its pre-fault oracle-normalized throughput within 5 slots of
  // every injected fault.
  for (const auto& run : runs) {
    if (run.controller.rfind("Dragster", 0) != 0) continue;
    bool ok = true;
    for (const auto& recovery : run.recoveries)
      ok = ok && recovery.slots_to_recover.has_value() && *recovery.slots_to_recover <= 5;
    std::printf("\n%s recovery within 5 slots of every fault: %s\n", run.controller.c_str(),
                ok ? "PASS" : "FAIL");
  }

  if (!json_path.empty()) {
    // Simulated quantities only, so same-seed invocations emit byte-identical
    // JSON — the shape the baseline schema gate under bench/baselines/ pins.
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"fig8_fault_recovery\",\n";
    out << "  \"slots\": " << slots << ",\n  \"seed\": " << seed << ",\n";
    out << "  \"fault_plan\": \"" << plan.to_string() << "\",\n";
    out << "  \"schemes\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const auto& run = runs[i];
      double lost = 0.0;
      for (const auto& recovery : run.recoveries) lost += recovery.tuples_lost;
      out << "    {\"scheme\": \"" << run.controller
          << "\", \"total_tuples\": " << run.total_tuples
          << ", \"total_cost\": " << run.total_cost << ", \"tuples_lost\": " << lost
          << ", \"recoveries\": [";
      for (std::size_t r = 0; r < run.recoveries.size(); ++r) {
        const auto& recovery = run.recoveries[r];
        out << (r ? ", " : "") << "{\"fault\": \"" << recovery.fault.event.to_string()
            << "\", \"pre_fault_ratio\": " << recovery.pre_fault_ratio
            << ", \"slots_to_recover\": "
            << (recovery.slots_to_recover
                    ? std::to_string(*recovery.slots_to_recover)
                    : std::string("null"))
            << ", \"tuples_lost\": " << recovery.tuples_lost << "}";
      }
      out << "]}" << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("recovery summary written to %s\n", json_path.c_str());
  }

  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    common::CsvWriter csv(out);
    csv.write_row(std::vector<std::string>{"scheme", "slot", "tuples_per_s", "oracle_per_s",
                                           "fault_active"});
    for (const auto& run : runs)
      for (const auto& slot : run.slots)
        csv.write_row(std::vector<std::string>{
            run.controller, std::to_string(slot.slot), common::Table::num(slot.throughput_rate, 2),
            common::Table::num(slot.oracle_throughput, 2), slot.fault_active ? "1" : "0"});
    std::printf("per-slot series written to %s\n", csv_path.c_str());
  }
  return 0;
}
