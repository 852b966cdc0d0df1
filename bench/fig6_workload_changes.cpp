// Reproduces paper Figure 6: WordCount throughput over 1000 minutes with
// the offered load flipping high/low every 200 minutes (the controllers are
// not notified).  Emits one (time, tuples/s) series per scheme — the 10-min
// checkpoint dips, the 200-min steps, and Dragster's fast re-convergence on
// repeated phases are all visible in the series — plus a compact summary.
//
//   ./fig6_workload_changes [--minutes 1000] [--period 200] [--seed 17]
//                           [--csv fig6.csv]
#include <fstream>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/stats.hpp"

int main(int argc, char** argv) {
  using namespace dragster;
  const common::Flags flags(argc, argv);
  const double minutes = flags.get("minutes", 1000.0);
  const double period = flags.get("period", 200.0);
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{17}));
  const std::string csv_path = flags.get("csv", std::string(""));
  flags.reject_unused();

  bench::print_header("Figure 6: WordCount throughput under workload changes", seed);
  std::printf("load flips high/low every %.0f min over %.0f min\n\n", period, minutes);

  const workloads::WorkloadSpec spec = workloads::wordcount();
  const auto slots = static_cast<std::size_t>(minutes / 10.0);

  std::vector<experiments::RunResult> runs;
  for (const auto& name : bench::scheme_names()) {
    std::map<dag::NodeId, std::unique_ptr<streamsim::RateSchedule>> schedules;
    for (const auto& [id, high] : spec.high_rate)
      schedules[id] = std::make_unique<streamsim::AlternatingRate>(high, spec.low_rate.at(id),
                                                                   period * 60.0);
    streamsim::Engine engine =
        spec.make_engine_with(std::move(schedules), streamsim::EngineOptions{}, seed);
    auto controller = experiments::make_controller(name, online::Budget::unlimited(0.10));
    experiments::ScenarioOptions options;
    options.slots = slots;
    runs.push_back(experiments::run_scenario(engine, *controller, options, spec.name));
  }

  // Print a decimated series (one sample per 10 min) per scheme.
  std::printf("throughput series (tuples/s, one column per scheme, every 10 min):\n");
  std::printf("%8s %18s %18s %18s\n", "min", "Dhalion", "Dragster(saddle)", "Dragster(ogd)");
  for (std::size_t s = 0; s < slots; ++s) {
    std::printf("%8.0f", runs[0].slots[s].start_seconds / 60.0 + 10.0);
    for (const auto& run : runs) std::printf(" %18.0f", run.slots[s].throughput_rate);
    std::printf("\n");
  }

  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    common::CsvWriter csv(out);
    csv.write_row(std::vector<std::string>{"scheme", "seconds", "tuples_per_s"});
    for (const auto& run : runs)
      for (const auto& [t, rate] : run.series)
        csv.write_row(std::vector<std::string>{run.controller, common::Table::num(t, 1),
                                               common::Table::num(rate, 2)});
    std::printf("\nfull 1-minute-resolution series written to %s\n", csv_path.c_str());
  }

  common::Table summary({"scheme", "total tuples (1e9)", "total cost ($)",
                         "checkpoint time (%)", "median latency (s)", "p95 latency (s)"});
  for (const auto& run : runs) {
    double pause = 0.0;
    std::vector<double> latencies;
    for (const auto& slot : run.slots) {
      pause += slot.pause_s;
      latencies.push_back(slot.latency_s);
    }
    summary.add_row({run.controller, common::Table::num(run.total_tuples / 1e9, 3),
                     common::Table::num(run.total_cost, 2),
                     common::Table::num(100.0 * pause / (minutes * 60.0), 1),
                     common::Table::num(common::percentile(latencies, 0.5), 1),
                     common::Table::num(common::percentile(latencies, 0.95), 1)});
  }
  std::printf("\n%s", summary.to_string().c_str());
  std::printf(
      "\npaper shape: throughput dips briefly at reconfigurations, steps every %.0f min;\n"
      "Dragster re-converges within 1-2 slots on repeated phases and processes more\n"
      "tuples overall (paper: 20.0%%-25.8%% goodput gain).\n",
      period);
  return 0;
}
