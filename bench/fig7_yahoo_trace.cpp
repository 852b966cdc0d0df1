// Reproduces paper Figure 7: the Yahoo streaming benchmark (six operators,
// one million candidate configurations) over 600 minutes with the input
// rate stepped up at minute 300 without notifying the controllers.
//
//   ./fig7_yahoo_trace [--minutes 600] [--step 300] [--seed 23] [--csv f7.csv]
//
// The run needs 10 <= minutes and 0 < step < minutes, so that both
// convergence windows hold slots; other values throw dragster::Error naming
// the two flags before any scheme runs.
#include <cstdio>
#include <fstream>
#include <string>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"

int main(int argc, char** argv) {
  using namespace dragster;
  const common::Flags flags(argc, argv);
  const double minutes = flags.get("minutes", 600.0);
  const double step_min = flags.get("step", 300.0);
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{23}));
  const std::string csv_path = flags.get("csv", std::string(""));
  flags.reject_unused();
  if (!(10.0 <= minutes && 0.0 < step_min && step_min < minutes)) {
    char got[96];
    std::snprintf(got, sizeof(got), "--minutes %g --step %g", minutes, step_min);
    throw Error(std::string("flags --minutes and --step need 10 <= minutes and ") +
                "0 < step < minutes, got " + got);
  }

  bench::print_header("Figure 7: Yahoo streaming benchmark trace", seed);
  std::printf("low rate for %.0f min, then stepped to the high rate (not announced)\n\n",
              step_min);

  const workloads::WorkloadSpec spec = workloads::yahoo();
  const auto slots = static_cast<std::size_t>(minutes / 10.0);

  std::vector<experiments::RunResult> runs;
  for (const auto& name : bench::scheme_names()) {
    std::map<dag::NodeId, std::unique_ptr<streamsim::RateSchedule>> schedules;
    for (const auto& [id, low] : spec.low_rate) {
      schedules[id] = std::make_unique<streamsim::PiecewiseRate>(
          std::vector<streamsim::PiecewiseRate::Segment>{
              {0.0, low}, {step_min * 60.0, spec.high_rate.at(id)}});
    }
    streamsim::Engine engine =
        spec.make_engine_with(std::move(schedules), streamsim::EngineOptions{}, seed);
    auto controller = experiments::make_controller(name, online::Budget::unlimited(0.10));
    experiments::ScenarioOptions options;
    options.slots = slots;
    runs.push_back(experiments::run_scenario(engine, *controller, options, spec.name));
  }

  std::printf("throughput series (tuples/s at the sink, every 10 min):\n");
  std::printf("%8s %18s %18s %18s %10s\n", "min", "Dhalion", "Dragster(saddle)",
              "Dragster(ogd)", "optimal");
  for (std::size_t s = 0; s < slots; ++s) {
    std::printf("%8.0f", runs[0].slots[s].start_seconds / 60.0 + 10.0);
    for (const auto& run : runs) std::printf(" %18.0f", run.slots[s].throughput_rate);
    std::printf(" %10.0f\n", runs[0].slots[s].oracle_throughput);
  }

  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    common::CsvWriter csv(out);
    csv.write_row(std::vector<std::string>{"scheme", "seconds", "tuples_per_s"});
    for (const auto& run : runs)
      for (const auto& [t, rate] : run.series)
        csv.write_row(std::vector<std::string>{run.controller, common::Table::num(t, 1),
                                               common::Table::num(rate, 2)});
    std::printf("\nfull series written to %s\n", csv_path.c_str());
  }

  const auto step_slot = static_cast<std::size_t>(step_min / 10.0);
  common::Table summary({"scheme", "converge phase 1 (min)", "converge after step (min)"});
  for (const auto& run : runs) {
    summary.add_row(
        {run.controller,
         bench::fmt_min(experiments::convergence_minutes(run.slots, 0, step_slot, 10.0)),
         bench::fmt_min(experiments::convergence_minutes(run.slots, step_slot, slots, 10.0))});
  }
  std::printf("\n%s", summary.to_string().c_str());
  std::printf(
      "\npaper shape: Dragster(saddle) converges ~2.2x faster than Dhalion on this\n"
      "six-operator application (110 vs 240 min) and needs 30 vs 90 min after the\n"
      "unannounced rate step.\n");
  return 0;
}
