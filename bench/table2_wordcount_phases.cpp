// Reproduces paper Table 2: per-200-minute phase statistics for WordCount
// under the alternating high/low load of Figure 6 — convergence time,
// number of processed tuples, and cost per billion tuples for Dhalion and
// both Dragster variants.
//
//   ./table2_wordcount_phases [--minutes 1000] [--period 200] [--seed 17]
#include "bench_util.hpp"

int main(int argc, char** argv) {
  using namespace dragster;
  const common::Flags flags(argc, argv);
  const double minutes = flags.get("minutes", 1000.0);
  const double period = flags.get("period", 200.0);
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{17}));
  flags.reject_unused();

  bench::print_header("Table 2: WordCount phase statistics under workload changes", seed);

  const workloads::WorkloadSpec spec = workloads::wordcount();
  const auto slots = static_cast<std::size_t>(minutes / 10.0);
  const auto slots_per_phase = static_cast<std::size_t>(period / 10.0);
  const std::size_t phases = slots / slots_per_phase;

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

  // Rows follow the paper's Table 2 layout: one metric per row, one phase
  // per column.
  std::vector<std::string> header{"metric"};
  for (std::size_t p = 0; p < phases; ++p)
    header.push_back(common::Table::num(static_cast<double>(p) * period, 0) + "-" +
                     common::Table::num(static_cast<double>(p + 1) * period, 0) + " min");
  common::Table table(header);

  std::vector<std::string> load_row{"offered workload"};
  for (std::size_t p = 0; p < phases; ++p) load_row.push_back(p % 2 == 0 ? "high" : "low");
  table.add_row(load_row);

  auto metric_row = [&](const std::string& label,
                        const std::function<std::string(const experiments::PhaseStats&)>& fmt,
                        const experiments::RunResult& run) {
    std::vector<std::string> row{label};
    for (std::size_t p = 0; p < phases; ++p) {
      const auto stats =
          experiments::analyze_phase(run, p * slots_per_phase, (p + 1) * slots_per_phase, 10.0);
      row.push_back(fmt(stats));
    }
    table.add_row(row);
  };

  for (const auto& run : runs)
    metric_row("convergence: " + run.controller + " (min)",
               [](const experiments::PhaseStats& s) { return bench::fmt_min(s.convergence_min); },
               run);
  for (const auto& run : runs)
    metric_row("tuples: " + run.controller + " (1e9)",
               [](const experiments::PhaseStats& s) {
                 return common::Table::num(s.tuples / 1e9, 3);
               },
               run);
  for (const auto& run : runs)
    metric_row("cost/1e9 tuples: " + run.controller + " ($)",
               [](const experiments::PhaseStats& s) {
                 return common::Table::num(s.cost_per_billion, 1);
               },
               run);

  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\npaper shape: Dragster converges faster on every repeated phase, processes at\n"
      "least as many tuples, costs slightly more during the first exploration phase,\n"
      "and is 14.6%%-15.6%% cheaper per tuple on the low phases (ours is larger because\n"
      "the rule-based baseline's idle threshold leaves more slack in simulation).\n");
  return 0;
}
