// Reproduces paper Figure 5: convergence time for the 11 applications
// (five Nexmark-style workloads under low and high source rates, plus the
// Yahoo streaming benchmark) under the three schemes, sorted by operator
// count.  Also prints the per-group speedups the paper quotes (1.64x/1.38x
// for one-operator apps, 2.67x/1.81x for two operators, 2.2x/1.6x Yahoo).
//
//   ./fig5_convergence [--slots 30] [--seed 42] [--seeds 5] [--threads N]
#include <cmath>

#include "bench_util.hpp"
#include "common/stats.hpp"

int main(int argc, char** argv) {
  using namespace dragster;
  const common::Flags flags(argc, argv);
  const auto slots = static_cast<std::size_t>(flags.get("slots", std::int64_t{30}));
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{42}));
  const auto num_seeds = static_cast<std::size_t>(flags.get("seeds", std::int64_t{5}));
  bench::configure_threads(flags);
  flags.reject_unused();

  bench::print_header("Figure 5: convergence time across 11 workloads", seed);
  std::printf("mean over %zu seeds; non-converged runs are censored at the horizon\n\n",
              num_seeds);

  struct Cell {
    std::string app;
    std::size_t operators;
    std::string scheme;
    std::optional<double> minutes;  // mean over seeds
  };
  std::vector<Cell> cells;

  // 11 applications: 5 Nexmark-style x {low, high} + Yahoo (high step later
  // in Fig. 7; here its high rate).
  struct App {
    workloads::WorkloadSpec spec;
    bool high;
    std::string label;
  };
  std::vector<App> apps;
  for (const auto& spec : workloads::nexmark_suite()) {
    apps.push_back({spec, false, spec.name + "/low"});
    apps.push_back({spec, true, spec.name + "/high"});
  }
  apps.push_back({workloads::yahoo(), true, "Yahoo"});

  // The 11 x 3 x seeds independent simulations, one sweep cell each.
  struct Arm {
    const App* app;
    std::string scheme;
  };
  std::vector<Arm> arms;
  for (const auto& app : apps)
    for (const auto& scheme : bench::scheme_names()) arms.push_back({&app, scheme});
  const auto runs =
      bench::sweep_indexed<experiments::RunResult>(arms.size() * num_seeds, [&](std::size_t i) {
        const Arm& arm = arms[i / num_seeds];
        const std::size_t s = i % num_seeds;
        streamsim::Engine engine =
            arm.app->spec.make_engine(arm.app->high, streamsim::EngineOptions{}, seed + 1000 * s);
        auto controller = experiments::make_controller(arm.scheme, online::Budget::unlimited(0.10));
        experiments::ScenarioOptions options;
        options.slots = slots;
        return experiments::run_scenario(engine, *controller, options, arm.app->label);
      });
  for (std::size_t i = 0; i < arms.size(); ++i) {
    common::RunningStats stats;
    for (std::size_t s = 0; s < num_seeds; ++s) {
      const auto& run = runs[i * num_seeds + s];
      const auto minutes = experiments::convergence_minutes(run.slots, 0, slots, 10.0);
      stats.add(minutes.value_or(static_cast<double>(slots) * 10.0));  // censored
    }
    cells.push_back({arms[i].app->label, arms[i].app->spec.operator_count(),
                     runs[i * num_seeds].controller, stats.mean()});
  }

  common::Table table({"application", "#ops", "Dhalion (min)", "Dragster saddle (min)",
                       "Dragster ogd (min)"});
  for (std::size_t i = 0; i < cells.size(); i += 3) {
    table.add_row({cells[i].app, std::to_string(cells[i].operators),
                   bench::fmt_min(cells[i].minutes), bench::fmt_min(cells[i + 1].minutes),
                   bench::fmt_min(cells[i + 2].minutes)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Speedups per operator-count group (paper Sec. 6.3).
  auto group_speedup = [&](std::size_t op_count, const std::string& scheme) {
    double dhalion_sum = 0.0, scheme_sum = 0.0;
    int n = 0;
    for (std::size_t i = 0; i < cells.size(); i += 3) {
      if (cells[i].operators != op_count) continue;
      if (!cells[i].minutes) continue;
      const auto& target = scheme == "Dragster(saddle)" ? cells[i + 1] : cells[i + 2];
      if (!target.minutes) continue;
      dhalion_sum += *cells[i].minutes;
      scheme_sum += *target.minutes;
      ++n;
    }
    return n > 0 && scheme_sum > 0.0 ? dhalion_sum / scheme_sum : 0.0;
  };

  common::Table speedups({"group", "saddle speedup vs Dhalion", "ogd speedup vs Dhalion",
                          "paper (saddle / ogd)"});
  speedups.add_row({"1-operator apps", common::Table::num(group_speedup(1, "Dragster(saddle)"), 2),
                    common::Table::num(group_speedup(1, "Dragster(ogd)"), 2), "1.64 / 1.38"});
  speedups.add_row({"2-operator apps", common::Table::num(group_speedup(2, "Dragster(saddle)"), 2),
                    common::Table::num(group_speedup(2, "Dragster(ogd)"), 2), "2.67 / 1.81"});
  speedups.add_row({"Yahoo (6 ops)", common::Table::num(group_speedup(6, "Dragster(saddle)"), 2),
                    common::Table::num(group_speedup(6, "Dragster(ogd)"), 2), "2.2 / 1.6"});
  std::printf("%s", speedups.to_string().c_str());
  return 0;
}
