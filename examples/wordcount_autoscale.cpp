// WordCount under workload changes — the paper's Section 6.4 scenario.
//
// The offered rate flips between high and low every `--period` minutes
// without notifying the controllers.  Three schemes run side by side on
// identical (same-seed) simulations: Dhalion, Dragster with the online
// saddle point, and Dragster with online gradient descent.  Prints per-phase
// convergence time, processed tuples, and cost per billion tuples.
//
//   ./wordcount_autoscale [--minutes 600] [--period 200] [--seed 17]
#include <cstdio>
#include <memory>

#include "baselines/dhalion.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "core/dragster_controller.hpp"
#include "experiments/scenario.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace dragster;

experiments::RunResult run_one(const workloads::WorkloadSpec& spec, core::Controller& controller,
                               double minutes, double period_min, std::uint64_t seed) {
  streamsim::EngineOptions engine_options;
  std::map<dag::NodeId, std::unique_ptr<streamsim::RateSchedule>> schedules;
  for (const auto& [id, high] : spec.high_rate) {
    schedules[id] = std::make_unique<streamsim::AlternatingRate>(high, spec.low_rate.at(id),
                                                                 period_min * 60.0);
  }
  streamsim::Engine engine =
      spec.make_engine_with(std::move(schedules), engine_options, seed);
  experiments::ScenarioOptions scenario;
  scenario.slots = static_cast<std::size_t>(minutes / 10.0);
  return experiments::run_scenario(engine, controller, scenario, spec.name);
}

}  // namespace

int main(int argc, char** argv) {
  const common::Flags flags(argc, argv);
  const double minutes = flags.get("minutes", 600.0);
  const double period = flags.get("period", 200.0);
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{17}));
  flags.reject_unused();

  const workloads::WorkloadSpec spec = workloads::wordcount();

  baselines::DhalionController dhalion;
  core::DragsterOptions saddle_opts;
  core::DragsterController saddle(saddle_opts);
  core::DragsterOptions ogd_opts;
  ogd_opts.method = core::PrimalMethod::kOnlineGradient;
  core::DragsterController ogd(ogd_opts);

  std::printf("WordCount, load flips every %.0f min, horizon %.0f min, seed %llu\n\n", period,
              minutes, static_cast<unsigned long long>(seed));

  const std::size_t slots_per_phase = static_cast<std::size_t>(period / 10.0);
  common::Table table(
      {"scheme", "phase", "load", "converge (min)", "tuples (1e9)", "$ / 1e9 tuples"});

  core::Controller* controllers[] = {&dhalion, &saddle, &ogd};
  for (core::Controller* controller : controllers) {
    const experiments::RunResult run = run_one(spec, *controller, minutes, period, seed);
    const std::size_t phases = run.slots.size() / slots_per_phase;
    for (std::size_t p = 0; p < phases; ++p) {
      const auto stats = experiments::analyze_phase(run, p * slots_per_phase,
                                                    (p + 1) * slots_per_phase, 10.0);
      table.add_row({controller->name(), std::to_string(p), p % 2 == 0 ? "high" : "low",
                     stats.convergence_min ? common::Table::num(*stats.convergence_min, 0) : "-",
                     common::Table::num(stats.tuples / 1e9, 3),
                     common::Table::num(stats.cost_per_billion, 1)});
    }
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}
