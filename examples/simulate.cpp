// General-purpose simulation driver: any built-in workload x any controller
// x any load schedule from the command line.  The Swiss-army knife for
// poking at the system without writing code.
//
//   ./simulate --workload wordcount --scheme saddle --slots 30
//   ./simulate --workload yahoo --scheme dhalion --schedule step
//              --step-at 300 --seed 7 --csv out.csv
//   ./simulate --workload join --scheme bo4co --schedule alternating
//              --period 100 --budget 1.2
//
// Flags:
//   --workload   group|asyncio|join|window|wordcount|yahoo     [wordcount]
//   --scheme     saddle|ogd|dhalion|ds2|bo4co|static           [saddle]
//   --schedule   high|low|alternating|step|diurnal             [high]
//   --slots N    number of 10-minute slots                     [30]
//   --period M   alternating period in minutes                 [200]
//   --step-at M  step-up time in minutes (schedule=step)       [300]
//   --budget D   $/hour budget (0 = unlimited)                 [0]
//   --seed S / --csv PATH / --vertical
// Any other flag is rejected (dragster::Error naming it).
#include <fstream>
#include <map>

#include "baselines/flat_gp_ucb.hpp"
#include "baselines/oracle.hpp"
#include "baselines/static_controller.hpp"
#include "common/csv.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "core/dragster_controller.hpp"
#include "experiments/scenario.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace dragster;

workloads::WorkloadSpec pick_workload(const std::string& name) {
  if (name == "group") return workloads::group();
  if (name == "asyncio") return workloads::asyncio();
  if (name == "join") return workloads::join();
  if (name == "window") return workloads::window();
  if (name == "yahoo") return workloads::yahoo();
  if (name == "wordcount") return workloads::wordcount();
  std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
  std::exit(2);
}

std::unique_ptr<core::Controller> pick_scheme(const std::string& name,
                                              const online::Budget& budget, bool vertical) {
  if (name == "bo4co") {
    baselines::FlatGpUcbOptions options;
    options.budget = budget;
    return std::make_unique<baselines::FlatGpUcbController>(options);
  }
  if (name == "static") return std::make_unique<baselines::StaticController>();
  // --vertical needs DragsterOptions::enable_vertical, which the factory
  // does not take.
  if (vertical && (name == "saddle" || name == "ogd")) {
    core::DragsterOptions options;
    options.budget = budget;
    options.enable_vertical = true;
    if (name == "ogd") options.method = core::PrimalMethod::kOnlineGradient;
    return std::make_unique<core::DragsterController>(options);
  }
  // The compared schemes come from the shared factory under its names.
  const std::map<std::string, std::string> factory_names{{"saddle", "Dragster(saddle)"},
                                                         {"ogd", "Dragster(ogd)"},
                                                         {"ds2", "DS2"},
                                                         {"dhalion", "Dhalion"}};
  const auto it = factory_names.find(name);
  if (it == factory_names.end()) {
    std::fprintf(stderr, "unknown scheme '%s'\n", name.c_str());
    std::exit(2);
  }
  return experiments::make_controller(it->second, budget);
}

std::unique_ptr<streamsim::RateSchedule> pick_schedule(const std::string& kind, double high,
                                                       double low, double period_min,
                                                       double step_min) {
  if (kind == "high") return std::make_unique<streamsim::ConstantRate>(high);
  if (kind == "low") return std::make_unique<streamsim::ConstantRate>(low);
  if (kind == "alternating")
    return std::make_unique<streamsim::AlternatingRate>(high, low, period_min * 60.0);
  if (kind == "step")
    return std::make_unique<streamsim::PiecewiseRate>(
        std::vector<streamsim::PiecewiseRate::Segment>{{0.0, low}, {step_min * 60.0, high}});
  if (kind == "diurnal")
    return std::make_unique<streamsim::DiurnalRate>(0.5 * (high + low),
                                                    (high - low) / (high + low),
                                                    2.0 * period_min * 60.0);
  std::fprintf(stderr, "unknown schedule '%s'\n", kind.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const common::Flags flags(argc, argv);
  const std::string workload_name = flags.get("workload", std::string("wordcount"));
  const std::string scheme_name = flags.get("scheme", std::string("saddle"));
  const std::string schedule_name = flags.get("schedule", std::string("high"));
  const auto slots = static_cast<std::size_t>(flags.get("slots", std::int64_t{30}));
  const double period = flags.get("period", 200.0);
  const double step_at = flags.get("step-at", 300.0);
  const double budget_dollars = flags.get("budget", 0.0);
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{1}));
  const std::string csv_path = flags.get("csv", std::string(""));
  const bool vertical = flags.get("vertical", false);
  flags.reject_unused();

  const workloads::WorkloadSpec spec = pick_workload(workload_name);
  const online::Budget budget = budget_dollars > 0.0 ? online::Budget(budget_dollars, 0.10)
                                                     : online::Budget::unlimited(0.10);

  std::map<dag::NodeId, std::unique_ptr<streamsim::RateSchedule>> schedules;
  for (const auto& [id, high] : spec.high_rate)
    schedules[id] =
        pick_schedule(schedule_name, high, spec.low_rate.at(id), period, step_at);
  streamsim::Engine engine =
      spec.make_engine_with(std::move(schedules), streamsim::EngineOptions{}, seed);

  auto controller = pick_scheme(scheme_name, budget, vertical);
  experiments::ScenarioOptions options;
  options.slots = slots;
  options.budget = budget;
  const auto run = experiments::run_scenario(engine, *controller, options, spec.name);

  std::printf("%s on %s, schedule=%s, %zu slots, seed %llu%s\n\n", run.controller.c_str(),
              spec.name.c_str(), schedule_name.c_str(), slots,
              static_cast<unsigned long long>(seed),
              budget.limited() ? (" , budget $" + common::Table::num(budget_dollars, 2) + "/h")
                                     .c_str()
                               : "");

  common::Table table({"slot", "min", "tasks", "tuples/s", "optimal", "%", "latency(s)",
                       "$/h"});
  const auto operators = spec.dag.operators();
  for (const auto& s : run.slots) {
    std::string tasks;
    for (std::size_t i = 0; i < s.tasks.size(); ++i) {
      if (i != 0) tasks += ",";
      tasks += std::to_string(s.tasks[i]);
    }
    table.add_row({std::to_string(s.slot), common::Table::num(s.start_seconds / 60.0, 0),
                   tasks, common::Table::num(s.effective_rate, 0),
                   common::Table::num(s.oracle_throughput, 0),
                   common::Table::num(100.0 * s.effective_rate / s.oracle_throughput, 1),
                   common::Table::num(s.latency_s, 1), common::Table::num(s.cost_rate, 2)});
  }
  std::printf("%s", table.to_string().c_str());

  const auto conv = experiments::convergence_minutes(run.slots, 0, slots, 10.0);
  std::printf("\nconverged: %s; tuples %.4g; cost $%.2f ($%.1f per 1e9 tuples)\n",
              conv ? (common::Table::num(*conv, 0) + " min").c_str() : "no",
              run.total_tuples, run.total_cost,
              run.total_cost / (run.total_tuples / 1e9));

  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    common::CsvWriter csv(out);
    csv.write_row(std::vector<std::string>{"seconds", "tuples_per_s"});
    for (const auto& [t, rate] : run.series)
      csv.write_row(std::vector<double>{t, rate});
    std::printf("1-minute series written to %s\n", csv_path.c_str());
  }
  (void)operators;
  return 0;
}
