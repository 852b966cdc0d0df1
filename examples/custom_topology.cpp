// Bring-your-own application: builds a custom fan-out/fan-in topology with
// user-provided throughput functions — including a tanh-saturating stage
// (paper eq. 2c) and a min-weighted fan-in (eq. 2b) — wires up a custom
// hidden capacity surface, and compares Dragster against Dhalion on it.
//
// Demonstrates the full public API surface a downstream user touches:
// StreamDag construction, ThroughputFn forms, UslParams, Engine assembly,
// controllers, and the experiment harness.
//
//   ./custom_topology [--slots 20] [--seed 31]
#include <cstdio>

#include "baselines/dhalion.hpp"
#include "baselines/oracle.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "core/dragster_controller.hpp"
#include "experiments/scenario.hpp"
#include "streamsim/engine.hpp"

namespace {

using namespace dragster;

// clicks ----> enrich --+--> join --> sink
// views  ---> sample ---+
struct CustomApp {
  dag::StreamDag dag;
  dag::NodeId clicks, views, enrich, sample, join;
  std::map<dag::NodeId, streamsim::UslParams> usl;

  CustomApp() {
    clicks = dag.add_source("clicks");
    views = dag.add_source("views");
    enrich = dag.add_operator("enrich");
    sample = dag.add_operator("sample");
    join = dag.add_operator("join");
    const auto sink = dag.add_sink("sink");

    dag.add_edge(clicks, enrich, dag::identity_fn());
    dag.add_edge(views, sample, dag::identity_fn());
    // Enrichment saturates: an external lookup service caps its useful
    // output at ~20k/s no matter how fast clicks arrive (eq. 2c).
    dag.add_edge(enrich, join, dag::TanhFn(20'000.0, {1.0 / 9'000.0}));
    // Sampling keeps 40% of views.
    dag.add_edge(sample, join, dag::selectivity_fn(0.4));
    // The join emits one match per click-view pair, limited by the slower
    // side: every enriched click matches, views match at half weight.
    dag.add_edge(join, sink, dag::MinWeightedFn({1.0, 0.5}));
    dag.validate();

    streamsim::UslParams enrich_usl;
    enrich_usl.per_task_rate = 4'000.0;
    enrich_usl.contention = 0.20;  // external service serializes
    enrich_usl.coherence = 0.010;
    usl[enrich] = enrich_usl;

    streamsim::UslParams sample_usl;
    sample_usl.per_task_rate = 9'000.0;
    sample_usl.contention = 0.05;
    sample_usl.coherence = 0.004;
    usl[sample] = sample_usl;

    streamsim::UslParams join_usl;
    join_usl.per_task_rate = 3'500.0;
    join_usl.contention = 0.12;
    join_usl.coherence = 0.012;
    usl[join] = join_usl;
  }

  streamsim::Engine make_engine(std::uint64_t seed) const {
    std::map<dag::NodeId, std::unique_ptr<streamsim::RateSchedule>> schedules;
    schedules[clicks] = std::make_unique<streamsim::ConstantRate>(15'000.0);
    // Views drift diurnally around 60k/s.
    schedules[views] =
        std::make_unique<streamsim::DiurnalRate>(60'000.0, 0.25, 400.0 * 60.0);
    return streamsim::Engine(dag, usl, std::move(schedules), streamsim::EngineOptions{}, seed);
  }
};

}  // namespace

int main(int argc, char** argv) {
  const common::Flags flags(argc, argv);
  const auto slots = static_cast<std::size_t>(flags.get("slots", std::int64_t{20}));
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{31}));
  flags.reject_unused();

  const CustomApp app;
  std::printf("custom topology: clicks->enrich(tanh) + views->sample --> min-join --> sink\n");
  {
    streamsim::Engine probe = app.make_engine(seed);
    const baselines::Oracle oracle(probe);
    const auto best = oracle.optimal_at(0.0, online::Budget::unlimited(0.10));
    std::printf("offline optimum at t=0: ");
    for (const auto& [op, tasks] : best.tasks)
      std::printf("%s=%d ", probe.dag().component(op).name.c_str(), tasks);
    std::printf("-> %.0f matches/s\n\n", best.throughput);
  }

  common::Table table({"scheme", "converge (min)", "avg matches/s", "cost ($)"});
  auto evaluate = [&](core::Controller& controller) {
    streamsim::Engine engine = app.make_engine(seed);
    experiments::ScenarioOptions options;
    options.slots = slots;
    const auto run = experiments::run_scenario(engine, controller, options, "custom");
    table.add_row(
        {controller.name(),
         run.slots.empty()
             ? "-"
             : (experiments::convergence_minutes(run.slots, 0, slots, 10.0)
                    ? common::Table::num(
                          *experiments::convergence_minutes(run.slots, 0, slots, 10.0), 0)
                    : "-"),
         common::Table::num(run.total_tuples / (static_cast<double>(slots) * 600.0), 0),
         common::Table::num(run.total_cost, 2)});
  };

  baselines::DhalionController dhalion;
  core::DragsterController saddle{core::DragsterOptions{}};
  core::DragsterOptions ogd_options;
  ogd_options.method = core::PrimalMethod::kOnlineGradient;
  core::DragsterController ogd(ogd_options);
  evaluate(dhalion);
  evaluate(saddle);
  evaluate(ogd);
  std::printf("%s", table.to_string().c_str());
  return 0;
}
