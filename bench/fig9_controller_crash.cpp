// Figure 9 (extension beyond the paper): controller crash recovery on
// WordCount.
//
// The paper's controller is a single process holding all learned state; this
// bench quantifies what that state is worth.  Three arms share one seeded
// engine trajectory per seed:
//   no-crash        the undisturbed supervised controller (counterfactual),
//   snapshot        supervised controller, crash at --crash-slot, restored
//                   from the periodic snapshot and journal replay,
//   cold-restart    same crash, but snapshots disabled: the replacement
//                   process starts with empty GPs and dual state.
// One slot after the crash the offered rate steps up, so the recovering
// controller must *use* its learned capacity models, not just hold position.
// Recovery is scored per seed against the no-crash arm: the first post-crash
// slot whose throughput is back within 5% of the counterfactual.
//
//   ./fig9_controller_crash [--slots 30] [--crash-slot 12] [--seeds 3]
//                           [--seed 17] [--json BENCH_fig9.json]
//                           [--trace-jsonl run.jsonl] [--metrics metrics.prom]
#include <algorithm>
#include <fstream>
#include <optional>

#include "bench_util.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "resilience/supervisor.hpp"
#include "streamsim/rate_schedule.hpp"

namespace {

using namespace dragster;

struct Arm {
  std::string name;
  std::uint64_t seed = 0;
  experiments::RunResult run;
  std::optional<std::size_t> recovery_slots;  ///< slots after crash to 5% band
  double post_crash_tuples = 0.0;             ///< tuples in [crash, crash+10)
};

experiments::RunResult run_arm(const workloads::WorkloadSpec& spec, std::uint64_t seed,
                               std::size_t slots, std::size_t crash_slot,
                               core::Controller& controller, bool crash,
                               obs::Registry* obs = nullptr) {
  const dag::NodeId source = spec.dag.sources()[0];
  const double high = spec.high_rate.at(source);
  const double slot_s = streamsim::EngineOptions{}.slot_duration_s;
  // Warm phase at 60% load; the step to full load lands one slot after the
  // crash, while a cold-restarted controller is still re-exploring.  A
  // controller that kept its learned capacity curves reads the right
  // configuration for the new demand straight off the GP posterior; one that
  // lost them has to re-explore the curve under pressure.
  std::map<dag::NodeId, std::unique_ptr<streamsim::RateSchedule>> schedules;
  schedules[source] = std::make_unique<streamsim::PiecewiseRate>(
      std::vector<streamsim::PiecewiseRate::Segment>{
          {0.0, 0.6 * high},
          {static_cast<double>(crash_slot + 1) * slot_s, high}});
  streamsim::Engine engine =
      spec.make_engine_with(std::move(schedules), streamsim::EngineOptions{}, seed);

  experiments::ScenarioOptions options;
  options.slots = slots;
  if (!crash)
    return experiments::run_scenario(engine, controller, options, spec.name, nullptr, nullptr,
                                     obs);
  faults::FaultInjector injector(
      faults::FaultPlan::parse("ctrlcrash@" + std::to_string(crash_slot)));
  return experiments::run_scenario(engine, controller, options, spec.name, &injector, nullptr,
                                   obs);
}

void score(Arm& arm, const experiments::RunResult& baseline, std::size_t crash_slot) {
  // Recovery is judged from the rate step (the first slot where holding the
  // pre-crash position stops being good enough) and must be *sustained*:
  // back within 5% of the counterfactual on that slot and the next.
  const std::size_t step = crash_slot + 1;
  auto in_band = [&](std::size_t t) {
    return arm.run.slots[t].throughput_rate >= 0.95 * baseline.slots[t].throughput_rate;
  };
  for (std::size_t t = crash_slot; t < arm.run.slots.size(); ++t) {
    if (t < crash_slot + 10) arm.post_crash_tuples += arm.run.slots[t].tuples;
    if (t < step || arm.recovery_slots.has_value() || !in_band(t)) continue;
    if (t + 1 >= arm.run.slots.size() || in_band(t + 1)) arm.recovery_slots = t - step;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const common::Flags flags(argc, argv);
  const auto slots = static_cast<std::size_t>(flags.get("slots", std::int64_t{30}));
  const auto crash_slot = static_cast<std::size_t>(flags.get("crash-slot", std::int64_t{12}));
  const auto num_seeds = static_cast<std::size_t>(flags.get("seeds", std::int64_t{3}));
  const auto seed0 = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{17}));
  const std::string json_path = flags.get("json", std::string("BENCH_fig9.json"));
  bench::Observability obs(flags);
  bench::configure_threads(flags);
  flags.reject_unused();

  bench::print_header("Figure 9: controller crash recovery on WordCount", seed0);
  std::printf("crash at slot %zu, rate step at slot %zu, %zu seeds\n\n", crash_slot,
              crash_slot + 1, num_seeds);

  const workloads::WorkloadSpec spec = workloads::wordcount();
  auto make_dragster = [] {
    return std::make_unique<core::DragsterController>(core::DragsterOptions{});
  };

  // One sweep cell per seed, committed by cell index; the arms list below is
  // assembled from the committed cells in index order, so the table and JSON
  // bytes are invariant to how many pool lanes ran the sweep.  Telemetry
  // pins the sweep serial: the registry is one shared sink.
  struct SeedArms {
    Arm base, snap, cold;
  };
  auto run_seed = [&](std::size_t s) {
    const std::uint64_t seed = seed0 + s;
    SeedArms cell;

    cell.base = Arm{"no-crash", seed, {}, std::nullopt, 0.0};
    {
      resilience::ControllerSupervisor controller(make_dragster(),
                                                  resilience::SupervisorOptions{});
      cell.base.run = run_arm(spec, seed, slots, crash_slot, controller, /*crash=*/false,
                              obs.registry());
    }

    cell.snap = Arm{"snapshot", seed, {}, std::nullopt, 0.0};
    {
      resilience::SupervisorOptions options;
      options.snapshot_every = 3;
      resilience::ControllerSupervisor controller(make_dragster(), options);
      cell.snap.run = run_arm(spec, seed, slots, crash_slot, controller, /*crash=*/true,
                              obs.registry());
    }

    cell.cold = Arm{"cold-restart", seed, {}, std::nullopt, 0.0};
    {
      resilience::SupervisorOptions options;
      options.enable_snapshots = false;
      options.cold_factory = make_dragster;
      resilience::ControllerSupervisor controller(make_dragster(), options);
      cell.cold.run = run_arm(spec, seed, slots, crash_slot, controller, /*crash=*/true,
                              obs.registry());
    }

    score(cell.base, cell.base.run, crash_slot);
    score(cell.snap, cell.base.run, crash_slot);
    score(cell.cold, cell.base.run, crash_slot);
    return cell;
  };
  std::vector<SeedArms> cells;
  if (obs.registry() != nullptr) {
    cells.reserve(num_seeds);
    for (std::size_t s = 0; s < num_seeds; ++s) cells.push_back(run_seed(s));
  } else {
    cells = bench::sweep_indexed<SeedArms>(num_seeds, run_seed);
  }
  std::vector<Arm> arms;
  arms.reserve(cells.size() * 3);
  for (SeedArms& cell : cells) {
    arms.push_back(std::move(cell.base));
    arms.push_back(std::move(cell.snap));
    arms.push_back(std::move(cell.cold));
  }

  common::Table table({"arm", "seed", "recovery (slots)", "post-crash tuples (1e9)",
                       "vs no-crash", "restores", "cold restarts"});
  for (const Arm& arm : arms) {
    const Arm* base = nullptr;
    for (const Arm& candidate : arms)
      if (candidate.name == "no-crash" && candidate.seed == arm.seed) base = &candidate;
    const double ratio = base != nullptr && base->post_crash_tuples > 0.0
                             ? arm.post_crash_tuples / base->post_crash_tuples
                             : 1.0;
    const auto& stats = arm.run.supervisor;
    table.add_row({arm.name, std::to_string(arm.seed),
                   arm.recovery_slots ? std::to_string(*arm.recovery_slots) : "never",
                   common::Table::num(arm.post_crash_tuples / 1e9, 3),
                   common::Table::num(ratio, 3),
                   stats ? std::to_string(stats->restores) : "-",
                   stats ? std::to_string(stats->cold_restarts) : "-"});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Acceptance: the snapshot arm is back within 5% of the counterfactual
  // within 5 slots on every seed, and retains more post-crash throughput
  // than the cold restart (what the serialized state is worth).
  bool snapshot_ok = true;
  bool snapshot_beats_cold = true;
  for (const Arm& arm : arms) {
    if (arm.name == "snapshot")
      snapshot_ok = snapshot_ok && arm.recovery_slots.has_value() && *arm.recovery_slots <= 5;
    if (arm.name != "cold-restart") continue;
    for (const Arm& other : arms)
      if (other.name == "snapshot" && other.seed == arm.seed)
        snapshot_beats_cold =
            snapshot_beats_cold && other.post_crash_tuples >= arm.post_crash_tuples;
  }
  std::printf("snapshot arm recovers within 5 slots on every seed: %s\n",
              snapshot_ok ? "PASS" : "FAIL");
  std::printf("snapshot arm retains >= cold-restart post-crash throughput: %s\n",
              snapshot_beats_cold ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"fig9_controller_crash\",\n";
    out << "  \"slots\": " << slots << ",\n  \"crash_slot\": " << crash_slot << ",\n";
    out << "  \"acceptance\": {\"snapshot_within_5_slots\": "
        << (snapshot_ok ? "true" : "false") << ", \"snapshot_beats_cold\": "
        << (snapshot_beats_cold ? "true" : "false") << "},\n";
    out << "  \"arms\": [\n";
    for (std::size_t i = 0; i < arms.size(); ++i) {
      const Arm& arm = arms[i];
      out << "    {\"name\": \"" << arm.name << "\", \"seed\": " << arm.seed
          << ", \"recovery_slots\": ";
      if (arm.recovery_slots)
        out << *arm.recovery_slots;
      else
        out << "null";
      out << ", \"post_crash_tuples\": " << arm.post_crash_tuples << ", \"throughput\": [";
      for (std::size_t t = 0; t < arm.run.slots.size(); ++t)
        out << (t ? ", " : "") << arm.run.slots[t].throughput_rate;
      out << "]}" << (i + 1 < arms.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("series written to %s\n", json_path.c_str());
  }
  return (snapshot_ok && snapshot_beats_cold) ? 0 : 1;
}
