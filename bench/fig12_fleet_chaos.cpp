// Figure 12 (extension beyond the paper): correlated fleet chaos and
// graceful degradation.
//
// The paper's fault story is single-job; this bench promotes it to the
// fault-domain fleet of ISSUE 7 — the fig11 mixed fleet (hot 1.5x / normal /
// lull 0.35x bands over the Nexmark-style suite) placed on a real node pool,
// then hit with correlated infrastructure faults: a multi-node crash (every
// pod on the victims torn off every co-located job in one slot) followed by
// a temporary budget cut.  Two arms per size:
//   static    weight-proportional split of the post-fault effective budget,
//   arbiter   pressure mode: paired one-pod transfers move provably idle
//             capacity to the jobs whose crash backlog is not draining.
// Both arms share the brownout layer (shed lowest-priority jobs while the
// aggregate floor exceeds post-fault capacity, restore by priority with
// hysteresis), so the comparison isolates the allocation policy.
//
// Scoring is the fleet-level recovery analytic (faults::analyze_fleet_recovery)
// over the per-slot health series healthy/active (active = running + parked,
// so a shed tenant counts unhealthy until restored): per fired fault, slots
// until the healthy fraction is back above 90% of its pre-fault level —
// never-recovered faults are charged the rest of the run — summed into an
// aggregate slots-to-recover per arm.
//
// Reported per (size, arm): aggregate slots-to-recover, job-slots of health
// lost, sheds/restores, SLO misses, and wall-clock per slot.  Wall-clock
// goes to stdout only — BENCH_fig12.json carries exclusively simulated
// quantities, so same-seed runs emit byte-identical JSON (the CI determinism
// gate diffs two runs).
//
//   ./fig12_fleet_chaos [--sizes 10,100] [--slots 40] [--seed 7]
//                       [--json BENCH_fig12.json] [--max-slot-ms 0]
//                       [--trace-jsonl run.jsonl] [--metrics metrics.prom]
//
// --max-slot-ms N makes the exit code additionally assert that no fleet
// slot took longer than N milliseconds of wall-clock (0 disables).
#include <chrono>  // wall-clock is reported to stdout only, never serialized into BENCH_fig12.json
#include <fstream>
#include <sstream>

#include "bench_util.hpp"
#include "faults/recovery.hpp"
#include "fleet/fleet.hpp"

namespace {

using namespace dragster;

constexpr int kPodsPerNode = 4;

struct SweepResult {
  std::size_t jobs = 0;
  std::string arm;
  int budget_pods = 0;
  int node_count = 0;
  std::string chaos;
  fleet::FleetResult result;
  std::vector<faults::FleetRecoveryStats> recovery;
  std::size_t aggregate_slots_to_recover = 0;
  double job_slots_lost = 0.0;
  double max_slot_ms = 0.0;
  double mean_slot_ms = 0.0;
};

std::vector<std::size_t> parse_sizes(const std::string& csv) {
  std::vector<std::size_t> sizes;
  std::stringstream stream(csv);
  std::string item;
  while (std::getline(stream, item, ','))
    if (!item.empty()) sizes.push_back(static_cast<std::size_t>(std::stoull(item)));
  return sizes;
}

/// The fig11 fleet: N jobs cycling Group, AsyncIO, Join, Window in hot /
/// normal / lull thermal bands.  The lull third's granted-but-idle pods are
/// the capacity the pressure arm can move to crash victims; the static arm
/// leaves them stranded while the victims drain their backlog undersized.
std::vector<fleet::JobSpec> make_fleet(std::size_t n) {
  std::vector<workloads::WorkloadSpec> suite = workloads::nexmark_suite();
  suite.pop_back();  // nexmark_suite order puts WordCount last
  std::vector<fleet::JobSpec> specs;
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    fleet::JobSpec spec;
    spec.name = "job-" + std::to_string(i);
    spec.workload = suite[i % suite.size()];
    const bool hot = i % 3 == 0;
    const bool lull = i % 3 == 2;
    if (hot)
      for (auto& [src, rate] : spec.workload.low_rate) rate *= 1.5;
    if (lull)
      for (auto& [src, rate] : spec.workload.low_rate) rate *= 0.35;
    spec.high_rate = false;
    spec.controller = "Dragster";
    spec.weight = 1.0;
    spec.slo.max_latency_s = 30.0;
    spec.engine.slot_duration_s = 60.0;
    spec.engine.sample_interval_s = 60.0;
    specs.push_back(std::move(spec));
  }
  return specs;
}

int fleet_budget_pods(const std::vector<fleet::JobSpec>& specs) {
  // Roomier than fig11 (floors + 3 surplus pods per job): the fleet is
  // healthy before the faults, so the post-fault health dip is visible
  // against the pre-fault baseline and recovery speed is what's measured —
  // the capacity squeeze comes from the chaos, not from the provisioning.
  long long floors = 0;
  for (const fleet::JobSpec& spec : specs) floors += spec.floor_pods();
  return static_cast<int>(floors + 3 * static_cast<long long>(specs.size()));
}

SweepResult run_sweep(std::size_t n, const std::string& arm, fleet::ArbiterMode mode,
                      std::size_t slots, std::uint64_t seed, obs::Registry* obs) {
  SweepResult sweep;
  sweep.jobs = n;
  sweep.arm = arm;
  std::vector<fleet::JobSpec> specs = make_fleet(n);
  fleet::FleetOptions options;
  options.slots = slots;
  options.budget_pods = fleet_budget_pods(specs);
  options.arbiter.mode = mode;
  options.limits.max_total_pods = options.budget_pods;
  options.seed = seed;
  // Node pool sized just over the budget (two spare nodes of headroom), so a
  // correlated crash genuinely shrinks the usable capacity below the budget.
  options.node_count = (options.budget_pods + kPodsPerNode - 1) / kPodsPerNode + 2;
  options.node_capacity = kPodsPerNode;
  // The chaos timeline scales with the pool: once the fleet is warm, a sixth
  // of the nodes crash at slot 8 (correlated rack loss — capacity drops below
  // the budget and the victims' backlog has to drain through a tighter
  // split), then a deep 72% budget cut bites slots 16..19.  The cut is sized
  // to push the effective budget just below the fleet's aggregate floor
  // (floors are ~0.29 of the budget at both sizes), so brownout genuinely
  // parks the lowest-priority jobs and restores them when the window ends.
  const int crash_nodes = std::max(1, options.node_count / 6);
  options.chaos = "nodecrash@8*" + std::to_string(crash_nodes) + ";budgetcut@16+4*0.72";
  sweep.budget_pods = options.budget_pods;
  sweep.node_count = options.node_count;
  sweep.chaos = options.chaos;

  fleet::FleetScheduler scheduler(std::move(specs), options, obs);
  double total_ms = 0.0;
  for (std::size_t t = 0; t < slots; ++t) {
    const auto begin = std::chrono::steady_clock::now();  // stdout-only wall-clock measurement
    scheduler.step();
    const auto end = std::chrono::steady_clock::now();  // stdout-only wall-clock measurement
    const double ms = std::chrono::duration<double, std::milli>(end - begin).count();
    total_ms += ms;
    sweep.max_slot_ms = std::max(sweep.max_slot_ms, ms);
  }
  sweep.mean_slot_ms = total_ms / static_cast<double>(slots);
  sweep.result = scheduler.finish();

  // Health series: healthy = running jobs that met their SLO, active =
  // running + parked (a shed tenant is demand the fleet is failing to serve).
  std::vector<faults::FleetHealthSlot> health;
  health.reserve(sweep.result.slots.size());
  for (const fleet::FleetSlot& s : sweep.result.slots) {
    faults::FleetHealthSlot h;
    h.healthy_jobs = static_cast<double>(
        s.running_jobs > s.slo_misses ? s.running_jobs - s.slo_misses : 0);
    h.active_jobs = static_cast<double>(s.running_jobs + s.parked_jobs);
    health.push_back(h);
  }
  sweep.recovery = faults::analyze_fleet_recovery(sweep.result.fleet_faults, health);
  for (const faults::FleetRecoveryStats& stats : sweep.recovery) {
    // A fault the fleet never rode out is charged every remaining slot.
    sweep.aggregate_slots_to_recover +=
        stats.slots_to_recover ? *stats.slots_to_recover : slots - stats.fault.slot;
    sweep.job_slots_lost += stats.job_slots_lost;
  }
  return sweep;
}

}  // namespace

int main(int argc, char** argv) {
  const common::Flags flags(argc, argv);
  const std::vector<std::size_t> sizes = parse_sizes(flags.get("sizes", std::string("10,100")));
  const auto slots = static_cast<std::size_t>(flags.get("slots", std::int64_t{40}));
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{7}));
  const std::string json_path = flags.get("json", std::string("BENCH_fig12.json"));
  const double max_slot_ms = flags.get("max-slot-ms", 0.0);
  bench::Observability obs(flags);
  flags.reject_unused();

  bench::print_header("Figure 12: fleet chaos + graceful degradation", seed);
  std::printf("%zu slots per sweep, arms: static vs arbiter\n\n", slots);

  std::vector<SweepResult> sweeps;
  for (std::size_t n : sizes) {
    sweeps.push_back(
        run_sweep(n, "static", fleet::ArbiterMode::kStatic, slots, seed, obs.registry()));
    sweeps.push_back(
        run_sweep(n, "arbiter", fleet::ArbiterMode::kPressure, slots, seed, obs.registry()));
  }

  common::Table table({"jobs", "arm", "nodes", "chaos", "recover (slots)", "health lost",
                       "sheds", "restores", "SLO misses", "mean ms/slot", "max ms/slot"});
  for (const SweepResult& sweep : sweeps) {
    table.add_row({std::to_string(sweep.jobs), sweep.arm, std::to_string(sweep.node_count),
                   sweep.chaos, std::to_string(sweep.aggregate_slots_to_recover),
                   common::Table::num(sweep.job_slots_lost, 2),
                   std::to_string(sweep.result.sheds), std::to_string(sweep.result.restores),
                   std::to_string(sweep.result.total_slo_misses),
                   common::Table::num(sweep.mean_slot_ms, 2),
                   common::Table::num(sweep.max_slot_ms, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Acceptance: the node pool never overcommits a node, every shed job is
  // restored before the horizon, and the pressure arbiter strictly beats the
  // static split on aggregate slots-to-recover summed across the sizes, as
  // well as on total job-slots of health lost (the integrated dip — the
  // sturdier of the two measures at small fleet sizes, where a single slot
  // of recovery jitter moves the slot count by its full quantum).
  bool capacity_ok = true;
  bool restored_ok = true;
  for (const SweepResult& sweep : sweeps) {
    for (const fleet::FleetSlot& s : sweep.result.slots)
      capacity_ok = capacity_ok && s.nodes_within_capacity;
    for (const fleet::JobOutcome& job : sweep.result.jobs)
      restored_ok = restored_ok && job.state != fleet::JobState::kParked;
  }
  std::size_t static_total = 0;
  std::size_t arbiter_total = 0;
  double static_lost = 0.0;
  double arbiter_lost = 0.0;
  for (std::size_t i = 0; i + 1 < sweeps.size(); i += 2) {
    static_total += sweeps[i].aggregate_slots_to_recover;
    arbiter_total += sweeps[i + 1].aggregate_slots_to_recover;
    static_lost += sweeps[i].job_slots_lost;
    arbiter_lost += sweeps[i + 1].job_slots_lost;
  }
  const bool arbiter_recovers_faster =
      arbiter_total < static_total && arbiter_lost < static_lost;
  bool wall_clock_ok = true;
  if (max_slot_ms > 0.0)
    for (const SweepResult& sweep : sweeps)
      wall_clock_ok = wall_clock_ok && sweep.max_slot_ms <= max_slot_ms;

  std::printf("node capacity never exceeded: %s\n", capacity_ok ? "PASS" : "FAIL");
  std::printf("every shed job restored before the horizon: %s\n",
              restored_ok ? "PASS" : "FAIL");
  std::printf("arbiter recovers faster than static (aggregate slots-to-recover): %s\n",
              arbiter_recovers_faster ? "PASS" : "FAIL");
  if (max_slot_ms > 0.0)
    std::printf("wall-clock per slot within %.0f ms: %s\n", max_slot_ms,
                wall_clock_ok ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"fig12_fleet_chaos\",\n";
    out << "  \"slots\": " << slots << ",\n  \"seed\": " << seed << ",\n";
    out << "  \"acceptance\": {\"nodes_within_capacity\": " << (capacity_ok ? "true" : "false")
        << ", \"all_shed_jobs_restored\": " << (restored_ok ? "true" : "false")
        << ", \"arbiter_recovers_faster\": " << (arbiter_recovers_faster ? "true" : "false")
        << "},\n";
    out << "  \"sweeps\": [\n";
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
      const SweepResult& sweep = sweeps[i];
      out << "    {\"jobs\": " << sweep.jobs << ", \"arm\": \"" << sweep.arm
          << "\", \"budget_pods\": " << sweep.budget_pods
          << ", \"nodes\": " << sweep.node_count << ", \"chaos\": \"" << sweep.chaos
          << "\", \"slots_to_recover\": " << sweep.aggregate_slots_to_recover
          << ", \"job_slots_lost\": " << sweep.job_slots_lost
          << ", \"sheds\": " << sweep.result.sheds
          << ", \"restores\": " << sweep.result.restores
          << ", \"slo_misses\": " << sweep.result.total_slo_misses
          << ", \"tuples\": " << sweep.result.total_tuples << ", \"faults\": [";
      for (std::size_t f = 0; f < sweep.recovery.size(); ++f) {
        const faults::FleetRecoveryStats& stats = sweep.recovery[f];
        out << (f ? ", " : "") << "{\"spec\": \"" << stats.fault.event.to_string()
            << "\", \"slot\": " << stats.fault.slot
            << ", \"victim_nodes\": " << stats.fault.nodes.size()
            << ", \"pods_lost\": " << stats.fault.pods_lost << ", \"slots_to_recover\": ";
        if (stats.slots_to_recover)
          out << *stats.slots_to_recover;
        else
          out << "null";
        out << ", \"job_slots_lost\": " << stats.job_slots_lost << "}";
      }
      out << "], \"parked\": [";
      for (std::size_t t = 0; t < sweep.result.slots.size(); ++t)
        out << (t ? ", " : "") << sweep.result.slots[t].parked_jobs;
      out << "], \"effective_budget\": [";
      for (std::size_t t = 0; t < sweep.result.slots.size(); ++t)
        out << (t ? ", " : "") << sweep.result.slots[t].effective_budget;
      out << "], \"slo_miss_series\": [";
      for (std::size_t t = 0; t < sweep.result.slots.size(); ++t)
        out << (t ? ", " : "") << sweep.result.slots[t].slo_misses;
      out << "]}" << (i + 1 < sweeps.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("series written to %s\n", json_path.c_str());
  }
  return (capacity_ok && restored_ok && arbiter_recovers_faster && wall_clock_ok) ? 0 : 1;
}
