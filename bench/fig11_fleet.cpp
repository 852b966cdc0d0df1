// Figure 11 (extension beyond the paper): fleet-scale cross-job allocation.
//
// The paper optimizes one job under one budget; this bench promotes that to
// the fleet setting of ROADMAP item 1 — N independent jobs (cycling through
// the Nexmark-style suite in hot 1.5x / normal 1x / lull 0.35x offered-rate
// bands) sharing one cluster and one whole-pod budget.  Two arms per size:
//   static    the BudgetArbiter in weight-proportional mode: every job gets
//             the same surplus share regardless of need,
//   arbiter   pressure mode: the static share stays each job's default, and
//             paired one-pod transfers move provably idle capacity (granted
//             pods a lull job's controller never deploys) to jobs whose
//             dual pressure / SLO debt says they structurally cannot keep
//             up, one pod per slot, with incumbency and a gentle release.
// The budget is tight but satisfiable: the hot third of the fleet needs
// pods above its weight-proportional share, the lull third deploys barely
// more than its floor.  A pressure-blind equal split strands the surplus
// on the idle tenants forever — some hot jobs stay one or two pods short,
// their backlog (and with it the queueing-latency estimate) diverges, and
// they miss the SLO every slot — while the transfer arm finds the idle
// pods and hands them to the jobs whose lambda says they drown.
//
// Reported per (size, arm): aggregate SLO misses, throughput, tuples, and
// the controller+fleet wall-clock per slot.  Wall-clock goes to stdout only
// — BENCH_fig11.json carries exclusively simulated quantities, so same-seed
// runs emit byte-identical JSON (the CI determinism gate diffs two runs).
//
//   ./fig11_fleet [--sizes 10,100,1000] [--slots 16] [--seed 7]
//                 [--json BENCH_fig11.json] [--max-slot-ms 0] [--threads 0]
//                 [--trace-jsonl run.jsonl] [--metrics metrics.prom]
//
// --max-slot-ms N makes the exit code additionally assert that no fleet
// slot took longer than N milliseconds of wall-clock (0 disables).
#include <chrono>  // wall-clock is reported to stdout only, never serialized into BENCH_fig11.json
#include <fstream>
#include <sstream>

#include "bench_util.hpp"
#include "fleet/fleet.hpp"

namespace {

using namespace dragster;

struct SweepResult {
  std::size_t jobs = 0;
  std::string arm;
  int budget_pods = 0;
  fleet::FleetResult result;
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

/// N jobs cycling through Group, AsyncIO, Join, Window, in three thermal
/// bands: every third job runs hot (1.5x the low offered rate — it needs
/// pods above its weight-proportional share to keep up), every third runs
/// normal (the low rate — its share roughly suffices), and every third is
/// in a lull (0.35x — a real fleet always carries idle tenants, and their
/// granted-but-undeployed pods are exactly the provably spare capacity the
/// pressure arm can move).  The static arm strands those pods on the lull
/// jobs forever.  WordCount is left out: even its low rate needs several
/// times its floor, which would dominate the mix and drown the allocation
/// signal in a uniform capacity shortage.
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
    // Short slots keep the 1000-job sweep tractable while preserving the
    // controller cadence; the sample interval matches the slot so the series
    // stays one point per slot.
    spec.engine.slot_duration_s = 60.0;
    spec.engine.sample_interval_s = 60.0;
    specs.push_back(std::move(spec));
  }
  return specs;
}

int fleet_budget_pods(const std::vector<fleet::JobSpec>& specs) {
  // Floors plus 1.75 surplus pods per job: just about the fleet's summed
  // need (lull ~ floor, normal ~ floor+1..2, hot ~ floor+2..4), so who gets
  // each pod decides who makes their SLO.
  long long floors = 0;
  for (const fleet::JobSpec& spec : specs) floors += spec.floor_pods();
  return static_cast<int>(floors + (7 * static_cast<long long>(specs.size())) / 4);
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
  sweep.budget_pods = options.budget_pods;

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
  return sweep;
}

}  // namespace

int main(int argc, char** argv) {
  const common::Flags flags(argc, argv);
  const std::vector<std::size_t> sizes =
      parse_sizes(flags.get("sizes", std::string("10,100,1000")));
  const auto slots = static_cast<std::size_t>(flags.get("slots", std::int64_t{16}));
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{7}));
  const std::string json_path = flags.get("json", std::string("BENCH_fig11.json"));
  const double max_slot_ms = flags.get("max-slot-ms", 0.0);
  bench::Observability obs(flags);
  // Job stepping fans out across pool lanes; the JSON carries only simulated
  // quantities, so the bytes are invariant to the thread count (the CI gate
  // cmp's a --threads 8 run against the serial one).
  bench::configure_threads(flags);
  flags.reject_unused();

  bench::print_header("Figure 11: fleet cross-job allocation", seed);
  std::printf("%zu slots per sweep, arms: static vs arbiter\n\n", slots);

  std::vector<SweepResult> sweeps;
  for (std::size_t n : sizes) {
    sweeps.push_back(
        run_sweep(n, "static", fleet::ArbiterMode::kStatic, slots, seed, obs.registry()));
    sweeps.push_back(
        run_sweep(n, "arbiter", fleet::ArbiterMode::kPressure, slots, seed, obs.registry()));
  }

  common::Table table({"jobs", "arm", "budget (pods)", "SLO misses", "tuples (1e9)",
                       "admitted", "limits ok", "mean ms/slot", "max ms/slot"});
  for (const SweepResult& sweep : sweeps) {
    table.add_row({std::to_string(sweep.jobs), sweep.arm, std::to_string(sweep.budget_pods),
                   std::to_string(sweep.result.total_slo_misses),
                   common::Table::num(sweep.result.total_tuples / 1e9, 3),
                   std::to_string(sweep.result.admissions),
                   sweep.result.limits_respected ? "yes" : "NO",
                   common::Table::num(sweep.mean_slot_ms, 2),
                   common::Table::num(sweep.max_slot_ms, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Acceptance: limits respected everywhere; the pressure arbiter strictly
  // beats the static split on aggregate SLO misses at every size >= 100.
  bool limits_ok = true;
  bool arbiter_beats_static = true;
  for (const SweepResult& sweep : sweeps) limits_ok = limits_ok && sweep.result.limits_respected;
  for (std::size_t i = 0; i + 1 < sweeps.size(); i += 2) {
    if (sweeps[i].jobs < 100) continue;
    arbiter_beats_static = arbiter_beats_static &&
                           sweeps[i + 1].result.total_slo_misses <
                               sweeps[i].result.total_slo_misses;
  }
  bool wall_clock_ok = true;
  if (max_slot_ms > 0.0)
    for (const SweepResult& sweep : sweeps)
      wall_clock_ok = wall_clock_ok && sweep.max_slot_ms <= max_slot_ms;

  std::printf("cluster limits respected in every slot: %s\n", limits_ok ? "PASS" : "FAIL");
  std::printf("arbiter beats static split on SLO misses at 100+ jobs: %s\n",
              arbiter_beats_static ? "PASS" : "FAIL");
  if (max_slot_ms > 0.0)
    std::printf("wall-clock per slot within %.0f ms: %s\n", max_slot_ms,
                wall_clock_ok ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"fig11_fleet\",\n";
    out << "  \"slots\": " << slots << ",\n  \"seed\": " << seed << ",\n";
    out << "  \"acceptance\": {\"limits_respected\": " << (limits_ok ? "true" : "false")
        << ", \"arbiter_beats_static\": " << (arbiter_beats_static ? "true" : "false")
        << "},\n";
    out << "  \"sweeps\": [\n";
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
      const SweepResult& sweep = sweeps[i];
      out << "    {\"jobs\": " << sweep.jobs << ", \"arm\": \"" << sweep.arm
          << "\", \"budget_pods\": " << sweep.budget_pods
          << ", \"slo_misses\": " << sweep.result.total_slo_misses
          << ", \"tuples\": " << sweep.result.total_tuples
          << ", \"cost\": " << sweep.result.total_cost
          << ", \"admissions\": " << sweep.result.admissions
          << ", \"rejections\": " << sweep.result.rejections
          << ", \"evictions\": " << sweep.result.evictions << ", \"limits_respected\": "
          << (sweep.result.limits_respected ? "true" : "false") << ", \"pods\": [";
      for (std::size_t t = 0; t < sweep.result.slots.size(); ++t)
        out << (t ? ", " : "") << sweep.result.slots[t].total_pods;
      out << "], \"slo_miss_series\": [";
      for (std::size_t t = 0; t < sweep.result.slots.size(); ++t)
        out << (t ? ", " : "") << sweep.result.slots[t].slo_misses;
      out << "]}" << (i + 1 < sweeps.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("series written to %s\n", json_path.c_str());
  }
  return (limits_ok && arbiter_beats_static && wall_clock_ok) ? 0 : 1;
}
