// Figure 13 (extension beyond the paper): control-plane partitions and
// degraded-mode policies.
//
// The paper's control loop assumes a perfect wire between controller and
// cluster.  This bench runs the single-job scenario over the ISSUE 8
// transport layer — telemetry scrapes, commands, and acks all traverse
// seeded lossy channels — and sweeps ambient drop rate x mid-run partition
// length.  Four arms per cell, all over the *same* wire fates:
//   Dragster             circuit breaker + LKG hold + DS2 rule fallback,
//   Dragster(noguard)    the watchdog ablation: the controller is fed
//                        whatever the pipe serves, stale or not,
//   DS2 / Dhalion        the paper's baselines behind the same guard.
// The partition blacks out all three channels for `len` slots starting at
// slot 12 (mid-run, after controllers have warmed up).
//
// Scoring per (cell, arm):
//   regret      sum over slots of max(0, oracle tuples - processed tuples),
//   inflation   that regret over the same arm's zero-loss regret (how much
//               the unreliable wire costs, normalized per arm),
//   SLO misses  slots whose latency estimate exceeds --slo seconds,
//   recover     slots from partition heal to the first near-optimal slot
//               that also meets the SLO (never-recovered is charged the rest
//               of the run).
//
// Wall-clock goes to stdout only — BENCH_fig13.json carries exclusively
// simulated quantities, so same-seed runs emit byte-identical JSON (the CI
// determinism gate diffs two runs).
//
//   ./fig13_partition [--slots 32] [--seed 11] [--slo 30]
//                     [--recover-bound 10] [--json BENCH_fig13.json]
//                     [--trace-jsonl run.jsonl] [--metrics metrics.prom]
#include <algorithm>
#include <fstream>
#include <optional>

#include "bench_util.hpp"
#include "transport/transport.hpp"

namespace {

using namespace dragster;

constexpr std::size_t kPartitionStart = 12;

struct ArmResult {
  std::string arm;
  double drop = 0.0;
  std::size_t partition = 0;
  double tuples = 0.0;
  double cost = 0.0;
  double regret = 0.0;
  double inflation = 1.0;
  std::size_t slo_misses = 0;
  std::optional<std::size_t> recover_slots;  ///< partitioned cells only
  transport::TransportStats wire;
};

std::unique_ptr<core::Controller> make_arm_controller(const std::string& arm,
                                                      const online::Budget& budget) {
  if (arm == "DS2" || arm == "Dhalion") return experiments::make_controller(arm, budget);
  return experiments::make_controller("Dragster(saddle)", budget);
}

ArmResult run_arm(const std::string& arm, double drop, std::size_t partition,
                  std::size_t slots, std::uint64_t seed, double slo_s, obs::Registry* obs) {
  const workloads::WorkloadSpec spec = workloads::wordcount();
  const streamsim::EngineOptions engine_options;
  streamsim::Engine engine = spec.make_engine(/*high=*/true, engine_options, seed);
  const online::Budget budget = online::Budget::unlimited(0.10);
  std::unique_ptr<core::Controller> controller = make_arm_controller(arm, budget);

  transport::TransportOptions topts;
  topts.telemetry.drop_prob = drop;
  topts.command.drop_prob = drop / 2.0;
  topts.ack.drop_prob = drop / 2.0;
  if (partition > 0) {
    topts.telemetry.partitions.push_back({kPartitionStart, partition});
    topts.command.partitions.push_back({kPartitionStart, partition});
    topts.ack.partitions.push_back({kPartitionStart, partition});
  }
  topts.guard.enabled = arm != "Dragster(noguard)";
  topts.guard.open_after_misses = 2;
  topts.guard.rule_fallback_after = 4;
  // Same wire seed for every arm and cell: arms race over identical fates.
  transport::TransportHarness harness(topts, common::Rng(seed).substream("fig13-wire").next_u64());

  experiments::ScenarioOptions options;
  options.slots = slots;
  options.budget = budget;
  const experiments::RunResult run = experiments::run_scenario(
      engine, *controller, options, spec.name, nullptr, nullptr, obs, &harness);

  ArmResult result;
  result.arm = arm;
  result.drop = drop;
  result.partition = partition;
  result.tuples = run.total_tuples;
  result.cost = run.total_cost;
  result.wire = harness.stats();
  for (const experiments::SlotSummary& slot : run.slots) {
    const double oracle_tuples = slot.oracle_throughput * engine_options.slot_duration_s;
    result.regret += std::max(0.0, oracle_tuples - slot.tuples);
    result.slo_misses += slot.latency_s > slo_s ? 1 : 0;
  }
  if (partition > 0) {
    const std::size_t heal = kPartitionStart + partition;
    for (std::size_t t = heal; t < run.slots.size(); ++t) {
      if (run.slots[t].near_optimal && run.slots[t].latency_s <= slo_s) {
        result.recover_slots = t - heal;
        break;
      }
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const common::Flags flags(argc, argv);
  const auto slots = static_cast<std::size_t>(flags.get("slots", std::int64_t{32}));
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{11}));
  const double slo_s = flags.get("slo", 30.0);
  const auto recover_bound = static_cast<std::size_t>(flags.get("recover-bound", std::int64_t{10}));
  const std::string json_path = flags.get("json", std::string("BENCH_fig13.json"));
  bench::Observability obs(flags);
  flags.reject_unused();

  bench::print_header("Figure 13: control-plane partitions + degraded-mode policies", seed);
  std::printf("%zu slots, partition at slot %zu, SLO %.0f s, drop x length sweep\n\n", slots,
              kPartitionStart, slo_s);

  const std::vector<std::string> arms{"Dragster", "Dragster(noguard)", "DS2", "Dhalion"};
  const std::vector<double> drops{0.0, 0.1, 0.3};
  const std::vector<std::size_t> lengths{0, 4, 8};

  std::vector<ArmResult> results;
  for (double drop : drops)
    for (std::size_t length : lengths)
      for (const std::string& arm : arms)
        results.push_back(run_arm(arm, drop, length, slots, seed, slo_s, obs.registry()));

  // Per-arm zero-loss regret anchors the inflation ratio.
  for (ArmResult& result : results) {
    for (const ArmResult& base : results) {
      const bool zero_loss = base.arm == result.arm && base.partition == 0 && base.drop <= 0.0;
      if (zero_loss && base.regret > 0.0) result.inflation = result.regret / base.regret;
    }
  }

  common::Table table({"drop", "partition", "arm", "regret (1e6)", "inflation", "SLO misses",
                       "recover", "breaker opens", "held", "ds2-rule", "exhausted"});
  for (const ArmResult& r : results) {
    table.add_row({common::Table::num(r.drop, 1), std::to_string(r.partition), r.arm,
                   common::Table::num(r.regret / 1e6, 2), common::Table::num(r.inflation, 2),
                   std::to_string(r.slo_misses),
                   r.partition == 0 ? "-"
                                    : (r.recover_slots ? std::to_string(*r.recover_slots)
                                                       : "never"),
                   std::to_string(r.wire.breaker_opens), std::to_string(r.wire.held_slots),
                   std::to_string(r.wire.rule_fallback_slots),
                   std::to_string(r.wire.commands_exhausted)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // Acceptance 1: with meaningful loss (drop >= 10%), the circuit breaker +
  // fallback strictly beats the no-watchdog ablation on total SLO misses.
  std::size_t guard_misses = 0, noguard_misses = 0;
  for (const ArmResult& r : results) {
    if (r.drop < 0.1) continue;
    if (r.arm == "Dragster") guard_misses += r.slo_misses;
    if (r.arm == "Dragster(noguard)") noguard_misses += r.slo_misses;
  }
  const bool guard_beats_ablation = guard_misses < noguard_misses;

  // Acceptance 2: after every partition heals, the guarded controller is
  // back to near-optimal within the bound.
  bool bounded_recovery = true;
  for (const ArmResult& r : results)
    if (r.arm == "Dragster" && r.partition > 0)
      bounded_recovery =
          bounded_recovery && r.recover_slots && *r.recover_slots <= recover_bound;

  std::printf("guard beats no-watchdog ablation on SLO misses at drop >= 0.1: %s (%zu < %zu)\n",
              guard_beats_ablation ? "PASS" : "FAIL", guard_misses, noguard_misses);
  std::printf("guarded Dragster recovers within %zu slots of every heal: %s\n", recover_bound,
              bounded_recovery ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"fig13_partition\",\n";
    out << "  \"slots\": " << slots << ",\n  \"seed\": " << seed << ",\n";
    out << "  \"partition_start\": " << kPartitionStart << ",\n  \"slo_s\": " << slo_s << ",\n";
    out << "  \"acceptance\": {\"guard_beats_ablation\": "
        << (guard_beats_ablation ? "true" : "false")
        << ", \"bounded_recovery\": " << (bounded_recovery ? "true" : "false")
        << ", \"recover_bound\": " << recover_bound << "},\n";
    out << "  \"cells\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      const ArmResult& r = results[i];
      out << "    {\"drop\": " << r.drop << ", \"partition\": " << r.partition << ", \"arm\": \""
          << r.arm << "\", \"tuples\": " << r.tuples << ", \"cost\": " << r.cost
          << ", \"regret\": " << r.regret << ", \"inflation\": " << r.inflation
          << ", \"slo_misses\": " << r.slo_misses << ", \"recover_slots\": ";
      if (r.recover_slots)
        out << *r.recover_slots;
      else
        out << "null";
      out << ", \"frames_dropped\": " << r.wire.frames_dropped
          << ", \"missed_scrapes\": " << r.wire.missed_scrapes
          << ", \"breaker_opens\": " << r.wire.breaker_opens
          << ", \"held_slots\": " << r.wire.held_slots
          << ", \"rule_fallback_slots\": " << r.wire.rule_fallback_slots
          << ", \"command_retries\": " << r.wire.command_retries
          << ", \"commands_exhausted\": " << r.wire.commands_exhausted << "}"
          << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("series written to %s\n", json_path.c_str());
  }
  return (guard_beats_ablation && bounded_recovery) ? 0 : 1;
}
