// Figure 10 (extension beyond the paper): the cost of asynchronous actuation
// on WordCount.
//
// The paper's controller assumes a decided configuration is in force by the
// next slot; on Kubernetes a rescale is an asynchronous operation.  Three
// arms share one seeded engine trajectory per seed, all driven through the
// ActuationManager so the audit trail is comparable:
//   instant       zero scheduling latency — operations complete inside the
//                 actuator call (bit-identical to direct apply),
//   async         pods take ~1.5 slots to schedule (jittered): partial
//                 applies, top-ups, transition downtime,
//   async-fault   same latency plus "crash@C:shuffle_count;schedfail@C+W":
//                 a pod dies exactly when the scheduler stops admitting
//                 pods, so the repair starves, retries, and rolls back.
// Scored per seed against the instant arm: throughput dip depth, slots to
// reconcile (sustained 95% band after the fault), rollbacks, admission
// rejects, and the mean issue-to-Running delay.
//
// Acceptance (exit code): every issued epoch across every arm and seed
// terminates in exactly one of {applied, rolled-back, superseded} (at most
// one live at teardown), the async arm never rolls back, and the fault arm
// rolls back at least once on every seed.
//
//   ./fig10_actuation [--slots 26] [--fault-slot 12] [--window 6]
//                     [--seeds 5] [--seed 17] [--json BENCH_fig10.json]
//                     [--trace-jsonl run.jsonl] [--metrics metrics.prom]
#include <algorithm>
#include <fstream>
#include <map>
#include <optional>

#include "actuation/actuation.hpp"
#include "bench_util.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"

namespace {

using namespace dragster;

struct ArmResult {
  std::string name;
  std::uint64_t seed = 0;
  experiments::RunResult run;
  bool invariant_ok = true;
  std::size_t issued = 0;
  std::size_t rollbacks = 0;
  std::size_t rejects = 0;
  double mean_slots_to_running = 0.0;
  double dip = 1.0;                           ///< min throughput ratio vs instant
  std::optional<std::size_t> reconcile_slots; ///< fault slot -> sustained 95% band
};

/// Every epoch in the audit trail terminated exactly once, the per-operator
/// counters agree with it, and at most one epoch per operator is still live.
bool check_invariant(const actuation::ActuationManager& manager) {
  struct Counts {
    std::size_t applied = 0, rolled = 0, superseded = 0, live = 0, total = 0;
  };
  std::map<dag::NodeId, Counts> counts;
  for (const actuation::EpochRecord& record : manager.records()) {
    Counts& c = counts[record.op];
    c.total += 1;
    switch (record.outcome) {
      case actuation::EpochOutcome::kApplied: c.applied += 1; break;
      case actuation::EpochOutcome::kRolledBack: c.rolled += 1; break;
      case actuation::EpochOutcome::kSuperseded: c.superseded += 1; break;
      case actuation::EpochOutcome::kInFlight: c.live += 1; break;
    }
  }
  for (const actuation::OperatorStats& stats : manager.operator_stats()) {
    const Counts& c = counts[stats.op];
    if (c.live > 1 || (c.live == 1) != manager.in_flight(stats.op)) return false;
    if (stats.issued != c.total || stats.applied != c.applied ||
        stats.rolled_back != c.rolled || stats.superseded != c.superseded)
      return false;
    if (stats.issued != c.applied + c.rolled + c.superseded + c.live) return false;
  }
  return true;
}

ArmResult run_arm(const std::string& name, const workloads::WorkloadSpec& spec,
                  std::uint64_t seed, std::size_t slots,
                  const actuation::ActuationOptions& aopts, const std::string& plan,
                  obs::Registry* obs = nullptr) {
  streamsim::Engine engine = spec.make_engine(true, streamsim::EngineOptions{}, seed);
  actuation::ActuationManager manager(engine, aopts, seed);
  core::DragsterController controller{core::DragsterOptions{}};
  std::optional<faults::FaultInjector> injector;
  if (!plan.empty()) injector.emplace(faults::FaultPlan::parse(plan));

  experiments::ScenarioOptions options;
  options.slots = slots;
  ArmResult arm;
  arm.name = name;
  arm.seed = seed;
  arm.run = experiments::run_scenario(engine, controller, options, spec.name,
                                      injector ? &*injector : nullptr, &manager, obs);
  arm.invariant_ok = check_invariant(manager);
  double to_running_sum = 0.0;
  std::size_t applied = 0;
  for (const actuation::OperatorStats& stats : arm.run.actuation) {
    arm.issued += stats.issued;
    arm.rollbacks += stats.rolled_back;
    arm.rejects += stats.admission_rejects;
    to_running_sum += stats.slots_to_running_sum;
    applied += stats.applied;
  }
  arm.mean_slots_to_running = applied > 0 ? to_running_sum / static_cast<double>(applied) : 0.0;
  return arm;
}

void score(ArmResult& arm, const experiments::RunResult& instant, std::size_t fault_slot) {
  auto ratio = [&](std::size_t t) {
    const double base = instant.slots[t].throughput_rate;
    return base > 0.0 ? arm.run.slots[t].throughput_rate / base : 1.0;
  };
  for (std::size_t t = fault_slot; t < arm.run.slots.size(); ++t) {
    arm.dip = std::min(arm.dip, ratio(t));
    if (arm.reconcile_slots.has_value() || ratio(t) < 0.95) continue;
    // Sustained: back within 5% of the instant arm on this slot and the next.
    if (t + 1 >= arm.run.slots.size() || ratio(t + 1) >= 0.95)
      arm.reconcile_slots = t - fault_slot;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const common::Flags flags(argc, argv);
  const auto slots = static_cast<std::size_t>(flags.get("slots", std::int64_t{26}));
  const auto fault_slot = static_cast<std::size_t>(flags.get("fault-slot", std::int64_t{12}));
  const auto window = static_cast<std::size_t>(flags.get("window", std::int64_t{6}));
  const auto num_seeds = static_cast<std::size_t>(flags.get("seeds", std::int64_t{5}));
  const auto seed0 = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{17}));
  const std::string json_path = flags.get("json", std::string("BENCH_fig10.json"));
  bench::Observability obs(flags);
  flags.reject_unused();

  bench::print_header("Figure 10: asynchronous actuation on WordCount", seed0);
  std::printf("pod crash + scheduler outage at slot %zu (window %zu), %zu seeds\n\n",
              fault_slot, window, num_seeds);

  const workloads::WorkloadSpec spec = workloads::wordcount();

  actuation::ActuationOptions instant_opts;  // zero latency, no limits

  actuation::ActuationOptions async_opts;
  async_opts.sched_latency_mean_slots = 1.5;
  async_opts.sched_latency_jitter = 0.5;
  async_opts.deadline_slots = 3;
  async_opts.max_retries = 2;
  async_opts.backoff_base_slots = 1.0;
  async_opts.backoff_jitter_slots = 0.5;

  actuation::ActuationOptions fault_opts = async_opts;
  fault_opts.deadline_slots = 2;  // tight: a starved repair exhausts quickly
  fault_opts.max_retries = 1;

  const std::string plan = "crash@" + std::to_string(fault_slot) +
                           ":shuffle_count;schedfail@" + std::to_string(fault_slot) + "+" +
                           std::to_string(window);

  std::vector<ArmResult> arms;
  for (std::size_t s = 0; s < num_seeds; ++s) {
    const std::uint64_t seed = seed0 + s;
    ArmResult instant = run_arm("instant", spec, seed, slots, instant_opts, "", obs.registry());
    ArmResult async_arm = run_arm("async", spec, seed, slots, async_opts, "", obs.registry());
    ArmResult fault =
        run_arm("async-fault", spec, seed, slots, fault_opts, plan, obs.registry());
    score(async_arm, instant.run, fault_slot);
    score(fault, instant.run, fault_slot);
    arms.push_back(std::move(instant));
    arms.push_back(std::move(async_arm));
    arms.push_back(std::move(fault));
  }

  common::Table table({"arm", "seed", "issued", "rollbacks", "rejects", "dip",
                       "reconcile (slots)", "mean slots-to-running", "invariant"});
  for (const ArmResult& arm : arms) {
    table.add_row({arm.name, std::to_string(arm.seed), std::to_string(arm.issued),
                   std::to_string(arm.rollbacks), std::to_string(arm.rejects),
                   common::Table::num(arm.dip, 3),
                   arm.reconcile_slots ? std::to_string(*arm.reconcile_slots) : "never",
                   common::Table::num(arm.mean_slots_to_running, 2),
                   arm.invariant_ok ? "ok" : "VIOLATED"});
  }
  std::printf("%s\n", table.to_string().c_str());

  bool invariant_ok = true;
  bool async_clean = true;
  bool fault_rolls_back = true;
  for (const ArmResult& arm : arms) {
    invariant_ok = invariant_ok && arm.invariant_ok;
    if (arm.name == "async") async_clean = async_clean && arm.rollbacks == 0;
    if (arm.name == "async-fault") fault_rolls_back = fault_rolls_back && arm.rollbacks >= 1;
  }
  std::printf("every epoch terminates exactly once on every arm/seed: %s\n",
              invariant_ok ? "PASS" : "FAIL");
  std::printf("async arm never rolls back (no limits, ample deadline): %s\n",
              async_clean ? "PASS" : "FAIL");
  std::printf("fault arm rolls back at least once on every seed: %s\n",
              fault_rolls_back ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"fig10_actuation\",\n";
    out << "  \"slots\": " << slots << ",\n  \"fault_slot\": " << fault_slot
        << ",\n  \"window\": " << window << ",\n";
    out << "  \"acceptance\": {\"invariant\": " << (invariant_ok ? "true" : "false")
        << ", \"async_clean\": " << (async_clean ? "true" : "false")
        << ", \"fault_rolls_back\": " << (fault_rolls_back ? "true" : "false") << "},\n";
    out << "  \"arms\": [\n";
    for (std::size_t i = 0; i < arms.size(); ++i) {
      const ArmResult& arm = arms[i];
      out << "    {\"name\": \"" << arm.name << "\", \"seed\": " << arm.seed
          << ", \"issued\": " << arm.issued << ", \"rollbacks\": " << arm.rollbacks
          << ", \"rejects\": " << arm.rejects << ", \"dip\": " << arm.dip
          << ", \"reconcile_slots\": ";
      if (arm.reconcile_slots)
        out << *arm.reconcile_slots;
      else
        out << "null";
      out << ", \"mean_slots_to_running\": " << arm.mean_slots_to_running
          << ", \"throughput\": [";
      for (std::size_t t = 0; t < arm.run.slots.size(); ++t)
        out << (t ? ", " : "") << arm.run.slots[t].throughput_rate;
      out << "]}" << (i + 1 < arms.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("series written to %s\n", json_path.c_str());
  }
  return (invariant_ok && async_clean && fault_rolls_back) ? 0 : 1;
}
