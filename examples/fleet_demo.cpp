// Fleet demo: several jobs, one cluster, one pod budget.
//
// Builds a small mixed fleet (WordCount, Group, Window — one arriving late),
// runs the FleetScheduler with the pressure-guided BudgetArbiter splitting a
// shared whole-pod budget every slot, and prints each job's outcome plus the
// fleet-level slot ledger (total pods, spend rate, SLO misses).
//
// With --chaos the fleet runs on the fault-domain node model and a
// cluster-scoped fault timeline (FleetFaultPlan grammar): node crashes and
// drains evict co-located pods, budget cuts trigger the arbiter's brownout
// (lowest-weight jobs parked, then restored with hysteresis once capacity
// returns).  Try:
//
//   ./fleet_demo --chaos "nodecrash@4;budgetcut@6+3*0.6"
//
//   ./fleet_demo [--slots N] [--seed S] [--budget-pods P] [--static 0|1]
//               [--chaos SPEC] [--nodes N] [--node-cap C]
#include <cstdio>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "faults/fleet_fault_plan.hpp"
#include "fleet/fleet.hpp"
#include "workloads/workloads.hpp"

int main(int argc, char** argv) {
  using namespace dragster;
  const common::Flags flags(argc, argv);
  const auto slots = static_cast<std::size_t>(flags.get("slots", std::int64_t{12}));
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{42}));
  const auto budget_pods = static_cast<int>(flags.get("budget-pods", std::int64_t{10}));
  const bool static_split = flags.get("static", false);
  const std::string chaos = flags.get("chaos", std::string());
  const auto node_cap = static_cast<int>(flags.get("node-cap", std::int64_t{4}));
  // Default pool: enough nodes for the budget plus one spare fault domain,
  // so a single crash degrades capacity without sinking the whole fleet.
  const auto default_nodes =
      static_cast<std::int64_t>((budget_pods + node_cap - 1) / node_cap + 1);
  const auto nodes = static_cast<int>(flags.get("nodes", chaos.empty() ? 0 : default_nodes));
  flags.reject_unused();

  // 1. Describe the fleet: each JobSpec is a full single-job bundle (workload
  //    + controller + SLO + arrival slot); index order is the deterministic
  //    stepping order.
  std::vector<fleet::JobSpec> specs(3);
  specs[0].name = "wordcount-hot";
  specs[0].workload = workloads::wordcount();
  specs[0].high_rate = true;
  specs[0].weight = 2.0;  // the job admission would rather not evict
  specs[0].slo.max_latency_s = 30.0;
  specs[1].name = "group-cold";
  specs[1].workload = workloads::group();
  specs[1].high_rate = false;
  specs[2].name = "window-late";
  specs[2].workload = workloads::window();
  specs[2].high_rate = true;
  specs[2].arrival_slot = 4;  // shows up mid-run and must pass admission
  for (fleet::JobSpec& spec : specs) {
    spec.engine.slot_duration_s = 60.0;
    spec.engine.sample_interval_s = 60.0;
  }

  // 2. One budget for everyone, split online each slot.
  fleet::FleetOptions options;
  options.slots = slots;
  options.budget_pods = budget_pods;
  options.arbiter.mode =
      static_split ? fleet::ArbiterMode::kStatic : fleet::ArbiterMode::kPressure;
  options.limits.max_total_pods = budget_pods;
  options.seed = seed;
  options.chaos = chaos;
  options.node_count = nodes;
  options.node_capacity = nodes > 0 ? node_cap : 0;
  const bool faulted = nodes > 0 || !chaos.empty();

  const fleet::FleetResult fleet = fleet::run_fleet(std::move(specs), options);

  std::printf("Fleet demo: %zu jobs, %d shared pods, %s split (seed %llu)\n",
              fleet.jobs.size(), budget_pods, static_split ? "static" : "pressure",
              static_cast<unsigned long long>(seed));
  if (faulted)
    std::printf("fault domains: %d nodes x %d pods, chaos \"%s\"\n", nodes, node_cap,
                chaos.c_str());
  std::printf("\n");

  common::Table jobs(
      {"job", "state", "admitted", "slots", "sheds", "SLO misses", "tuples", "cost $"});
  for (const auto& job : fleet.jobs)
    jobs.add_row({job.name, std::string(fleet::to_string(job.state)),
                  job.admitted_slot ? std::to_string(*job.admitted_slot) : std::string("-"),
                  std::to_string(job.slots_run), std::to_string(job.sheds),
                  std::to_string(job.slo_misses), common::Table::num(job.run.total_tuples, 0),
                  common::Table::num(job.run.total_cost, 2)});
  std::printf("%s\n", jobs.to_string().c_str());

  if (faulted) {
    // Chaos view of the ledger: the effective budget (net of cuts and node
    // loss), brownout parking, and node health alongside the usual columns.
    common::Table ledger(
        {"slot", "running", "parked", "pods", "budget", "failed", "cordoned", "$/h"});
    for (const auto& s : fleet.slots)
      ledger.add_row({std::to_string(s.slot), std::to_string(s.running_jobs),
                      std::to_string(s.parked_jobs), std::to_string(s.total_pods),
                      std::to_string(s.effective_budget), std::to_string(s.failed_nodes),
                      std::to_string(s.cordoned_nodes), common::Table::num(s.spend_rate, 2)});
    std::printf("%s", ledger.to_string().c_str());

    for (const auto& fault : fleet.fleet_faults) {
      std::printf("fault %-24s slot %-3zu pods lost %-3d nodes [", fault.event.to_string().c_str(),
                  fault.slot, fault.pods_lost);
      for (std::size_t k = 0; k < fault.nodes.size(); ++k)
        std::printf("%s%d", k ? ", " : "", fault.nodes[k]);
      std::printf("]\n");
    }
    std::printf("brownout: %zu sheds, %zu restores\n", fleet.sheds, fleet.restores);
  } else {
    common::Table ledger({"slot", "running", "queued", "pods", "$/h", "SLO misses"});
    for (const auto& s : fleet.slots)
      ledger.add_row({std::to_string(s.slot), std::to_string(s.running_jobs),
                      std::to_string(s.queued_jobs), std::to_string(s.total_pods),
                      common::Table::num(s.spend_rate, 2), std::to_string(s.slo_misses)});
    std::printf("%s", ledger.to_string().c_str());
  }

  std::printf("fleet total: %.3g tuples, $%.2f, %zu SLO misses, limits %s\n",
              fleet.total_tuples, fleet.total_cost, fleet.total_slo_misses,
              fleet.limits_respected ? "respected" : "VIOLATED");
  return fleet.limits_respected ? 0 : 1;
}
