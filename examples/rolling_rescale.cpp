// Rolling-rescale demo: watch one operator scale through the asynchronous
// actuation layer, pod by pod.
//
// Three acts, all driven by hand (no controller) so each transition is
// visible:
//   1. a rolling scale-up — new pods sit Pending for ~1.5 slots before the
//      reconciler tops the operator up to the target,
//   2. a rescale issued during an admission outage — every attempt is
//      rejected, retries back off and exhaust, and the operator rolls back
//      to its last-known-good configuration,
//   3. the same rescale after the outage clears — it lands normally.
//
//   ./rolling_rescale [--seed 17]
#include <cstdio>
#include <string>

#include "actuation/actuation.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "workloads/workloads.hpp"

int main(int argc, char** argv) {
  using namespace dragster;
  const common::Flags flags(argc, argv);
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{17}));
  flags.reject_unused();

  const workloads::WorkloadSpec spec = workloads::wordcount();
  streamsim::Engine engine = spec.make_engine(/*high=*/true, streamsim::EngineOptions{}, seed);

  actuation::ActuationOptions aopts;
  aopts.sched_latency_mean_slots = 1.5;
  aopts.sched_latency_jitter = 0.4;
  aopts.deadline_slots = 4;
  aopts.max_retries = 1;
  aopts.backoff_base_slots = 1.0;
  aopts.backoff_jitter_slots = 0.5;
  actuation::ActuationManager manager(engine, aopts, seed);

  dag::NodeId op = 0;
  for (dag::NodeId id : spec.dag.operators())
    if (spec.dag.component(id).name == "shuffle_count") op = id;

  auto phase = [&]() -> std::string {
    const auto view = manager.in_flight_info(op);
    if (!view) return "idle";
    if (!view->admitted)
      return "backoff(" + common::Table::num(view->backoff_left_slots, 1) + ")";
    if (view->pods_pending > 0) return "Pending(" + std::to_string(view->pods_pending) + ")";
    return "Running";
  };
  auto step = [&](std::size_t slots, const char* note) {
    for (std::size_t t = 0; t < slots; ++t) {
      manager.begin_slot();
      const streamsim::SlotReport& report = engine.run_slot();
      std::printf("  slot %2zu  engine=%d  pending=%d  epoch=%-12s  %7.0f tput/s  %s\n",
                  report.slot_index, engine.tasks(op), engine.cluster().total_pending(),
                  phase().c_str(), report.throughput_rate, t == 0 ? note : "");
    }
  };

  std::printf("WordCount, seed %llu — rescaling \"shuffle_count\" (starts at %d tasks)\n",
              static_cast<unsigned long long>(seed), engine.tasks(op));
  const int base = engine.tasks(op);

  std::printf("\nact 1: rolling scale-up to %d (pods schedule in ~1.5 slots)\n", base + 4);
  manager.set_tasks(op, base + 4);
  step(4, "<- issued");

  std::printf("\nact 2: scale to %d during an admission outage (max_retries=1)\n", base + 6);
  manager.set_admission_outage(true);
  manager.set_tasks(op, base + 6);
  step(5, "<- issued, rejected");
  std::printf("  rolled back to last-known-good = %d tasks\n", manager.last_known_good_tasks(op));

  std::printf("\nact 3: outage clears; the same rescale lands\n");
  manager.set_admission_outage(false);
  manager.set_tasks(op, base + 6);
  step(4, "<- reissued");

  std::printf("\naudit trail (every epoch terminates exactly once):\n");
  common::Table audit({"epoch", "desired", "issued@", "ended@", "outcome"});
  for (const actuation::EpochRecord& record : manager.records()) {
    if (record.op != op) continue;
    audit.add_row({std::to_string(record.epoch), std::to_string(record.desired_tasks),
                   std::to_string(record.issue_round), std::to_string(record.terminal_round),
                   actuation::to_string(record.outcome)});
  }
  std::printf("%s", audit.to_string().c_str());

  for (const actuation::OperatorStats& stats : manager.operator_stats()) {
    if (stats.op != op) continue;
    std::printf("\n%s: issued %zu, applied %zu, rolled back %zu, retried %zu, "
                "admission rejects %zu, mean slots-to-Running %.2f\n",
                stats.name.c_str(), stats.issued, stats.applied, stats.rolled_back,
                stats.retried, stats.admission_rejects, stats.mean_slots_to_running());
  }
  return 0;
}
