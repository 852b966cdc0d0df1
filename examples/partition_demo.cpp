// Unreliable control plane demo: one job driven through a *flapping*
// network partition between its controller and the cluster.
//
//   ./partition_demo                       # three blackouts, default guard
//   ./partition_demo --drop 0.2 --seed 9   # add ambient telemetry loss
//   ./partition_demo --no-guard            # watchdog ablation: never opens
//
// Telemetry scrapes traverse a lossy channel; after enough consecutive
// missed scrapes the circuit breaker opens, the last-known-good
// configuration is held, and a long enough blackout hands the job to the
// DS2 rule fallback sized on the last delivered frame.  The demo prints
// every breaker transition and the held configuration slot by slot — the
// same per-slot view bench/fig13_partition scores.
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "core/dragster_controller.hpp"
#include "streamsim/engine.hpp"
#include "transport/transport.hpp"
#include "workloads/workloads.hpp"

int main(int argc, char** argv) {
  using namespace dragster;
  const common::Flags flags(argc, argv);
  const auto slots = static_cast<std::size_t>(flags.get("slots", std::int64_t{36}));
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{17}));
  const double drop = flags.get("drop", 0.0);
  const bool guard = !flags.get("no-guard", false);
  flags.reject_unused();

  const workloads::WorkloadSpec spec = workloads::wordcount();
  streamsim::Engine engine = spec.make_engine(/*high=*/true, streamsim::EngineOptions{}, seed);
  core::DragsterController controller{core::DragsterOptions{}};

  // The flapping wire: three blackouts with ever-longer windows, short
  // heals in between — the second window is long enough to trip the DS2
  // rule fallback before the wire comes back.
  transport::TransportOptions topts;
  topts.telemetry.drop_prob = drop;
  topts.telemetry.partitions = {{8, 3}, {14, 8}, {26, 3}};
  topts.guard.enabled = guard;
  topts.guard.open_after_misses = 2;
  topts.guard.rule_fallback_after = 4;
  transport::TransportHarness harness(topts, seed);
  harness.attach(engine, engine.dag(), online::Budget::unlimited(0.10), nullptr);
  controller.initialize(engine.monitor(), engine);

  std::printf("WordCount + Dragster over a flapping partition, %zu slots, seed %llu\n", slots,
              static_cast<unsigned long long>(seed));
  std::printf("blackouts: slots 8-10, 14-21, 26-28; guard %s\n\n",
              guard ? "on (open after 2 misses, DS2 rule after 4 open slots)" : "OFF (ablation)");
  std::printf("slot  wire  breaker    age  acting     config\n");

  const std::vector<dag::NodeId> operators = engine.dag().operators();
  transport::BreakerState last = harness.breaker();
  std::uint64_t last_fallback = 0, last_held = 0;
  for (std::size_t t = 0; t < slots; ++t) {
    harness.begin_slot(t);
    (void)engine.run_slot();
    harness.control_step(controller, streamsim::MonitorFrame::capture(engine.monitor()), t);

    const transport::TransportStats& stats = harness.stats();
    const bool fell_back = stats.rule_fallback_slots > last_fallback;
    const bool held = stats.held_slots > last_held;
    last_fallback = stats.rule_fallback_slots;
    last_held = stats.held_slots;

    std::string config;
    for (dag::NodeId op : operators) {
      if (!config.empty()) config += ' ';
      config += std::to_string(engine.tasks(op));
    }
    const std::size_t age = harness.staleness();
    std::printf("%4zu  %s  %-9s  %3zu  %-9s  [%s]%s\n", t,
                harness.telemetry_partitioned(t) ? "XXXX" : "ok  ", to_string(harness.breaker()),
                age,
                fell_back ? "ds2-rule" : held ? "hold-lkg" : "controller", config.c_str(),
                harness.breaker() != last ? "   <-- breaker transition" : "");
    last = harness.breaker();
  }

  const transport::TransportStats& stats = harness.stats();
  std::printf(
      "\nscrapes: %llu sent, %llu delivered, %llu dropped, %llu missed; breaker: %llu opens, "
      "%llu recloses; %llu slots held LKG, %llu slots on the DS2 rule\n",
      static_cast<unsigned long long>(stats.frames_sent),
      static_cast<unsigned long long>(stats.frames_delivered),
      static_cast<unsigned long long>(stats.frames_dropped),
      static_cast<unsigned long long>(stats.missed_scrapes),
      static_cast<unsigned long long>(stats.breaker_opens),
      static_cast<unsigned long long>(stats.breaker_closes),
      static_cast<unsigned long long>(stats.held_slots),
      static_cast<unsigned long long>(stats.rule_fallback_slots));
  return 0;
}
