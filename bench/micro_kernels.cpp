// Fleet speed harness: the fleet slot latency behind
// bench/baselines/BENCH_speed.json.  It steps the same fleet with the pool
// pinned serial and at several lanes, times both, and records an FNV-1a
// checksum over the FleetResult bits.  `--json` writes the timed report;
// `--checks` writes a timing-free JSON of just the checksum: CI runs it at
// --threads 1 and --threads 8 and cmp's the bytes, which is the
// machine-checkable statement that thread count never leaks into computed
// values.  The per-layer kernel timings (GP update and predict, saddle solve,
// oracle) come from `perfbench/run.py --trace 1` on the real workloads.
//
//   ./micro_kernels [--json BENCH_speed.json] [--checks checks.json]
//                   [--threads 0] [--fleet-jobs 1000] [--fleet-slots 4]
//                   [--seed 7]
#include <bit>
#include <chrono>  // wall-clock timings are bench output, never simulated state
#include <cinttypes>
#include <fstream>
#include <thread>  // hardware_concurrency for the hardware stanza of BENCH_speed.json

#include "bench_util.hpp"
#include "fleet/fleet.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace dragster;

/// FNV-1a over 64-bit words; doubles fold in by bit pattern, so the checksum
/// changes iff any result bit changes.
constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xffULL;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::uint64_t fnv1a(std::uint64_t hash, double value) {
  return fnv1a(hash, std::bit_cast<std::uint64_t>(value));
}

std::string hex64(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016" PRIx64, value);
  return buffer;
}

// --- fleet slot latency -----------------------------------------------------

/// Compact clone of fig11_fleet's fleet builder (hot/normal/lull thirds over
/// the Nexmark-style suite minus WordCount) so the slot-latency entry steps
/// the same kind of fleet the figure does.
std::vector<fleet::JobSpec> make_speed_fleet(std::size_t n) {
  std::vector<workloads::WorkloadSpec> suite = workloads::nexmark_suite();
  suite.pop_back();  // WordCount last in suite order
  std::vector<fleet::JobSpec> specs;
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    fleet::JobSpec spec;
    spec.name = "job-" + std::to_string(i);
    spec.workload = suite[i % suite.size()];
    if (i % 3 == 0)
      for (auto& [src, rate] : spec.workload.low_rate) rate *= 1.5;
    if (i % 3 == 2)
      for (auto& [src, rate] : spec.workload.low_rate) rate *= 0.35;
    spec.high_rate = false;
    spec.controller = "Dragster";
    spec.slo.max_latency_s = 30.0;
    spec.engine.slot_duration_s = 60.0;
    spec.engine.sample_interval_s = 60.0;
    specs.push_back(std::move(spec));
  }
  return specs;
}

std::uint64_t checksum_fleet(const fleet::FleetResult& result) {
  std::uint64_t hash = kFnvOffset;
  hash = fnv1a(hash, result.total_tuples);
  hash = fnv1a(hash, result.total_cost);
  hash = fnv1a(hash, static_cast<std::uint64_t>(result.total_slo_misses));
  hash = fnv1a(hash, static_cast<std::uint64_t>(result.admissions));
  hash = fnv1a(hash, static_cast<std::uint64_t>(result.rejections));
  hash = fnv1a(hash, static_cast<std::uint64_t>(result.evictions));
  hash = fnv1a(hash, static_cast<std::uint64_t>(result.limits_respected ? 1 : 0));
  for (const fleet::FleetSlot& slot : result.slots) {
    hash = fnv1a(hash, static_cast<std::uint64_t>(slot.total_pods));
    hash = fnv1a(hash, static_cast<std::uint64_t>(slot.slo_misses));
    hash = fnv1a(hash, slot.tuples);
    hash = fnv1a(hash, slot.throughput);
  }
  return hash;
}

struct FleetReport {
  std::size_t jobs = 0;
  std::size_t slots = 0;
  std::size_t threads = 0;  ///< lanes in the parallel arm
  double serial_ms_per_slot = 0.0;
  double parallel_ms_per_slot = 0.0;
  bool deterministic = false;  ///< serial and parallel results byte-identical
  std::uint64_t checksum = 0;
};

struct FleetTimed {
  double ms_per_slot = 0.0;
  std::uint64_t checksum = 0;
};

FleetTimed run_fleet_once(std::size_t jobs, std::size_t slots, std::uint64_t seed) {
  using clock = std::chrono::steady_clock;  // bench-only timing
  std::vector<fleet::JobSpec> specs = make_speed_fleet(jobs);
  fleet::FleetOptions options;
  options.slots = slots;
  long long floors = 0;
  for (const fleet::JobSpec& spec : specs) floors += spec.floor_pods();
  options.budget_pods =
      static_cast<int>(floors + (7 * static_cast<long long>(specs.size())) / 4);
  options.arbiter.mode = fleet::ArbiterMode::kPressure;
  options.limits.max_total_pods = options.budget_pods;
  options.seed = seed;
  fleet::FleetScheduler scheduler(std::move(specs), options, nullptr);
  // The admission slot constructs every bundle and is serial by design; time
  // the steady-state slots after it, which is where the pool fans out.
  scheduler.step();
  const auto begin = clock::now();  // bench-only timing
  for (std::size_t t = 1; t < slots; ++t) scheduler.step();
  const auto end = clock::now();  // bench-only timing
  FleetTimed timed;
  timed.ms_per_slot = std::chrono::duration<double, std::milli>(end - begin).count() /
                      static_cast<double>(slots - 1);
  timed.checksum = checksum_fleet(scheduler.finish());
  return timed;
}

/// Steps the same fleet twice — pool pinned serial, then at `threads` lanes —
/// and reports both per-slot latencies plus the byte-level determinism
/// verdict (the two FleetResult checksums must agree).
FleetReport bench_fleet_slot(std::size_t jobs, std::size_t slots, std::size_t threads,
                             std::uint64_t seed) {
  FleetReport report;
  report.jobs = jobs;
  report.slots = slots;
  report.threads = threads;
  parallel::TaskPool::set_global_threads(1);
  const FleetTimed serial = run_fleet_once(jobs, slots, seed);
  parallel::TaskPool::set_global_threads(threads);
  const FleetTimed parallel_arm = run_fleet_once(jobs, slots, seed);
  parallel::TaskPool::set_global_threads(0);
  report.serial_ms_per_slot = serial.ms_per_slot;
  report.parallel_ms_per_slot = parallel_arm.ms_per_slot;
  report.deterministic = serial.checksum == parallel_arm.checksum;
  report.checksum = serial.checksum;
  return report;
}

double safe_speedup(double reference, double optimized) {
  return optimized > 0.0 ? reference / optimized : 0.0;
}

int speed_harness(const common::Flags& flags) {
  const std::string json_path = flags.get("json", std::string());
  const std::string checks_path = flags.get("checks", std::string());
  const auto fleet_jobs = static_cast<std::size_t>(flags.get("fleet-jobs", std::int64_t{1000}));
  const auto fleet_slots = static_cast<std::size_t>(flags.get("fleet-slots", std::int64_t{4}));
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{7}));
  bench::configure_threads(flags);
  flags.reject_unused();
  bench::print_header("micro_kernels speed harness", seed);
  FleetReport fleet;
  bool deterministic = true;
  if (fleet_jobs > 0) {
    const std::size_t lanes = std::max<std::size_t>(2, parallel::TaskPool::hardware_threads(8));
    fleet = bench_fleet_slot(fleet_jobs, fleet_slots, lanes, seed);
    std::printf(
        "fleet slot: %zu jobs, %zu slots — serial %.1f ms/slot, %zu-lane %.1f "
        "ms/slot, deterministic: %s\n\n",
        fleet.jobs, fleet.slots, fleet.serial_ms_per_slot, fleet.threads,
        fleet.parallel_ms_per_slot, fleet.deterministic ? "yes" : "NO");
    deterministic = fleet.deterministic;
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"micro_kernels_speed\",\n";
    out << "  \"seed\": " << seed << ",\n";
    out << "  \"hardware\": {\"hardware_threads\": " << std::thread::hardware_concurrency()
        << "},\n";
    char buffer[64];
    out << "  \"fleet\": {\"jobs\": " << fleet.jobs << ", \"slots\": " << fleet.slots
        << ", \"threads\": " << fleet.threads;
    std::snprintf(buffer, sizeof(buffer), "%.1f", fleet.serial_ms_per_slot);
    out << ", \"serial_ms_per_slot\": " << buffer;
    std::snprintf(buffer, sizeof(buffer), "%.1f", fleet.parallel_ms_per_slot);
    out << ", \"parallel_ms_per_slot\": " << buffer;
    std::snprintf(buffer, sizeof(buffer), "%.2f",
                  safe_speedup(fleet.serial_ms_per_slot, fleet.parallel_ms_per_slot));
    out << ", \"speedup\": " << buffer;
    out << ", \"deterministic\": " << (fleet.deterministic ? "true" : "false");
    out << ", \"checksum\": \"" << hex64(fleet.checksum) << "\"}\n}\n";
    std::printf("speed report written to %s\n", json_path.c_str());
  }

  if (!checks_path.empty()) {
    // Timing-free: only computed-result checksums, so two runs at different
    // --threads must produce byte-identical files (the CI cmp gate).
    std::ofstream out(checks_path);
    out << "{\n  \"bench\": \"micro_kernels_checks\",\n";
    out << "  \"seed\": " << seed << ",\n";
    out << "  \"fleet\": {\"jobs\": " << fleet.jobs << ", \"slots\": " << fleet.slots
        << ", \"deterministic\": " << (fleet.deterministic ? "true" : "false")
        << ", \"checksum\": \"" << hex64(fleet.checksum) << "\"}\n}\n";
    std::printf("checksums written to %s\n", checks_path.c_str());
  }

  std::printf("serial and pooled fleet runs identical: %s\n", deterministic ? "PASS" : "FAIL");
  return deterministic ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const common::Flags flags(argc, argv);
  return speed_harness(flags);
}
