// Microbenchmarks for the library's hot kernels, in two modes:
//
//  1. Google-benchmark (default): GP posterior updates/predictions at growing
//     history sizes, acquisition argmax over candidate grids, DAG flow solves
//     and Lagrangian gradients, the saddle-point solve, and the simulator's
//     micro-step rate.  All google-benchmark flags pass through.
//
//  2. Speed harness (`--json PATH` and/or `--checks PATH`): the fleet slot
//     latency behind bench/baselines/BENCH_speed.json.  It steps the same
//     fleet with the pool pinned serial and at several lanes, times both, and
//     records an FNV-1a checksum over the FleetResult bits.  `--checks`
//     writes a timing-free JSON of just the checksum: CI runs it at
//     --threads 1 and --threads 8 and cmp's the bytes, which is the
//     machine-checkable statement that thread count never leaks into
//     computed values.
//
//   ./micro_kernels --json BENCH_speed.json [--checks checks.json]
//                   [--threads 0] [--fleet-jobs 1000] [--fleet-slots 4]
//                   [--seed 7]
#include <benchmark/benchmark.h>

#include <bit>
#include <chrono>  // wall-clock timings are bench output, never simulated state
#include <cinttypes>
#include <fstream>
#include <string_view>
#include <thread>  // hardware_concurrency for the hardware stanza of BENCH_speed.json

#include "baselines/oracle.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "dag/flow_solver.hpp"
#include "fleet/fleet.hpp"
#include "gp/acquisition.hpp"
#include "gp/gaussian_process.hpp"
#include "online/saddle_point.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace dragster;

gp::GaussianProcess make_gp(std::size_t observations, std::uint64_t seed = 1) {
  gp::GaussianProcess gp(
      std::make_unique<gp::SquaredExponentialKernel>(2.25, std::vector{2.5}), 0.0064, 1.0);
  common::Rng rng(seed);
  for (std::size_t i = 0; i < observations; ++i)
    gp.add_observation({static_cast<double>(1 + i % 10)}, rng.normal(1.0, 0.2));
  return gp;
}

void BM_GpAddObservation(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    gp::GaussianProcess gp = make_gp(n);
    state.ResumeTiming();
    gp.add_observation({4.0}, 1.1);
    benchmark::DoNotOptimize(gp.num_observations());
  }
}
BENCHMARK(BM_GpAddObservation)->Arg(10)->Arg(50)->Arg(200);

void BM_GpPredict(benchmark::State& state) {
  const gp::GaussianProcess gp = make_gp(static_cast<std::size_t>(state.range(0)));
  const std::vector<double> x{5.0};
  for (auto _ : state) {
    const auto post = gp.predict(x);
    benchmark::DoNotOptimize(post.mean);
  }
}
BENCHMARK(BM_GpPredict)->Arg(10)->Arg(50)->Arg(200);

void BM_AcquisitionArgmax(benchmark::State& state) {
  const gp::GaussianProcess gp = make_gp(30);
  const auto grid = gp::integer_grid(1, 1, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const auto pick = gp::select_target_tracking_ucb(gp, grid, 1.2, 10.0);
    benchmark::DoNotOptimize(pick->index);
  }
}
BENCHMARK(BM_AcquisitionArgmax)->Arg(10)->Arg(100);

void BM_FlowSolveYahoo(benchmark::State& state) {
  const auto spec = workloads::yahoo();
  const dag::FlowSolver flow(spec.dag);
  std::vector<double> rates(spec.dag.node_count(), 0.0);
  rates[spec.dag.sources()[0]] = 90'000.0;
  std::vector<double> caps(spec.dag.node_count(), 50'000.0);
  for (auto _ : state) benchmark::DoNotOptimize(flow.app_throughput(rates, caps));
}
BENCHMARK(BM_FlowSolveYahoo);

void BM_LagrangianGradientYahoo(benchmark::State& state) {
  const auto spec = workloads::yahoo();
  const dag::FlowSolver flow(spec.dag);
  const std::size_t n = spec.dag.node_count();
  std::vector<double> rates(n, 0.0);
  rates[spec.dag.sources()[0]] = 90'000.0;
  std::vector<double> caps(n, 50'000.0);
  std::vector<double> lambda(n, 0.5);
  std::vector<double> demand(n, 60'000.0);
  for (auto _ : state) {
    const auto lr = flow.lagrangian(rates, caps, lambda, demand);
    benchmark::DoNotOptimize(lr.value);
  }
}
BENCHMARK(BM_LagrangianGradientYahoo);

void BM_SaddlePointSolveYahoo(benchmark::State& state) {
  const auto spec = workloads::yahoo();
  const dag::FlowSolver flow(spec.dag);
  const std::size_t n = spec.dag.node_count();
  std::vector<double> rates(n, 0.0);
  rates[spec.dag.sources()[0]] = 90'000.0;
  std::vector<double> lambda(n, 0.2);
  std::vector<double> start(n, 30'000.0);
  std::vector<double> demand(n, 40'000.0);
  online::SaddlePointOptions options;
  options.y_max = 3e5;
  const online::SaddlePointSolver solver(options);
  for (auto _ : state) {
    const auto y = solver.solve(flow, rates, lambda, start, demand);
    benchmark::DoNotOptimize(y[2]);
  }
}
BENCHMARK(BM_SaddlePointSolveYahoo);

void BM_EngineSlotYahoo(benchmark::State& state) {
  const auto spec = workloads::yahoo();
  streamsim::EngineOptions options;
  options.slot_duration_s = 600.0;
  streamsim::Engine engine = spec.make_engine(true, options, 7);
  for (auto _ : state) {
    const auto& report = engine.run_slot();
    benchmark::DoNotOptimize(report.tuples_processed);
  }
  state.SetItemsProcessed(state.iterations() * 600);  // micro-steps per slot
}
BENCHMARK(BM_EngineSlotYahoo);

void BM_OracleExhaustiveWordcount(benchmark::State& state) {
  const auto spec = workloads::wordcount();
  streamsim::EngineOptions options;
  options.capacity_noise = 0.0;
  streamsim::Engine engine = spec.make_engine(true, options, 1);
  const baselines::Oracle oracle(engine);
  for (auto _ : state) {
    const auto result = oracle.optimal_at(0.0, online::Budget::unlimited(0.10));
    benchmark::DoNotOptimize(result.throughput);
  }
}
BENCHMARK(BM_OracleExhaustiveWordcount);

void BM_OracleScalingSearchYahoo(benchmark::State& state) {
  const auto spec = workloads::yahoo();
  streamsim::EngineOptions options;
  options.capacity_noise = 0.0;
  streamsim::Engine engine = spec.make_engine(true, options, 1);
  const baselines::Oracle oracle(engine);
  for (auto _ : state) {
    const auto result = oracle.optimal_at(0.0, online::Budget::unlimited(0.10));
    benchmark::DoNotOptimize(result.throughput);
  }
}
BENCHMARK(BM_OracleScalingSearchYahoo);

// ---------------------------------------------------------------------------
// Speed harness (--json / --checks).
// ---------------------------------------------------------------------------

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
  bool harness = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg.rfind("--json", 0) == 0 || arg.rfind("--checks", 0) == 0) harness = true;
  }
  if (harness) {
    const common::Flags flags(argc, argv);
    return speed_harness(flags);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
