// The benchmark's three workloads and the episode runner that drives them.
//
// An episode is one complete run of a workload's horizon from freshly
// generated inputs: spec generation, construction, the first (admission)
// slot — together the set-up — then every further slot timed one step() at a
// time in a closed loop, then finish() and the output checks.  A benchmark
// run repeats episodes of one seed until its time is up, so every episode of
// a run must produce the same checksum.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.hpp"
#include "timing.hpp"

namespace dragbench {

enum class Workload { kFleetSteady, kSingleLong, kFleetChaos };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload workload);
/// Horizon of one episode, in slots (the first is the set-up slot).
[[nodiscard]] std::size_t horizon_slots(Workload workload);

/// What the traced pass measures from outside, besides the stamping sink.
/// Controller probes run on the single-long job itself, or on a few
/// single-job twins of fleet members stepped beside the fleet.
struct ProbeTotals {
  std::vector<double> pre_ms;   ///< ScenarioRunner::step entry -> on_slot entry
  std::vector<double> post_ms;  ///< on_slot exit -> ScenarioRunner::step exit
  std::vector<double> on_slot_sum_by_slot;  ///< decorator ms, summed per slot index
  std::vector<std::size_t> on_slot_count_by_slot;
  std::vector<double> saddle_us;       ///< one SaddlePointSolver::solve
  std::vector<double> predict_us;      ///< predict_batch over the task grid, per slot
  std::vector<double> add_obs_us;      ///< add_observation on a GP copy, per slot
  std::vector<double> oracle_ms;       ///< one uncached Oracle::optimal_at
  std::size_t gp_observations = 0;     ///< max over operators at episode end
};

/// Present only on the traced pass.
struct Tracing {
  StampingSink sink;
  dragster::obs::Registry registry;
  ProbeTotals probes;
  Tracing() { registry.set_trace(&sink); }
  Tracing(const Tracing&) = delete;
  Tracing& operator=(const Tracing&) = delete;
};

struct Episode {
  std::uint64_t checksum = 0;
  double setup_s = 0.0;       ///< spec generation + construction + first slot
  double first_slot_ms = 0.0; ///< the first step() alone (fleet admission)
  std::vector<double> slot_ms;         ///< every later step(), in order
  std::vector<std::size_t> slot_jobs;  ///< job-slots each of those steps ran
  // -- checks: job-slots attempted and failed, and the names of failed checks
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  // -- behaviour, fixed for a seed
  std::size_t job_slots = 0;
  std::size_t slo_misses = 0;
  double throughput_sum = 0.0;
  double oracle_sum = 0.0;
  double tuples = 0.0;
  double cost = 0.0;
  // -- layer counts (from FleetResult / RunResult)
  std::size_t snapshots = 0;
  std::size_t replayed_frames = 0;
  std::size_t epochs_issued = 0;
  std::size_t epochs_applied = 0;
  std::size_t faults_applied = 0;
  std::size_t sheds = 0;
  std::size_t restores = 0;
};

/// Runs one episode of `workload` from `seed`.  With `tracing`, the registry
/// and stamping sink are attached, the single-long controller is wrapped in
/// the TimedController, and the probes run after every timed slot.  A
/// dragster::Error (or any std::exception) inside the episode fails every
/// job-slot from the one that threw to the horizon; it never escapes.
[[nodiscard]] Episode run_episode(Workload workload, std::uint64_t seed, Tracing* tracing);

/// The set-up of one untraced episode alone (spec generation, construction,
/// first slot), in seconds; the rest of the horizon is not run.
[[nodiscard]] double run_setup(Workload workload, std::uint64_t seed);

}  // namespace dragbench
