// Fleet layer: N jobs, one cluster, one budget.
//
// The FleetScheduler is the upper layer of the two-layer framework: it owns N
// independent jobs — each the familiar single-job bundle (Engine +
// Controller [+ ControllerSupervisor] [+ ActuationManager] [+ FaultInjector]
// driven through an experiments::ScenarioRunner) — and steps them
// slot-by-slot in fixed job-index order against one shared cluster ledger.
// Per slot:
//
//   1. admission — queued jobs whose arrival slot has come knock on the
//      cluster-wide gate: the floors of every running and parked job plus
//      the newcomer's, against the slot's effective pod budget and
//      FleetOptions::limits.  Rejected jobs stay queued; optionally one
//      strictly-lower-weight running job is evicted to make room (priority
//      admission control, in the fleet's one priority order).
//   2. arbitration — the BudgetArbiter splits the global pod budget across
//      running jobs online, guided by each controller's budget_pressure()
//      (Dragster: the mean dual multiplier), and each job's runner gets its
//      new online::Budget via set_budget().
//   3. stepping — each running job advances one slot through the identical
//      code path run_scenario uses; per-job obs scope labels every metric
//      and trace event with job=<name>.
//   4. accounting — the shared ledger is synced from every job engine, the
//      slot's fleet aggregates (pods, spend, SLO misses, throughput) are
//      recorded and published as fleet-level gauges / trace events.
//
// With a fault-domain model configured (FleetOptions::node_count) the slot
// gains a chaos prologue: cluster-scoped faults from a FleetFaultPlan fire
// first — node crashes/drains tear co-located pods off every affected job
// through the engines' inject_pod_failure seam in fixed index order, budget
// cuts shrink the slot's effective budget — and a brownout pass then parks
// lowest-priority jobs (bundle kept, pods released) while the aggregate
// floor exceeds the post-fault capacity, restoring them by priority with
// hysteresis once capacity returns.  A fault-free run never enters any of
// these paths and stays bit-identical to the flat-ledger fleet.
//
// Determinism contract: jobs are stepped in spec-index order, every job's
// engine is seeded from a counter-based substream of the fleet seed keyed on
// the job index, and budget splitting is whole-pod integer arithmetic — so
// same-seed fleet runs are byte-identical, and a 1-job fleet whose budget
// covers the job is bit-identical to run_scenario (the fleet determinism
// anchor; see test_fleet.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "fleet/budget_arbiter.hpp"
#include "fleet/fleet_result.hpp"
#include "fleet/job_spec.hpp"
#include "obs/registry.hpp"

namespace dragster::fleet {

struct FleetOptions {
  std::size_t slots = 30;
  /// Global budget in whole pods shared by every job; <= 0 means unlimited.
  /// Job i's dollar budget each slot is grant_i * pod_price_per_hour.
  int budget_pods = 0;
  double pod_price_per_hour = 0.10;
  ArbiterOptions arbiter;
  /// Cluster-wide admission gate on the shared ledger (0 = unlimited).
  cluster::AdmissionLimits limits;
  /// Allow admission to evict one strictly-lower-weight running job per
  /// attempt when the gate is full.
  bool allow_eviction = false;
  std::uint64_t seed = 1;
  // -- fault-domain model (off by default: zero nodes keeps the shared
  //    ledger flat and every slot bit-identical to the pre-node fleet) -----
  /// Number of physical nodes behind the shared ledger; 0 disables the
  /// fault-domain model.
  int node_count = 0;
  /// Pod capacity per node (required >= 1 when node_count > 0).
  int node_capacity = 0;
  /// Cluster-scoped chaos timeline (faults::FleetFaultPlan grammar); node
  /// events require node_count > 0.  Empty = no fleet faults.
  std::string chaos;
  /// Brownout restore hysteresis: consecutive slots the post-fault capacity
  /// must cover the next parked job's floor before it is handed back.
  std::size_t restore_hysteresis_slots = 2;
};

class FleetScheduler {
 public:
  /// Specs keep their order for the whole run — index order IS the
  /// deterministic job order.  Names must be unique and non-empty.
  FleetScheduler(std::vector<JobSpec> specs, FleetOptions options,
                 obs::Registry* obs = nullptr);
  ~FleetScheduler();
  FleetScheduler(const FleetScheduler&) = delete;
  FleetScheduler& operator=(const FleetScheduler&) = delete;

  /// One fleet slot: admission -> arbitration -> step every running job ->
  /// ledger sync + fleet telemetry.
  void step();

  /// Finalizes every job's RunResult and returns the fleet analytics.  Call
  /// at most once, after the last step().
  [[nodiscard]] FleetResult finish();

  [[nodiscard]] std::size_t slots_run() const noexcept { return slot_; }
  /// The shared ledger (job-attributed deployments mirrored each slot).
  [[nodiscard]] const cluster::Cluster& shared_cluster() const noexcept { return cluster_; }

  /// Counter-based per-job RNG substream: the engine seed of job `index` in
  /// a fleet seeded `fleet_seed`.  Exposed so tests can rebuild a fleet
  /// member's exact single-job twin.
  [[nodiscard]] static std::uint64_t job_seed(std::uint64_t fleet_seed, std::size_t index);

  /// Whole-pod grant -> dollar budget, the one conversion both the fleet and
  /// its tests use (bitwise-identical budgets on both sides of the
  /// 1-job-fleet == run_scenario anchor).
  [[nodiscard]] static online::Budget pods_budget(int pods, double pod_price_per_hour);

 private:
  struct Job;

  void admit_phase();
  void arbitrate();
  void construct_bundle(Job& job);
  void destroy_bundle(Job& job, JobState final_state);
  /// Mirrors the job's deployments into the shared ledger: created when
  /// `add` (a fresh or restored bundle), else rescaled to engine truth.
  void sync_ledger(Job& job, bool add);
  /// Summed floors of running jobs, and of parked ones when `parked_too`.
  [[nodiscard]] long long floor_pods(bool parked_too) const;
  [[nodiscard]] bool gate_allows(const Job& job) const;
  [[nodiscard]] Job* eviction_victim(double incoming_weight);

  // -- fleet chaos + graceful degradation (all no-ops on a fault-free run) --
  [[nodiscard]] bool chaos_active() const noexcept;
  /// Recomputes the slot's effective budget: the configured pod budget after
  /// active budget cuts, capped by the usable node capacity.
  void refresh_effective_budget();
  /// Expires drain/cut windows ending now, then fires every chaos event
  /// scheduled for this slot against the shared ledger and the affected
  /// jobs' engines (fixed index order).
  void apply_chaos();
  void propagate_node_loss(faults::AppliedFleetFault& applied,
                           const std::vector<cluster::NodeEviction>& evicted);
  /// Most-loaded usable node, lowest index on ties; -1 if none are left.
  [[nodiscard]] int victim_node() const noexcept;
  /// Sheds lowest-priority jobs while the aggregate floor exceeds the
  /// effective budget; restores the highest-priority parked job once
  /// capacity has covered its floor for restore_hysteresis_slots in a row.
  void brownout();
  void park_job(Job& job);
  void restore_job(Job& job);

  std::vector<std::unique_ptr<Job>> jobs_;  ///< spec order, stable for the run
  FleetOptions options_;
  BudgetArbiter arbiter_;
  cluster::Cluster cluster_;  ///< shared ledger ("<job>/<op>" deployments)
  obs::Registry* obs_;
  std::vector<FleetSlot> fleet_slots_;
  std::size_t slot_ = 0;
  std::size_t admissions_ = 0;
  std::size_t rejections_ = 0;
  std::size_t evictions_ = 0;
  bool limits_respected_ = true;
  // Chaos state: the parsed plan, windows currently open, and what fired.
  faults::FleetFaultPlan chaos_;
  std::vector<faults::AppliedFleetFault> fleet_faults_;
  std::vector<std::pair<std::size_t, int>> drains_;     ///< (end slot, node)
  std::vector<std::pair<std::size_t, double>> cuts_;    ///< (end slot, fraction)
  int effective_budget_ = 0;      ///< this slot's pod budget; 0 + !limited = unlimited
  bool budget_limited_ = false;   ///< whether effective_budget_ binds at all
  std::size_t restore_streak_ = 0;
  std::size_t sheds_ = 0;
  std::size_t restores_ = 0;
};

/// Mirrors experiments::run_scenario at fleet scale: construct, step
/// `options.slots` times, finish.
[[nodiscard]] FleetResult run_fleet(std::vector<JobSpec> specs, const FleetOptions& options,
                                    obs::Registry* obs = nullptr);

}  // namespace dragster::fleet
