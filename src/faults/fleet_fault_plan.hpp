// Cluster-scoped fault timelines for fleet chaos experiments.
//
// FaultPlan (fault_plan.hpp) describes what happens *inside one job*; its
// events are independent across jobs by construction, so it cannot express
// the correlated-failure regime that actually stresses a fleet: a whole node
// dying takes pods from many jobs in the same slot.  A FleetFaultPlan is the
// cluster-side counterpart, consumed by fleet::FleetScheduler against the
// shared ledger's fault-domain model.  It uses the same grammar
// (spec_grammar.hpp) with its own kinds; here the ':target' names a job:
//
//   nodecrash@6          the most-loaded node dies at slot 6 (permanent)
//   nodecrash@6*2        two nodes die at once (correlated rack loss)
//   nodedrain@10+4       the most-loaded node is cordoned and emptied at
//                        slot 10, and comes back at slot 14
//   nodedrain@10+4*2     two nodes drained for the window
//   budgetcut@12+5*0.3   the global pod budget loses 30% for 5 slots
//                        (a spot-capacity reclaim / billing brownout)
//   jobcrash@8:job-3     every pod of job-3 above its per-operator floor
//                        dies at slot 8 (whole-job process failure)
//   netpart@9+3          control-plane partition: every transported job's
//                        channels eat all messages for slots 9..11
//   netpart@9+3:job-2    the same blackout, scoped to one job
//   netdrop@14+6*0.4     per-message loss raised to 40% for the window
//   netdelay@20+4*3      mean control-plane delay tripled for the window
//                        (the multiplier scales whole slots: integer >= 2)
//
// The net kinds act on the per-job transport::TransportHarness channels, so
// they only make sense for jobs constructed with a transport config; the
// scheduler rejects a plan that nets a transport-less fleet.
//
// Victim nodes are not named in the spec: the scheduler picks the
// most-loaded usable node (lowest index on ties) when the event fires, so a
// plan stays meaningful across fleet sizes while remaining deterministic.
//
// Plans may also be sampled from the seeded common::Rng (sample()) so
// randomized fleet chaos stays reproducible bit-for-bit from one uint64.
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"

namespace dragster::faults {

enum class FleetFaultKind {
  kNodeCrash,     ///< permanent loss of whole nodes (correlated pod kill)
  kNodeDrain,     ///< nodes cordoned + emptied for a window, then uncordoned
  kBudgetCut,     ///< global pod budget scaled down for a window
  kJobCrash,      ///< one job loses every pod above its per-operator floor
  kNetPartition,  ///< control-plane blackout for a window (netpart)
  kNetDrop,       ///< control-plane loss raised to a fraction (netdrop)
  kNetDelay,      ///< control-plane mean delay multiplied (netdelay)
};

[[nodiscard]] const char* to_string(FleetFaultKind kind);

struct FleetFaultEvent {
  FleetFaultKind kind = FleetFaultKind::kNodeCrash;
  std::size_t slot = 0;            ///< slot index at which the event fires
  std::size_t duration_slots = 1;  ///< nodedrain / budgetcut window length
  /// Node crash/drain: node count (>= 1; 0 is normalized to 1).
  /// Budget cut: fraction of the budget removed, in (0, 1).
  /// Net drop: per-message loss probability, in (0, 1).
  /// Net delay: whole-slot delay multiplier (integer >= 2).
  double value = 0.0;
  /// jobcrash target (required); net kinds: optional scope (empty = every
  /// transported job); empty otherwise.
  std::string job;

  [[nodiscard]] std::string to_string() const;
};

/// What a fleet fault actually did when it fired — the nodes chosen and the
/// pods torn away — recorded by the scheduler for recovery analytics.
struct AppliedFleetFault {
  FleetFaultEvent event;
  std::size_t slot = 0;
  std::vector<int> nodes;  ///< victim node indices (crash/drain)
  int pods_lost = 0;       ///< pods removed across all affected jobs
};

class FleetFaultPlan {
 public:
  FleetFaultPlan() = default;
  /// Applies the kind rules parse() applies; throws dragster::Error on an
  /// event whose spec would not parse.
  explicit FleetFaultPlan(std::vector<FleetFaultEvent> events);

  /// Parses a spec; throws dragster::Error (offending token quoted) on
  /// malformed events, unknown kinds, non-integer slots/counts, or
  /// out-of-range values.
  [[nodiscard]] static FleetFaultPlan parse(const std::string& spec);

  /// Randomized fleet chaos: each slot in [warmup, horizon) draws each kind
  /// independently.  Node *crashes* are capped fleet-wide (max_crash_nodes)
  /// so a sampled plan degrades capacity transiently — drains end, cuts
  /// expire — which is what the shed-then-restore property tests need.
  struct SampleOptions {
    std::size_t horizon_slots = 24;
    std::size_t warmup_slots = 6;       ///< no chaos while controllers warm up
    double nodecrash_prob = 0.0;        ///< per slot; crashes are permanent
    double nodedrain_prob = 0.04;
    double budgetcut_prob = 0.04;
    double jobcrash_prob = 0.0;         ///< off unless job names are given
    double netpart_prob = 0.0;          ///< off unless the fleet is transported
    double netdrop_prob = 0.0;
    double netdelay_prob = 0.0;
    std::size_t max_crash_nodes = 1;    ///< total nodes sample() may kill
    std::size_t max_window_slots = 4;   ///< drain/cut/net durations in [1, max]
    double cut_fraction = 0.3;          ///< budget fraction removed per cut
    double drop_fraction = 0.3;         ///< loss probability per netdrop
    double delay_multiplier = 2.0;      ///< whole-slot factor per netdelay
    std::vector<std::string> jobs;      ///< jobcrash victim candidates
  };
  [[nodiscard]] static FleetFaultPlan sample(common::Rng& rng, const SampleOptions& options);

  [[nodiscard]] const std::vector<FleetFaultEvent>& events() const noexcept { return events_; }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

  /// True if any event needs the fault-domain node model to be configured.
  [[nodiscard]] bool touches_nodes() const noexcept;

  /// Round-trips through parse(): to_string() output is a valid spec.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<FleetFaultEvent> events_;  ///< sorted by slot (stable)
};

}  // namespace dragster::faults
