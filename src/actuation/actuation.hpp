// Asynchronous, epoch-fenced actuation between controllers and the engine.
//
// The paper's controller assumes a rescale takes effect within the slot; on
// real Flink-on-Kubernetes a rescale is an asynchronous operation that can be
// slow (pods sit Pending while the scheduler finds room), partially applied
// (some replicas Running, some Pending), rejected by admission (quota, spend
// caps, API-server outages) or simply lost.  The ActuationManager implements
// that regime on top of the instant-apply Engine:
//
//   * Every decided configuration becomes an *operation* stamped with a
//     per-operator monotonically increasing epoch.  A newer decision
//     supersedes the in-flight one and cancels its pending pods, so a
//     late-landing completion or retry can never clobber a newer decision
//     (the epoch fence).
//   * New pods transition Pending -> Running under a seeded per-pod
//     scheduling-latency model; the engine only ever sees Running pods, so
//     simulated capacity reflects scheduled capacity and every partial
//     top-up pays the engine's checkpoint pause (transition downtime).
//   * A cluster-wide admission gate (pod-count cap, spend-rate cap, outage
//     flag — cluster::Cluster::try_admit) can reject or starve an operation.
//   * Every attempt carries a deadline; failed or starved attempts retry
//     with exponential backoff plus jitter, and once retries are exhausted
//     the operator is rolled back to its last-known-good configuration.
//   * begin_slot() runs a reconciliation pass: engine truth is re-adopted
//     (pod crashes, aborted checkpoints), pending pods age, partial applies
//     are topped up, deadlines and backoffs advance, and the ledger of
//     pending pods is republished to the cluster.
//
// Determinism: all scheduling latencies and retry jitters are drawn from
// counter-based substreams keyed on (operator, epoch, attempt, pod), derived
// on demand from one root seed — there is no mutable RNG state, so snapshots
// carry plain values only and restore bit-identically.  With zero scheduling
// latency, no admission limits and no faults, every operation completes
// synchronously inside the actuator call and a managed run is bit-identical
// to driving the engine directly.
//
// Every issued epoch terminates in exactly one of {applied, rolled-back,
// superseded} (or is still in flight at teardown) — the audit trail in
// records() lets tests assert that invariant.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "dag/stream_dag.hpp"
#include "resilience/snapshot.hpp"
#include "streamsim/engine.hpp"

namespace dragster::obs {
class Registry;
}

namespace dragster::actuation {

/// Terminal outcome of an epoch (kInFlight until it terminates).
enum class EpochOutcome { kInFlight, kApplied, kRolledBack, kSuperseded };

[[nodiscard]] const char* to_string(EpochOutcome outcome);

struct ActuationOptions {
  /// Mean slots a new pod spends Pending before Running.  0 => instant
  /// (pass-through: operations complete inside the actuator call).
  double sched_latency_mean_slots = 0.0;
  /// Relative spread: each pod's latency is mean * (1 + U(-j, +j)).
  double sched_latency_jitter = 0.0;
  /// Slots an admitted attempt may run before it times out and retries.
  std::size_t deadline_slots = 3;
  /// Additional attempts after the first; exhausted => rollback.
  std::size_t max_retries = 2;
  /// Retry k (1-based) waits base * 2^(k-1) + U(0, jitter) slots.
  double backoff_base_slots = 1.0;
  double backoff_jitter_slots = 1.0;
  /// Forwarded to the engine's cluster at construction (0 = unlimited).
  cluster::AdmissionLimits admission;
};

/// Per-operator actuation counters, exposed through RunResult.
struct OperatorStats {
  dag::NodeId op = 0;
  std::string name;
  std::size_t issued = 0;        ///< epochs created
  std::size_t applied = 0;       ///< terminated fully applied
  std::size_t rolled_back = 0;
  std::size_t superseded = 0;
  std::size_t retried = 0;       ///< extra attempts armed
  std::size_t admission_rejects = 0;
  double slots_to_running_sum = 0.0;  ///< over applied epochs

  [[nodiscard]] double mean_slots_to_running() const {
    return applied == 0 ? 0.0 : slots_to_running_sum / static_cast<double>(applied);
  }
};

/// One line of the audit trail: every epoch ever issued and how it ended.
struct EpochRecord {
  dag::NodeId op = 0;
  std::uint64_t epoch = 0;
  int desired_tasks = 0;
  std::size_t issue_round = 0;
  std::size_t terminal_round = 0;  ///< meaningful once outcome != kInFlight
  EpochOutcome outcome = EpochOutcome::kInFlight;
};

/// Introspection view of an in-flight operation (tests, examples).
struct InFlightView {
  std::uint64_t epoch = 0;
  int desired_tasks = 0;
  cluster::PodSpec desired_spec;
  bool spec_change = false;
  std::size_t attempts = 1;
  bool admitted = false;
  double backoff_left_slots = 0.0;
  std::size_t attempt_age = 0;
  std::size_t pods_pending = 0;  ///< requested, not yet Running
  int pods_ready = 0;            ///< Running replacements awaiting atomic swap
};

class ActuationManager final : public streamsim::ScalingActuator,
                               public resilience::Snapshotable {
 public:
  /// Binds to a live engine; reads the current configuration of every
  /// operator as both the applied and the last-known-good state and installs
  /// `options.admission` on the engine's cluster.
  ActuationManager(streamsim::Engine& engine, ActuationOptions options, std::uint64_t seed);

  // -- ScalingActuator ------------------------------------------------------
  // Both calls route through the epoch fence: a command equal to the current
  // target (in-flight desired, else applied) is ignored; a command issued in
  // the same slot as the live operation amends it in place (same epoch); any
  // other command supersedes the in-flight operation.
  void set_tasks(dag::NodeId op, int tasks) override;
  void set_pod_spec(dag::NodeId op, cluster::PodSpec spec) override;
  [[nodiscard]] bool in_flight(dag::NodeId op) const override;

  /// Reconciliation pass; call once per slot *before* Engine::run_slot().
  /// Re-adopts engine truth (crashes, aborted checkpoints), ages pending
  /// pods, tops up partial applies, advances deadlines/backoffs, rolls back
  /// exhausted operations, and republishes the pending-pod ledger.
  void begin_slot();

  /// Attaches an observability registry (epoch lifecycle trace + counters).
  /// Null disables telemetry; instrumentation is read-only, so attaching one
  /// never changes scheduling or retry behaviour.
  void set_observability(obs::Registry* registry) noexcept { obs_ = registry; }

  // -- fault seams (driven by faults::FaultInjector) ------------------------
  void set_admission_outage(bool active);
  /// Multiplies subsequently drawn scheduling latencies (scheddelay seam).
  void set_latency_multiplier(double factor);

  // -- observation ----------------------------------------------------------
  [[nodiscard]] std::optional<InFlightView> in_flight_info(dag::NodeId op) const;
  [[nodiscard]] const std::vector<EpochRecord>& records() const noexcept { return records_; }
  [[nodiscard]] std::vector<OperatorStats> operator_stats() const;
  [[nodiscard]] int applied_tasks(dag::NodeId op) const;
  [[nodiscard]] int last_known_good_tasks(dag::NodeId op) const;

  // -- Snapshotable ---------------------------------------------------------
  // In-flight operations serialize as plain values (latencies are data, not
  // RNG state), so a restored manager continues bit-identically.
  void save_state(resilience::SnapshotWriter& writer) const override;
  void load_state(resilience::SnapshotReader& reader) override;

 private:
  struct PendingPod {
    double latency_slots = 0.0;  ///< Running once age >= latency
    double age_slots = 0.0;
  };

  struct Operation {
    std::uint64_t epoch = 0;
    int desired_tasks = 1;
    cluster::PodSpec desired_spec;
    bool spec_change = false;       ///< atomic replacement (all pods, then swap)
    std::size_t issue_round = 0;
    std::size_t attempts = 1;       ///< attempts started (1 = first)
    bool admitted = false;          ///< current attempt past the admission gate
    double backoff_left_slots = 0.0;
    std::size_t attempt_age = 0;    ///< slots since the current attempt started
    std::vector<PendingPod> pods;   ///< requested, not yet Running
    int ready = 0;                  ///< Running replacement pods (spec ops)
    std::size_t record_index = 0;   ///< into records_
  };

  struct Channel {
    int applied_tasks = 1;          ///< engine mirror (Running pods)
    cluster::PodSpec applied_spec;
    int lkg_tasks = 1;              ///< last fully applied target (rollback)
    cluster::PodSpec lkg_spec;
    std::uint64_t next_epoch = 1;
    std::optional<Operation> live;
  };

  struct Stats {
    std::size_t issued = 0;
    std::size_t applied = 0;
    std::size_t rolled_back = 0;
    std::size_t superseded = 0;
    std::size_t retried = 0;
    std::size_t admission_rejects = 0;
    double slots_to_running_sum = 0.0;
  };

  Channel& channel(dag::NodeId op);
  [[nodiscard]] const Channel& channel(dag::NodeId op) const;

  void issue(dag::NodeId op, int desired_tasks, cluster::PodSpec desired_spec);
  void plan(dag::NodeId op, Channel& ch);
  void start_attempt(dag::NodeId op, Channel& ch);
  void progress(dag::NodeId op, Channel& ch);
  void fail_attempt(dag::NodeId op, Channel& ch);
  void roll_back(dag::NodeId op, Channel& ch);
  void terminate(dag::NodeId op, Channel& ch, EpochOutcome outcome);
  void sync_ledger(dag::NodeId op, const Channel& ch);
  void adopt_engine_truth(dag::NodeId op, Channel& ch);

  [[nodiscard]] double draw_latency(dag::NodeId op, const Operation& live,
                                    std::size_t pod) const;
  [[nodiscard]] double draw_backoff(dag::NodeId op, const Operation& live) const;
  [[nodiscard]] const std::string& op_name(dag::NodeId op) const;

  // draglint:allow(DL009 borrowed engine handle, re-wired by the restoring owner)
  streamsim::Engine* engine_;
  // draglint:allow(DL009 construction-time config, supplied again by the restoring owner)
  ActuationOptions options_;
  std::uint64_t seed_;
  double latency_multiplier_ = 1.0;
  std::size_t round_ = 0;  ///< begin_slot() count
  std::map<dag::NodeId, Channel> channels_;
  std::map<dag::NodeId, Stats> stats_;
  std::vector<EpochRecord> records_;
  // draglint:allow(DL009 borrowed telemetry sink, re-attached after restore; not state)
  obs::Registry* obs_ = nullptr;  ///< borrowed; null = telemetry off
};

}  // namespace dragster::actuation
