// Unreliable control-plane transport: the wire between controller and
// cluster, modeled as deterministic lossy channels.
//
// Every layer so far assumed the control loop's wire is perfect: scrapes
// always arrive, commands never drop.  This subsystem interposes a seeded
// channel model on both directions:
//
//   telemetry   engine -> controller.  Each slot's MonitorFrame traverses a
//               Channel; frames arrive late, duplicated, reordered, or not
//               at all.  The controller always acts on the *newest delivered*
//               frame; a frame older than the current slot is served with
//               every operator marked metrics_stale, so the existing
//               GP-rejection path (`trustworthy = !metrics_stale`) fires.
//               Delivery is at-most-once: duplicates and frames older than
//               the newest are discarded by sequence number.
//
//   commands    controller -> actuator.  Each scaling action becomes a
//               sequenced message with send-side timeout retries
//               (exponential backoff + seeded jitter) and receiver-side
//               idempotent dedup on a per-operator sequence watermark, so a
//               duplicated, reordered, or retransmitted command is
//               *effectively once*: a partition that eats an ack never
//               re-applies a superseded epoch.  Transport retries compose
//               with ActuationManager attempt retries without double
//               counting — the link retries *delivery* of one logical
//               command; the manager retries *admission* of the one command
//               that got through.
//
// A staleness watchdog + circuit breaker guards the controller: after K
// consecutive missed scrapes the circuit opens — the inner controller is not
// fed at all (its GP is frozen), the last-known-good configuration simply
// stays deployed — and after a configurable blackout a DS2 linear rule sizes
// the job against the last delivered frame (the supervisor's rule-fallback
// policy at the transport layer).  The first fresh frame half-opens the
// circuit for a probe slot; a second consecutive fresh frame closes it.
//
// Determinism contract: every message fate (drop, delay, duplication) is a
// pure function of (seed, channel label, message sequence, attempt) through
// counter-based common::Rng substreams, and all transport state — sequence
// counters, in-flight messages, breaker state — is plain values serialized
// through resilience::Snapshotable.  An ideal channel (all zeros) delivers
// synchronously: runs are bit-identical to no transport at all.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/ds2.hpp"
#include "cluster/cluster.hpp"
#include "common/rng.hpp"
#include "core/controller.hpp"
#include "online/budget.hpp"
#include "resilience/snapshot.hpp"
#include "streamsim/engine.hpp"

namespace dragster::obs {
class Registry;
}

namespace dragster::transport {

/// Scheduled blackout: every message sent in [start, start + duration) is
/// eaten at the sender, both copies of a duplicate included.
struct PartitionWindow {
  std::size_t start_slot = 0;
  std::size_t duration_slots = 1;
};

struct ChannelOptions {
  double drop_prob = 0.0;            ///< per-message loss probability
  double duplicate_prob = 0.0;       ///< second copy delivered strictly later
  double delay_mean_slots = 0.0;     ///< mean delivery delay in whole slots
  double delay_jitter = 0.0;         ///< relative jitter on the delay, in [0, 1]
  std::size_t reorder_window_slots = 0;  ///< extra uniform delay in [0, w]
  std::vector<PartitionWindow> partitions;  ///< scheduled blackouts
};

/// One copy of a message the channel will deliver.
struct Delivery {
  std::uint64_t seq = 0;
  std::size_t deliver_slot = 0;
  bool duplicate = false;
};

/// Deterministic fate oracle for one direction of the wire.  The channel
/// holds no payloads: send() assigns the next sequence number and returns
/// zero, one, or two Deliveries (dropped / delivered / delivered twice);
/// the caller owns queueing payloads until their delivery slots.  Fates are
/// keyed on (seed, label, seq, attempt) through counter-based substreams, so
/// retransmissions of the same message draw fresh independent fates and the
/// whole schedule replays bit-identically from the sequence counter alone.
class Channel {
 public:
  Channel() = default;
  Channel(ChannelOptions options, std::uint64_t seed, std::string label);

  /// Fate of the next fresh message sent at `slot`; advances the counter.
  [[nodiscard]] std::vector<Delivery> send(std::size_t slot);
  /// Fate of retransmission `attempt` (>= 1) of an already-sequenced
  /// message; does not advance the counter.
  [[nodiscard]] std::vector<Delivery> resend(std::uint64_t seq, std::size_t attempt,
                                             std::size_t slot);

  [[nodiscard]] bool partitioned(std::size_t slot) const noexcept;
  /// True when nothing can go wrong at `slot`: no loss, delay, duplication,
  /// partition, or injected degradation — send() would deliver one copy now.
  [[nodiscard]] bool ideal(std::size_t slot) const noexcept;
  [[nodiscard]] std::uint64_t messages_sent() const noexcept { return seq_; }

  // -- dynamic fault seams (fleet chaos) ------------------------------------
  /// Blackout until `end_slot` (exclusive), on top of scheduled windows.
  void inject_partition_until(std::size_t end_slot) noexcept;
  /// Raises the drop probability to `prob` until `end_slot` (exclusive).
  void inject_drop_until(double prob, std::size_t end_slot) noexcept;
  /// Multiplies the mean delay by `factor` until `end_slot` (exclusive).
  void inject_delay_until(double factor, std::size_t end_slot) noexcept;

  /// Plain-value state (counter + injected seams) under `prefix`-ed keys in
  /// the writer's current section.
  void save(resilience::SnapshotWriter& writer, const std::string& prefix) const;
  void load(resilience::SnapshotReader& reader, const std::string& prefix);

 private:
  [[nodiscard]] std::vector<Delivery> fate(std::uint64_t seq, std::size_t attempt,
                                           std::size_t slot);

  ChannelOptions options_;
  std::uint64_t seed_ = 0;
  std::string label_;
  std::uint64_t seq_ = 0;
  std::size_t forced_partition_end_ = 0;
  double drop_override_ = 0.0;
  std::size_t drop_override_end_ = 0;
  double delay_factor_ = 1.0;
  std::size_t delay_factor_end_ = 0;
};

/// Controller-side staleness watchdog + circuit breaker policy.
struct GuardOptions {
  /// False = no-watchdog ablation: the controller is fed whatever the pipe
  /// serves, stale or not, and no breaker or rule fallback ever engages.
  bool enabled = true;
  /// Consecutive missed scrapes before the circuit opens.
  std::size_t open_after_misses = 3;
  /// A delivered frame counts fresh while its age is at most this many slots.
  std::size_t stale_after_slots = 1;
  /// Open slots before the DS2 rule sizes the job on the last delivered
  /// frame (until then the last-known-good configuration is simply held).
  std::size_t rule_fallback_after = 6;
  double ds2_headroom = 1.10;  ///< fallback rule's provisioning headroom
};

/// Send-side retry policy for the command link.
struct RetryOptions {
  std::size_t ack_timeout_slots = 2;   ///< wait before the first retransmit
  std::size_t max_retries = 4;         ///< retransmissions per logical command
  std::size_t backoff_base_slots = 1;  ///< doubles per retry, plus seeded jitter
};

struct TransportOptions {
  ChannelOptions telemetry;  ///< engine -> controller direction
  ChannelOptions command;    ///< controller -> actuator direction
  ChannelOptions ack;        ///< actuator -> controller acknowledgements
  GuardOptions guard;
  RetryOptions retry;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };
[[nodiscard]] const char* to_string(BreakerState state);

/// Plain counters mirrored to obs when attached; always available to benches
/// and examples without a registry.
struct TransportStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_discarded = 0;  ///< duplicate / older than the newest
  std::uint64_t stale_serves = 0;      ///< controller fed an aged frame
  std::uint64_t missed_scrapes = 0;
  std::uint64_t commands_sent = 0;     ///< logical commands entering the link
  std::uint64_t command_sends = 0;     ///< wire transmissions incl. retries
  std::uint64_t command_retries = 0;
  std::uint64_t commands_applied = 0;  ///< reached the downstream actuator
  std::uint64_t commands_deduped = 0;  ///< discarded by the seq watermark
  std::uint64_t commands_exhausted = 0;  ///< gave up after max_retries
  std::uint64_t acks_delivered = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_half_opens = 0;
  std::uint64_t breaker_closes = 0;
  std::uint64_t open_slots = 0;       ///< slots spent with the circuit open
  std::uint64_t held_slots = 0;       ///< open slots holding last-known-good
  std::uint64_t rule_fallback_slots = 0;
};

/// Telemetry direction: queues MonitorFrames according to the channel's
/// delivery schedule and serves the newest delivered frame, with stale
/// operators marked so downstream learners reject them.
class TelemetryPipe {
 public:
  TelemetryPipe() = default;
  TelemetryPipe(ChannelOptions options, std::uint64_t seed);

  /// Sends this slot's fresh frame and drains every delivery due at `slot`.
  void push(std::size_t slot, const streamsim::MonitorFrame& frame,
            TransportStats& stats);

  /// Newest delivered frame with staleness marks applied; null before the
  /// first delivery.
  [[nodiscard]] const streamsim::MonitorFrame* view() const noexcept;
  /// Age in slots of the newest delivered frame (0 = captured this slot);
  /// one past the current slot when nothing was ever delivered.
  [[nodiscard]] std::size_t staleness() const noexcept;

  [[nodiscard]] Channel& channel() noexcept { return channel_; }
  [[nodiscard]] const Channel& channel() const noexcept { return channel_; }

  void save_state(resilience::SnapshotWriter& writer) const;
  /// `dag` rebuilds the topology field of deserialized frames (the snapshot
  /// stores only numeric observation state; the dag is structural and lives
  /// with the engine) and checks the frames against it.  A rejected snapshot
  /// may leave the pipe partly loaded; TransportHarness::load_state loads
  /// into a copy.
  void load_state(resilience::SnapshotReader& reader, const dag::StreamDag& dag);

 private:
  void arrive(std::uint64_t seq, const streamsim::MonitorFrame& frame,
              std::size_t captured_slot, TransportStats& stats);
  void refresh_view();

  struct InFlight {
    std::uint64_t seq = 0;
    std::size_t deliver_slot = 0;
    std::size_t captured_slot = 0;
    streamsim::MonitorFrame frame;
  };

  Channel channel_;
  std::vector<InFlight> inflight_;  ///< send order; drained by deliver_slot
  std::optional<streamsim::MonitorFrame> latest_;  ///< as delivered, unmarked
  std::uint64_t latest_seq_ = 0;
  std::size_t latest_captured_ = 0;
  bool has_latest_ = false;
  std::size_t slot_ = 0;
  // draglint:allow(DL009 presentation copy of latest_, recomputed by every observe call)
  streamsim::MonitorFrame view_;  ///< latest_ + staleness marks
};

/// Command direction: a ScalingActuator that ships actions over the lossy
/// channel with timeout/backoff retransmission (sender) and sequence-
/// watermark dedup (receiver).  Effectively-once semantics: of all copies of
/// all commands targeting one operator, exactly the newest-sequenced one is
/// applied, each at most once, in sequence order.
class CommandLink final : public streamsim::ScalingActuator {
 public:
  CommandLink() = default;
  CommandLink(ChannelOptions command, ChannelOptions ack, RetryOptions retry,
              std::uint64_t seed);

  /// Downstream actuator commands are applied to (the ActuationManager when
  /// managed, else the Engine) plus the stats sink; both borrowed.
  void bind(streamsim::ScalingActuator* downstream, TransportStats* stats,
            obs::Registry* obs) noexcept;

  /// Advances the link clock: delivers due command copies downstream,
  /// processes due acks, retransmits timed-out commands, garbage-collects
  /// settled entries.
  void begin_slot(std::size_t slot);

  // -- ScalingActuator (the controller-facing side) -------------------------
  void set_tasks(dag::NodeId op, int tasks) override;
  void set_pod_spec(dag::NodeId op, cluster::PodSpec spec) override;
  /// True while the newest command for `op` is still unacked (or the
  /// downstream actuator itself reports in-flight work).
  [[nodiscard]] bool in_flight(dag::NodeId op) const override;

  [[nodiscard]] Channel& command_channel() noexcept { return command_; }
  [[nodiscard]] Channel& ack_channel() noexcept { return ack_; }
  /// Receiver-side watermark: sequence of the last command applied (or
  /// deduped as already-covered) for `op`; 0 if none ever arrived.
  [[nodiscard]] std::uint64_t applied_seq(dag::NodeId op) const;

  void save_state(resilience::SnapshotWriter& writer) const;
  /// `dag` bounds the operator ids the watermarks and pending commands name.
  /// A rejected snapshot may leave the link partly loaded;
  /// TransportHarness::load_state loads into a copy.
  void load_state(resilience::SnapshotReader& reader, const dag::StreamDag& dag);

 private:
  /// Sender-side record of one logical command, alive until acked (or
  /// abandoned) and no wire copies remain.
  struct Pending {
    dag::NodeId op = 0;
    bool is_spec = false;
    int tasks = 0;
    cluster::PodSpec spec;
    std::size_t sent_slot = 0;   ///< original send
    std::size_t attempts = 0;    ///< transmissions so far (>= 1)
    std::size_t deadline = 0;    ///< retransmit when the clock reaches this
    bool acked = false;
    bool superseded = false;     ///< a newer command for op exists
    bool exhausted = false;      ///< gave up after max_retries
  };
  /// One in-flight wire copy (command or ack).
  struct Wire {
    std::uint64_t seq = 0;
    std::size_t attempt = 0;
    std::size_t deliver_slot = 0;
    bool duplicate = false;
  };

  void enqueue(dag::NodeId op, bool is_spec, int tasks, const cluster::PodSpec& spec);
  /// Routes one transmission's fates: immediate deliveries (and their acks)
  /// are processed synchronously so an ideal channel applies in-line; future
  /// copies are queued as wire records.
  void route(std::uint64_t seq, std::size_t attempt, const std::vector<Delivery>& fates);
  /// Receiver: one command copy arrives — watermark dedup, downstream apply,
  /// ack send.
  void receive(std::uint64_t seq, std::size_t attempt, bool duplicate);
  void send_ack(std::uint64_t seq);
  void ack_arrived(std::uint64_t seq);
  void drain_due_wires();
  void retransmit_timeouts();
  void collect_settled();

  Channel command_;
  Channel ack_;
  // draglint:allow(DL009 construction-time retry policy, supplied again on rebuild)
  RetryOptions retry_;
  // draglint:allow(DL009 construction-time seed; the substream state lives in the channels)
  std::uint64_t seed_ = 0;
  // draglint:allow(DL009 borrowed actuator, re-bound via bind() after restore)
  streamsim::ScalingActuator* downstream_ = nullptr;  ///< borrowed
  // draglint:allow(DL009 borrowed stats sink, re-bound via bind() after restore)
  TransportStats* stats_ = nullptr;                   ///< borrowed
  // draglint:allow(DL009 borrowed telemetry sink, re-bound via bind() after restore)
  obs::Registry* obs_ = nullptr;                      ///< borrowed; may be null
  std::size_t slot_ = 0;
  std::map<std::uint64_t, Pending> pending_;      ///< by seq (send order)
  std::vector<Wire> commands_inflight_;
  std::vector<Wire> acks_inflight_;
  std::map<dag::NodeId, std::uint64_t> latest_seq_;   ///< sender: newest per op
  std::map<dag::NodeId, std::uint64_t> applied_seq_;  ///< receiver watermark
};

/// The whole unreliable control plane for one job: telemetry pipe + command
/// link + staleness watchdog / circuit breaker / DS2 rule fallback.  The
/// scenario runner drives it with begin_slot() (command-side clock) and
/// control_step() (the guarded controller invocation); everything else is
/// internal policy.
class TransportHarness final : public resilience::Snapshotable {
 public:
  TransportHarness(TransportOptions options, std::uint64_t seed);

  /// Runner wiring: the downstream actuator commands land on, the job's dag
  /// (needed to rebuild deserialized frames), the budget the rule fallback
  /// sizes against, and the (nullable) telemetry registry.
  void attach(streamsim::ScalingActuator& downstream, const dag::StreamDag& dag,
              const online::Budget& budget, obs::Registry* obs);
  void detach() noexcept;
  void set_budget(const online::Budget& budget);

  /// Start-of-slot: deliver due commands, process acks, retransmit.  Call
  /// before the downstream manager's own begin_slot.
  void begin_slot(std::size_t slot);

  /// End-of-slot control step: `fresh` (this slot's scrape) enters the
  /// telemetry channel, the breaker transitions on what was delivered, and
  /// exactly one of {inner controller, DS2 rule, hold} acts through the
  /// command link.
  void control_step(core::Controller& controller, const streamsim::MonitorFrame& fresh,
                    std::size_t slot);

  [[nodiscard]] BreakerState breaker() const noexcept { return state_; }
  [[nodiscard]] const TransportStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const TransportOptions& options() const noexcept { return options_; }
  /// Newest delivered frame (the view the controller last saw); null before
  /// the first delivery.
  [[nodiscard]] const streamsim::MonitorFrame* delivered_view() const noexcept {
    return pipe_.view();
  }
  [[nodiscard]] streamsim::ScalingActuator& command_link() noexcept { return link_; }
  /// Age in slots of the newest delivered frame (see TelemetryPipe).
  [[nodiscard]] std::size_t staleness() const noexcept { return pipe_.staleness(); }
  /// True when the telemetry wire is dark at `slot` (scheduled or injected).
  [[nodiscard]] bool telemetry_partitioned(std::size_t slot) const noexcept {
    return pipe_.channel().partitioned(slot);
  }

  // -- fleet chaos seams: both directions at once ---------------------------
  void inject_partition_until(std::size_t end_slot) noexcept;
  void inject_drop_until(double prob, std::size_t end_slot) noexcept;
  void inject_delay_until(double factor, std::size_t end_slot) noexcept;

  // -- resilience::Snapshotable ---------------------------------------------
  void save_state(resilience::SnapshotWriter& writer) const override;
  void load_state(resilience::SnapshotReader& reader) override;

 private:
  void transition(BreakerState next, std::size_t slot);

  // draglint:allow(DL009 construction-time config, supplied again by the restoring owner)
  TransportOptions options_;
  std::uint64_t seed_ = 0;
  TelemetryPipe pipe_;
  CommandLink link_;
  BreakerState state_ = BreakerState::kClosed;
  std::size_t miss_streak_ = 0;
  std::size_t open_slots_ = 0;  ///< consecutive slots spent open
  std::unique_ptr<baselines::Ds2Controller> fallback_;  ///< created lazily
  // draglint:allow(DL009 re-supplied by attach()/set_budget() when the harness is rewired)
  online::Budget budget_ = online::Budget::unlimited(0.10);
  // draglint:allow(DL009 borrowed dag handle, re-wired by attach() after restore)
  const dag::StreamDag* dag_ = nullptr;  ///< borrowed via attach()
  // draglint:allow(DL009 borrowed telemetry sink, re-wired by attach() after restore)
  obs::Registry* obs_ = nullptr;  ///< borrowed; null = telemetry off
  TransportStats stats_;
};

}  // namespace dragster::transport
