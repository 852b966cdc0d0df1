#include "transport/transport.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "baselines/ds2.hpp"
#include "common/error.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace dragster::transport {

namespace {

/// A delivered frame counts fresh while its age is at most this many slots.
constexpr std::size_t kStaleAfterSlots = 1;
/// Slots a command waits for its ack before the first retransmit.
constexpr std::size_t kAckTimeoutSlots = 2;

/// Serializes one MonitorFrame's observation state (everything except the
/// structural dag, which is rebuilt from the live engine on load).  These are
/// free helpers — not save_state/load_state members — because the key set is
/// shared between the latest-frame and per-in-flight-message sections.
void save_frame(resilience::SnapshotWriter& writer, const std::string& section,
                const streamsim::MonitorFrame& frame) {
  writer.begin_section(section);
  writer.field("has_report", static_cast<std::uint64_t>(frame.has_report ? 1 : 0));
  writer.field("slots_run", static_cast<std::uint64_t>(frame.slots_run));
  writer.field("now_seconds", frame.now_seconds);
  writer.field("total_tuples", frame.total_tuples);
  writer.field("total_cost", frame.total_cost);
  writer.field("max_tasks", static_cast<std::int64_t>(frame.max_tasks));

  std::vector<int> task_ops;
  std::vector<int> task_counts;
  for (const auto& [op, count] : frame.tasks) {
    task_ops.push_back(static_cast<int>(op));
    task_counts.push_back(count);
  }
  writer.field("task_ops", std::span<const int>(task_ops));
  writer.field("task_counts", std::span<const int>(task_counts));
  std::vector<int> spec_ops;
  std::vector<double> spec_cpu;
  std::vector<double> spec_mem;
  for (const auto& [op, spec] : frame.specs) {
    spec_ops.push_back(static_cast<int>(op));
    spec_cpu.push_back(spec.cpu_cores);
    spec_mem.push_back(spec.memory_gb);
  }
  writer.field("spec_ops", std::span<const int>(spec_ops));
  writer.field("spec_cpu", std::span<const double>(spec_cpu));
  writer.field("spec_mem", std::span<const double>(spec_mem));

  const streamsim::SlotReport& report = frame.report;
  writer.field("r_slot", static_cast<std::uint64_t>(report.slot_index));
  writer.field("r_start", report.start_seconds);
  writer.field("r_duration", report.duration_s);
  writer.field("r_pause", report.pause_s);
  writer.field("r_tuples", report.tuples_processed);
  writer.field("r_throughput", report.throughput_rate);
  writer.field("r_cost", report.cost);
  writer.field("r_cost_rate", report.cost_rate_per_hour);
  writer.field("r_latency", report.latency_estimate_s);
  writer.field("r_ckpt_retries", static_cast<std::int64_t>(report.checkpoint_retries));
  writer.field("r_ckpt_aborted", static_cast<std::uint64_t>(report.checkpoint_aborted ? 1 : 0));

  std::vector<double> in_rate;
  std::vector<double> out_rate;
  std::vector<double> demand;
  std::vector<double> arrival;
  std::vector<double> cpu_util;
  std::vector<double> capacity;
  std::vector<double> backlog_start;
  std::vector<double> backlog_end;
  std::vector<double> dropped;
  std::vector<double> queue_delay;
  std::vector<int> node_tasks;
  std::vector<int> node_flags;
  for (const streamsim::OperatorMetrics& m : report.per_node) {
    in_rate.push_back(m.in_rate);
    out_rate.push_back(m.out_rate);
    demand.push_back(m.demand_rate);
    arrival.push_back(m.arrival_demand_rate);
    cpu_util.push_back(m.cpu_utilization);
    capacity.push_back(m.observed_capacity);
    backlog_start.push_back(m.backlog_start);
    backlog_end.push_back(m.backlog_end);
    dropped.push_back(m.dropped);
    queue_delay.push_back(m.queue_delay_s);
    node_tasks.push_back(m.tasks);
    node_flags.push_back((m.backpressured ? 1 : 0) | (m.fault_tainted ? 2 : 0) |
                         (m.metrics_stale ? 4 : 0));
  }
  writer.field("n_in", std::span<const double>(in_rate));
  writer.field("n_out", std::span<const double>(out_rate));
  writer.field("n_demand", std::span<const double>(demand));
  writer.field("n_arrival", std::span<const double>(arrival));
  writer.field("n_cpu", std::span<const double>(cpu_util));
  writer.field("n_capacity", std::span<const double>(capacity));
  writer.field("n_backlog_start", std::span<const double>(backlog_start));
  writer.field("n_backlog_end", std::span<const double>(backlog_end));
  writer.field("n_dropped", std::span<const double>(dropped));
  writer.field("n_queue_delay", std::span<const double>(queue_delay));
  writer.field("n_tasks", std::span<const int>(node_tasks));
  writer.field("n_flags", std::span<const int>(node_flags));
  writer.field("src_rate", std::span<const double>(report.source_rate));
  writer.field("edge_rate", std::span<const double>(report.edge_rate));
  std::vector<double> series_t;
  std::vector<double> series_v;
  for (const auto& [time_s, rate] : report.throughput_series) {
    series_t.push_back(time_s);
    series_v.push_back(rate);
  }
  writer.field("series_t", std::span<const double>(series_t));
  writer.field("series_v", std::span<const double>(series_v));
}

bool is_operator(const dag::StreamDag& dag, std::uint64_t id) {
  return id < dag.node_count() &&
         dag.component(static_cast<dag::NodeId>(id)).kind == dag::ComponentKind::kOperator;
}

/// Operator ids a snapshot names must be operators of the job's dag.
void require_operators(const dag::StreamDag& dag, const std::vector<int>& ids) {
  for (int id : ids)
    DRAGSTER_REQUIRE(id >= 0 && is_operator(dag, static_cast<std::uint64_t>(id)),
                     "snapshot names an id that is not an operator of the topology");
}

[[nodiscard]] streamsim::MonitorFrame load_frame(resilience::SnapshotReader& reader,
                                                 const std::string& section,
                                                 const dag::StreamDag& dag) {
  reader.enter_section(section);
  streamsim::MonitorFrame frame;
  frame.dag = dag;
  frame.has_report = reader.get_uint("has_report") != 0;
  frame.slots_run = static_cast<std::size_t>(reader.get_uint("slots_run"));
  frame.now_seconds = reader.get_double("now_seconds");
  frame.total_tuples = reader.get_double("total_tuples");
  frame.total_cost = reader.get_double("total_cost");
  frame.max_tasks = static_cast<int>(reader.get_int("max_tasks"));

  const std::vector<int> task_ops = reader.get_ints("task_ops");
  const std::vector<int> task_counts = reader.get_ints("task_counts");
  DRAGSTER_REQUIRE(task_ops.size() == task_counts.size(), "frame task vectors disagree");
  require_operators(dag, task_ops);
  for (std::size_t i = 0; i < task_ops.size(); ++i)
    frame.tasks[static_cast<dag::NodeId>(task_ops[i])] = task_counts[i];
  const std::vector<int> spec_ops = reader.get_ints("spec_ops");
  const std::vector<double> spec_cpu = reader.get_doubles("spec_cpu");
  const std::vector<double> spec_mem = reader.get_doubles("spec_mem");
  DRAGSTER_REQUIRE(spec_ops.size() == spec_cpu.size() && spec_ops.size() == spec_mem.size(),
                   "frame spec vectors disagree");
  require_operators(dag, spec_ops);
  for (std::size_t i = 0; i < spec_ops.size(); ++i)
    frame.specs[static_cast<dag::NodeId>(spec_ops[i])] =
        cluster::PodSpec{spec_cpu[i], spec_mem[i]};

  streamsim::SlotReport& report = frame.report;
  report.slot_index = static_cast<std::size_t>(reader.get_uint("r_slot"));
  report.start_seconds = reader.get_double("r_start");
  report.duration_s = reader.get_double("r_duration");
  report.pause_s = reader.get_double("r_pause");
  report.tuples_processed = reader.get_double("r_tuples");
  report.throughput_rate = reader.get_double("r_throughput");
  report.cost = reader.get_double("r_cost");
  report.cost_rate_per_hour = reader.get_double("r_cost_rate");
  report.latency_estimate_s = reader.get_double("r_latency");
  report.checkpoint_retries = static_cast<int>(reader.get_int("r_ckpt_retries"));
  report.checkpoint_aborted = reader.get_uint("r_ckpt_aborted") != 0;

  const std::vector<double> in_rate = reader.get_doubles("n_in");
  const std::vector<double> out_rate = reader.get_doubles("n_out");
  const std::vector<double> demand = reader.get_doubles("n_demand");
  const std::vector<double> arrival = reader.get_doubles("n_arrival");
  const std::vector<double> cpu_util = reader.get_doubles("n_cpu");
  const std::vector<double> capacity = reader.get_doubles("n_capacity");
  const std::vector<double> backlog_start = reader.get_doubles("n_backlog_start");
  const std::vector<double> backlog_end = reader.get_doubles("n_backlog_end");
  const std::vector<double> dropped = reader.get_doubles("n_dropped");
  const std::vector<double> queue_delay = reader.get_doubles("n_queue_delay");
  const std::vector<int> node_tasks = reader.get_ints("n_tasks");
  const std::vector<int> node_flags = reader.get_ints("n_flags");
  const std::size_t nodes = in_rate.size();
  for (std::size_t size : {out_rate.size(), demand.size(), arrival.size(), cpu_util.size(),
                           capacity.size(), backlog_start.size(), backlog_end.size(),
                           dropped.size(), queue_delay.size(), node_tasks.size(),
                           node_flags.size()})
    DRAGSTER_REQUIRE(size == nodes, "frame per-node vectors disagree");
  report.per_node.resize(in_rate.size());
  for (std::size_t i = 0; i < in_rate.size(); ++i) {
    streamsim::OperatorMetrics& m = report.per_node[i];
    m.in_rate = in_rate[i];
    m.out_rate = out_rate[i];
    m.demand_rate = demand[i];
    m.arrival_demand_rate = arrival[i];
    m.cpu_utilization = cpu_util[i];
    m.observed_capacity = capacity[i];
    m.backlog_start = backlog_start[i];
    m.backlog_end = backlog_end[i];
    m.dropped = dropped[i];
    m.queue_delay_s = queue_delay[i];
    m.tasks = node_tasks[i];
    m.backpressured = (node_flags[i] & 1) != 0;
    m.fault_tainted = (node_flags[i] & 2) != 0;
    m.metrics_stale = (node_flags[i] & 4) != 0;
  }
  report.source_rate = reader.get_doubles("src_rate");
  report.edge_rate = reader.get_doubles("edge_rate");
  // A frame's report is read per node and per edge of the job's dag.
  DRAGSTER_REQUIRE(!frame.has_report ||
                       (nodes == dag.node_count() && report.source_rate.size() == nodes &&
                        report.edge_rate.size() == dag.edge_count()),
                   "frame report does not match the topology");
  const std::vector<double> series_t = reader.get_doubles("series_t");
  const std::vector<double> series_v = reader.get_doubles("series_v");
  DRAGSTER_REQUIRE(series_t.size() == series_v.size(), "frame series vectors disagree");
  for (std::size_t i = 0; i < series_t.size(); ++i)
    report.throughput_series.emplace_back(series_t[i], series_v[i]);
  return frame;
}

}  // namespace

// ---------------------------------------------------------------------------
// Channel

Channel::Channel(ChannelOptions options, std::uint64_t seed, std::string label)
    : options_(std::move(options)), seed_(seed), label_(std::move(label)) {
  DRAGSTER_REQUIRE(options_.drop_prob >= 0.0 && options_.drop_prob <= 1.0,
                   "drop_prob must be a probability");
  DRAGSTER_REQUIRE(options_.duplicate_prob >= 0.0 && options_.duplicate_prob <= 1.0,
                   "duplicate_prob must be a probability");
  DRAGSTER_REQUIRE(options_.delay_mean_slots >= 0.0, "delay_mean_slots must be >= 0");
  DRAGSTER_REQUIRE(options_.delay_jitter >= 0.0 && options_.delay_jitter <= 1.0,
                   "delay_jitter must be in [0, 1]");
  for (const PartitionWindow& window : options_.partitions)
    DRAGSTER_REQUIRE(window.duration_slots >= 1, "partition windows need duration >= 1");
}

std::vector<Delivery> Channel::send(std::size_t slot) {
  ++seq_;
  return fate(seq_, 1, slot);
}

std::vector<Delivery> Channel::resend(std::uint64_t seq, std::size_t attempt, std::size_t slot) {
  DRAGSTER_REQUIRE(seq >= 1 && seq <= seq_, "resend of a never-sent sequence");
  DRAGSTER_REQUIRE(attempt >= 1, "attempts are 1-based");
  return fate(seq, attempt, slot);
}

bool Channel::partitioned(std::size_t slot) const noexcept {
  if (slot < forced_partition_end_) return true;
  for (const PartitionWindow& window : options_.partitions)
    if (slot >= window.start_slot && slot < window.start_slot + window.duration_slots)
      return true;
  return false;
}

bool Channel::ideal(std::size_t slot) const noexcept {
  if (partitioned(slot)) return false;
  double drop = options_.drop_prob;
  if (slot < drop_override_end_ && drop_override_ > drop) drop = drop_override_;
  return drop <= 0.0 && options_.duplicate_prob <= 0.0 && options_.delay_mean_slots <= 0.0 &&
         options_.reorder_window_slots == 0;
}

void Channel::inject_partition_until(std::size_t end_slot) noexcept {
  if (end_slot > forced_partition_end_) forced_partition_end_ = end_slot;
}

void Channel::inject_drop_until(double prob, std::size_t end_slot) noexcept {
  drop_override_ = prob;
  drop_override_end_ = end_slot;
}

void Channel::inject_delay_until(double factor, std::size_t end_slot) noexcept {
  delay_factor_ = factor;
  delay_factor_end_ = end_slot;
}

std::vector<Delivery> Channel::fate(std::uint64_t seq, std::size_t attempt, std::size_t slot) {
  std::vector<Delivery> out;
  if (partitioned(slot)) return out;
  common::Rng rng = common::Rng(seed_)
                        .substream(label_)
                        .substream("msg", seq)
                        .substream("try", static_cast<std::uint64_t>(attempt));
  double drop = options_.drop_prob;
  if (slot < drop_override_end_ && drop_override_ > drop) drop = drop_override_;
  if (rng.bernoulli(drop)) return out;
  std::size_t delay = 0;
  double mean = options_.delay_mean_slots;
  if (slot < delay_factor_end_) mean *= delay_factor_;
  if (mean > 0.0) {
    double jittered = mean;
    if (options_.delay_jitter > 0.0)
      jittered *= 1.0 + rng.uniform(-options_.delay_jitter, options_.delay_jitter);
    const long long rounded = std::llround(jittered);
    if (rounded > 0) delay = static_cast<std::size_t>(rounded);
  }
  if (options_.reorder_window_slots > 0)
    delay += static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(options_.reorder_window_slots)));
  out.push_back(Delivery{seq, slot + delay, false});
  if (options_.duplicate_prob > 0.0 && rng.bernoulli(options_.duplicate_prob)) {
    // The copy lands strictly later so receivers see a true duplicate, not a
    // same-slot echo.
    std::size_t extra = 1;
    if (options_.reorder_window_slots > 0)
      extra += static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(options_.reorder_window_slots)));
    out.push_back(Delivery{seq, slot + delay + extra, true});
  }
  return out;
}

void Channel::save(resilience::SnapshotWriter& writer, const std::string& prefix) const {
  writer.field(prefix + "seq", seq_);
  writer.field(prefix + "part_end", static_cast<std::uint64_t>(forced_partition_end_));
  writer.field(prefix + "drop_override", drop_override_);
  writer.field(prefix + "drop_end", static_cast<std::uint64_t>(drop_override_end_));
  writer.field(prefix + "delay_factor", delay_factor_);
  writer.field(prefix + "delay_end", static_cast<std::uint64_t>(delay_factor_end_));
}

void Channel::load(resilience::SnapshotReader& reader, const std::string& prefix) {
  seq_ = reader.get_uint(prefix + "seq");
  forced_partition_end_ = static_cast<std::size_t>(reader.get_uint(prefix + "part_end"));
  drop_override_ = reader.get_double(prefix + "drop_override");
  drop_override_end_ = static_cast<std::size_t>(reader.get_uint(prefix + "drop_end"));
  delay_factor_ = reader.get_double(prefix + "delay_factor");
  delay_factor_end_ = static_cast<std::size_t>(reader.get_uint(prefix + "delay_end"));
}

// ---------------------------------------------------------------------------
// TelemetryPipe

TelemetryPipe::TelemetryPipe(ChannelOptions options, std::uint64_t seed)
    : channel_(std::move(options), seed, "telemetry") {}

void TelemetryPipe::push(std::size_t slot, streamsim::MonitorFrame frame, TransportStats& stats) {
  slot_ = slot;
  ++stats.frames_sent;
  const std::vector<Delivery> fates = channel_.send(slot);
  if (fates.empty()) ++stats.frames_dropped;
  // A duplicate copies the frame; the last delivery takes it.
  for (std::size_t k = 0; k < fates.size(); ++k)
    inflight_.push_back(InFlight{fates[k].seq, fates[k].deliver_slot, slot,
                                 k + 1 < fates.size() ? frame : std::move(frame)});
  // Drain in send order: deterministic, and later sequence numbers win the
  // newest-frame race regardless of arrival interleaving.
  std::vector<InFlight> keep;
  for (InFlight& message : inflight_) {
    if (message.deliver_slot <= slot)
      arrive(message, stats);
    else
      keep.push_back(std::move(message));
  }
  inflight_.swap(keep);
  mark_stale();
}

const streamsim::MonitorFrame* TelemetryPipe::view() const noexcept {
  return latest_.has_value() ? &*latest_ : nullptr;
}

std::size_t TelemetryPipe::staleness() const noexcept {
  if (!latest_.has_value()) return slot_ + 1;
  return slot_ - latest_captured_;
}

void TelemetryPipe::arrive(InFlight& message, TransportStats& stats) {
  ++stats.frames_delivered;
  if (!latest_.has_value() || message.seq > latest_seq_) {
    latest_ = std::move(message.frame);
    latest_seq_ = message.seq;
    latest_captured_ = message.captured_slot;
  } else {
    ++stats.frames_discarded;
  }
}

void TelemetryPipe::mark_stale() {
  // A delivered frame never turns fresh again: slot_ only grows, and a newer
  // sequence replaces latest_ outright, so the marks are set in place.
  if (latest_.has_value() && latest_captured_ < slot_)
    for (streamsim::OperatorMetrics& metrics : latest_->report.per_node)
      metrics.metrics_stale = true;
}

void TelemetryPipe::save_state(resilience::SnapshotWriter& writer) const {
  writer.begin_section("transport.pipe");
  channel_.save(writer, "ch_");
  writer.field("slot", static_cast<std::uint64_t>(slot_));
  writer.field("latest_seq", latest_seq_);
  writer.field("latest_captured", static_cast<std::uint64_t>(latest_captured_));
  writer.field("has_latest", static_cast<std::uint64_t>(latest_.has_value() ? 1 : 0));
  writer.field("inflight", static_cast<std::uint64_t>(inflight_.size()));
  if (latest_.has_value()) save_frame(writer, "transport.pipe.latest", *latest_);
  std::size_t index = 0;
  for (const InFlight& message : inflight_) {
    const std::string section = "transport.pipe.msg" + std::to_string(index++);
    writer.begin_section(section);
    writer.field("seq", message.seq);
    writer.field("deliver_slot", static_cast<std::uint64_t>(message.deliver_slot));
    writer.field("captured", static_cast<std::uint64_t>(message.captured_slot));
    save_frame(writer, section + ".frame", message.frame);
  }
}

void TelemetryPipe::load_state(resilience::SnapshotReader& reader, const dag::StreamDag& dag) {
  reader.enter_section("transport.pipe");
  channel_.load(reader, "ch_");
  slot_ = static_cast<std::size_t>(reader.get_uint("slot"));
  latest_seq_ = reader.get_uint("latest_seq");
  latest_captured_ = static_cast<std::size_t>(reader.get_uint("latest_captured"));
  const bool has_latest = reader.get_uint("has_latest") != 0;
  const std::size_t count = static_cast<std::size_t>(reader.get_uint("inflight"));
  latest_.reset();
  if (has_latest) latest_ = load_frame(reader, "transport.pipe.latest", dag);
  inflight_.clear();
  for (std::size_t index = 0; index < count; ++index) {
    const std::string section = "transport.pipe.msg" + std::to_string(index);
    reader.enter_section(section);
    InFlight message;
    message.seq = reader.get_uint("seq");
    message.deliver_slot = static_cast<std::size_t>(reader.get_uint("deliver_slot"));
    message.captured_slot = static_cast<std::size_t>(reader.get_uint("captured"));
    message.frame = load_frame(reader, section + ".frame", dag);
    inflight_.push_back(std::move(message));
  }
  mark_stale();
}

// ---------------------------------------------------------------------------
// CommandLink

CommandLink::CommandLink(ChannelOptions command, ChannelOptions ack, RetryOptions retry,
                         std::uint64_t seed)
    : command_(std::move(command), seed, "command"),
      ack_(std::move(ack), seed, "ack"),
      retry_(retry),
      seed_(seed) {}

void CommandLink::bind(streamsim::ScalingActuator* downstream, const dag::StreamDag* dag,
                       TransportStats* stats, obs::Registry* obs) noexcept {
  downstream_ = downstream;
  dag_ = dag;
  stats_ = stats;
  obs_ = obs;
}

void CommandLink::begin_slot(std::size_t slot) {
  slot_ = slot;
  drain_due_wires();
  retransmit_timeouts();
  collect_settled();
}

void CommandLink::set_tasks(dag::NodeId op, int tasks) {
  enqueue(op, false, tasks, cluster::PodSpec{});
}

void CommandLink::set_pod_spec(dag::NodeId op, cluster::PodSpec spec) {
  enqueue(op, true, 0, spec);
}

bool CommandLink::in_flight(dag::NodeId op) const {
  if (downstream_ != nullptr && downstream_->in_flight(op)) return true;
  const auto latest = latest_seq_.find(op);
  if (latest == latest_seq_.end()) return false;
  const auto pending = pending_.find(latest->second);
  return pending != pending_.end() && !pending->second.acked && !pending->second.exhausted;
}

std::uint64_t CommandLink::applied_seq(dag::NodeId op) const {
  const auto it = applied_seq_.find(op);
  return it == applied_seq_.end() ? 0 : it->second;
}

void CommandLink::enqueue(dag::NodeId op, bool is_spec, int tasks,
                          const cluster::PodSpec& spec) {
  DRAGSTER_REQUIRE(downstream_ != nullptr && dag_ != nullptr && stats_ != nullptr,
                   "command link used before bind()");
  // Checked here, not on delivery: a copy for a source would otherwise throw
  // slots later, inside begin_slot, from the downstream actuator.
  DRAGSTER_REQUIRE(is_operator(*dag_, op),
                   "command names node " + std::to_string(op) + ", which is not an operator");
  ++stats_->commands_sent;
  // A newer command for the same operator supersedes any unacked older one:
  // we stop retrying it, and the receiver watermark guarantees a straggler
  // copy can never be applied after (or over) the newer command.
  const auto previous = latest_seq_.find(op);
  if (previous != latest_seq_.end()) {
    const auto stale = pending_.find(previous->second);
    if (stale != pending_.end() && !stale->second.acked) stale->second.superseded = true;
  }
  const std::vector<Delivery> fates = command_.send(slot_);
  const std::uint64_t seq = command_.messages_sent();
  Pending pending;
  pending.op = op;
  pending.is_spec = is_spec;
  pending.tasks = tasks;
  pending.spec = spec;
  pending.attempts = 1;
  pending.deadline = slot_ + kAckTimeoutSlots;
  pending_.emplace(seq, pending);
  latest_seq_[op] = seq;
  ++stats_->command_sends;
  route(seq, 1, fates);
}

void CommandLink::route(std::uint64_t seq, std::size_t attempt,
                        const std::vector<Delivery>& fates) {
  for (const Delivery& delivery : fates) {
    if (delivery.deliver_slot <= slot_)
      receive(seq);
    else
      commands_inflight_.push_back(Wire{seq, attempt, delivery.deliver_slot});
  }
}

void CommandLink::receive(std::uint64_t seq) {
  const auto it = pending_.find(seq);
  DRAGSTER_REQUIRE(it != pending_.end(), "delivered command copy lost its payload");
  const Pending& pending = it->second;
  std::uint64_t& watermark = applied_seq_[pending.op];
  if (seq > watermark) {
    if (pending.is_spec)
      downstream_->set_pod_spec(pending.op, pending.spec);
    else
      downstream_->set_tasks(pending.op, pending.tasks);
    watermark = seq;
    ++stats_->commands_applied;
  } else {
    ++stats_->commands_deduped;
    if (obs_ != nullptr) {
      obs_->counter("transport_commands_deduped_total",
                    "Command copies discarded by the receiver watermark")
          .inc();
      if (obs::TraceSink* sink = obs_->trace())
        obs::Event(*sink, "transport_dedup", static_cast<std::uint64_t>(slot_))
            .field("seq", seq)
            .field("op", static_cast<std::uint64_t>(pending.op));
    }
  }
  send_ack(seq);
}

void CommandLink::send_ack(std::uint64_t seq) {
  // Each ack is a fresh message on the ack channel (its own sequence draw);
  // the wire record carries which command it acknowledges.
  const std::vector<Delivery> fates = ack_.send(slot_);
  for (const Delivery& delivery : fates) {
    if (delivery.deliver_slot <= slot_)
      ack_arrived(seq);
    else
      acks_inflight_.push_back(Wire{seq, 1, delivery.deliver_slot});
  }
}

void CommandLink::ack_arrived(std::uint64_t seq) {
  ++stats_->acks_delivered;
  const auto it = pending_.find(seq);
  if (it != pending_.end()) it->second.acked = true;
}

void CommandLink::drain_due_wires() {
  // Commands first, in (seq, attempt) order: application stays monotone in
  // sequence even when the wire reordered copies into the same slot.
  std::vector<Wire> due;
  std::vector<Wire> later;
  for (const Wire& wire : commands_inflight_)
    (wire.deliver_slot <= slot_ ? due : later).push_back(wire);
  commands_inflight_.swap(later);
  std::stable_sort(due.begin(), due.end(), [](const Wire& a, const Wire& b) {
    return a.seq < b.seq || (a.seq == b.seq && a.attempt < b.attempt);
  });
  for (const Wire& wire : due) receive(wire.seq);
  // Acks second, after command deliveries may have queued new ones.
  due.clear();
  std::vector<Wire> ack_later;
  for (const Wire& wire : acks_inflight_)
    (wire.deliver_slot <= slot_ ? due : ack_later).push_back(wire);
  acks_inflight_.swap(ack_later);
  for (const Wire& wire : due) ack_arrived(wire.seq);
}

void CommandLink::retransmit_timeouts() {
  for (auto& [seq, pending] : pending_) {
    if (pending.acked || pending.superseded || pending.exhausted) continue;
    if (slot_ < pending.deadline) continue;
    if (pending.attempts >= 1 + retry_.max_retries) {
      pending.exhausted = true;
      ++stats_->commands_exhausted;
      if (obs_ != nullptr) {
        obs_->counter("transport_commands_exhausted_total",
                      "Commands abandoned after max_retries retransmissions")
            .inc();
        if (obs::TraceSink* sink = obs_->trace())
          obs::Event(*sink, "transport_exhausted", static_cast<std::uint64_t>(slot_))
              .field("seq", seq)
              .field("op", static_cast<std::uint64_t>(pending.op));
      }
      continue;
    }
    const std::size_t attempt = ++pending.attempts;
    // Exponential backoff with seeded jitter: the next deadline backs off by
    // base * 2^(attempt-2) plus a uniform draw from the same span, keyed on
    // (seed, seq, attempt) so retries desynchronize deterministically.
    const std::size_t shift = std::min<std::size_t>(attempt - 2, 6);
    const std::size_t backoff = retry_.backoff_base_slots << shift;
    const std::size_t jitter = static_cast<std::size_t>(
        common::Rng(seed_)
            .substream("retry-jitter", seq)
            .substream("try", static_cast<std::uint64_t>(attempt))
            .uniform_int(0, static_cast<std::int64_t>(backoff)));
    pending.deadline = slot_ + kAckTimeoutSlots + backoff + jitter;
    ++stats_->command_sends;
    ++stats_->command_retries;
    if (obs_ != nullptr) {
      obs_->counter("transport_command_retries_total", "Command retransmissions").inc();
      if (obs::TraceSink* sink = obs_->trace())
        obs::Event(*sink, "transport_retry", static_cast<std::uint64_t>(slot_))
            .field("seq", seq)
            .field("attempt", static_cast<std::uint64_t>(attempt))
            .field("next_deadline", static_cast<std::uint64_t>(pending.deadline));
    }
    route(seq, attempt, command_.resend(seq, attempt, slot_));
  }
}

void CommandLink::collect_settled() {
  std::set<std::uint64_t> live;
  for (const Wire& wire : commands_inflight_) live.insert(wire.seq);
  for (const Wire& wire : acks_inflight_) live.insert(wire.seq);
  for (auto it = pending_.begin(); it != pending_.end();) {
    const Pending& pending = it->second;
    const bool settled = pending.acked || pending.superseded || pending.exhausted;
    if (settled && live.count(it->first) == 0)
      it = pending_.erase(it);
    else
      ++it;
  }
}

void CommandLink::save_state(resilience::SnapshotWriter& writer) const {
  writer.begin_section("transport.link");
  command_.save(writer, "cmd_");
  ack_.save(writer, "ackch_");
  writer.field("slot", static_cast<std::uint64_t>(slot_));
  writer.field("pending", static_cast<std::uint64_t>(pending_.size()));
  writer.field("cmd_wires", static_cast<std::uint64_t>(commands_inflight_.size()));
  writer.field("ack_wires", static_cast<std::uint64_t>(acks_inflight_.size()));
  std::vector<int> latest_ops;
  std::vector<int> latest_seqs;
  for (const auto& [op, seq] : latest_seq_) {
    latest_ops.push_back(static_cast<int>(op));
    latest_seqs.push_back(static_cast<int>(seq));
  }
  writer.field("latest_ops", std::span<const int>(latest_ops));
  writer.field("latest_seqs", std::span<const int>(latest_seqs));
  std::vector<int> applied_ops;
  std::vector<int> applied_seqs;
  for (const auto& [op, seq] : applied_seq_) {
    applied_ops.push_back(static_cast<int>(op));
    applied_seqs.push_back(static_cast<int>(seq));
  }
  writer.field("applied_ops", std::span<const int>(applied_ops));
  writer.field("applied_seqs", std::span<const int>(applied_seqs));
  std::size_t index = 0;
  for (const auto& [seq, pending] : pending_) {
    writer.begin_section("transport.link.p" + std::to_string(index++));
    writer.field("seq", seq);
    writer.field("op", static_cast<std::uint64_t>(pending.op));
    writer.field("is_spec", static_cast<std::uint64_t>(pending.is_spec ? 1 : 0));
    writer.field("tasks", static_cast<std::int64_t>(pending.tasks));
    writer.field("cpu", pending.spec.cpu_cores);
    writer.field("mem", pending.spec.memory_gb);
    writer.field("attempts", static_cast<std::uint64_t>(pending.attempts));
    writer.field("deadline", static_cast<std::uint64_t>(pending.deadline));
    writer.field("acked", static_cast<std::uint64_t>(pending.acked ? 1 : 0));
    writer.field("superseded", static_cast<std::uint64_t>(pending.superseded ? 1 : 0));
    writer.field("exhausted", static_cast<std::uint64_t>(pending.exhausted ? 1 : 0));
  }
  index = 0;
  for (const Wire& wire : commands_inflight_) {
    writer.begin_section("transport.link.w" + std::to_string(index++));
    writer.field("seq", wire.seq);
    writer.field("attempt", static_cast<std::uint64_t>(wire.attempt));
    writer.field("deliver_slot", static_cast<std::uint64_t>(wire.deliver_slot));
  }
  index = 0;
  for (const Wire& wire : acks_inflight_) {
    writer.begin_section("transport.link.a" + std::to_string(index++));
    writer.field("seq", wire.seq);
    writer.field("attempt", static_cast<std::uint64_t>(wire.attempt));
    writer.field("deliver_slot", static_cast<std::uint64_t>(wire.deliver_slot));
  }
}

void CommandLink::load_state(resilience::SnapshotReader& reader) {
  DRAGSTER_REQUIRE(dag_ != nullptr, "bind() the command link before load_state()");
  const dag::StreamDag& dag = *dag_;
  reader.enter_section("transport.link");
  command_.load(reader, "cmd_");
  ack_.load(reader, "ackch_");
  slot_ = static_cast<std::size_t>(reader.get_uint("slot"));
  const std::size_t pending_count = static_cast<std::size_t>(reader.get_uint("pending"));
  const std::size_t cmd_wire_count = static_cast<std::size_t>(reader.get_uint("cmd_wires"));
  const std::size_t ack_wire_count = static_cast<std::size_t>(reader.get_uint("ack_wires"));
  const std::vector<int> latest_ops = reader.get_ints("latest_ops");
  const std::vector<int> latest_seqs = reader.get_ints("latest_seqs");
  DRAGSTER_REQUIRE(latest_ops.size() == latest_seqs.size(), "latest watermark vectors disagree");
  require_operators(dag, latest_ops);
  latest_seq_.clear();
  for (std::size_t i = 0; i < latest_ops.size(); ++i)
    latest_seq_[static_cast<dag::NodeId>(latest_ops[i])] =
        static_cast<std::uint64_t>(latest_seqs[i]);
  const std::vector<int> applied_ops = reader.get_ints("applied_ops");
  const std::vector<int> applied_seqs = reader.get_ints("applied_seqs");
  DRAGSTER_REQUIRE(applied_ops.size() == applied_seqs.size(),
                   "applied watermark vectors disagree");
  require_operators(dag, applied_ops);
  applied_seq_.clear();
  for (std::size_t i = 0; i < applied_ops.size(); ++i)
    applied_seq_[static_cast<dag::NodeId>(applied_ops[i])] =
        static_cast<std::uint64_t>(applied_seqs[i]);
  pending_.clear();
  for (std::size_t index = 0; index < pending_count; ++index) {
    reader.enter_section("transport.link.p" + std::to_string(index));
    const std::uint64_t seq = reader.get_uint("seq");
    Pending pending;
    const std::uint64_t op = reader.get_uint("op");
    DRAGSTER_REQUIRE(is_operator(dag, op),
                     "snapshot names an id that is not an operator of the topology");
    pending.op = static_cast<dag::NodeId>(op);
    pending.is_spec = reader.get_uint("is_spec") != 0;
    pending.tasks = static_cast<int>(reader.get_int("tasks"));
    pending.spec.cpu_cores = reader.get_double("cpu");
    pending.spec.memory_gb = reader.get_double("mem");
    pending.attempts = static_cast<std::size_t>(reader.get_uint("attempts"));
    pending.deadline = static_cast<std::size_t>(reader.get_uint("deadline"));
    pending.acked = reader.get_uint("acked") != 0;
    pending.superseded = reader.get_uint("superseded") != 0;
    pending.exhausted = reader.get_uint("exhausted") != 0;
    pending_.emplace(seq, pending);
  }
  commands_inflight_.clear();
  for (std::size_t index = 0; index < cmd_wire_count; ++index) {
    reader.enter_section("transport.link.w" + std::to_string(index));
    Wire wire;
    wire.seq = reader.get_uint("seq");
    wire.attempt = static_cast<std::size_t>(reader.get_uint("attempt"));
    wire.deliver_slot = static_cast<std::size_t>(reader.get_uint("deliver_slot"));
    commands_inflight_.push_back(wire);
  }
  acks_inflight_.clear();
  for (std::size_t index = 0; index < ack_wire_count; ++index) {
    reader.enter_section("transport.link.a" + std::to_string(index));
    Wire wire;
    wire.seq = reader.get_uint("seq");
    wire.attempt = static_cast<std::size_t>(reader.get_uint("attempt"));
    wire.deliver_slot = static_cast<std::size_t>(reader.get_uint("deliver_slot"));
    acks_inflight_.push_back(wire);
  }
}

// ---------------------------------------------------------------------------
// TransportHarness

const char* to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "unknown";
}

TransportHarness::TransportHarness(TransportOptions options, std::uint64_t seed)
    : options_(std::move(options)),
      seed_(seed),
      pipe_(options_.telemetry, common::Rng(seed).substream("telemetry").next_u64()),
      link_(options_.command, options_.ack, options_.retry,
            common::Rng(seed).substream("command").next_u64()) {
  DRAGSTER_REQUIRE(options_.guard.open_after_misses >= 1, "open_after_misses must be >= 1");
}

void TransportHarness::attach(streamsim::ScalingActuator& downstream,
                              const dag::StreamDag& dag, const online::Budget& budget,
                              obs::Registry* obs) {
  dag_ = &dag;
  budget_ = budget;
  obs_ = obs;
  link_.bind(&downstream, &dag, &stats_, obs);
}

void TransportHarness::detach() noexcept {
  link_.bind(nullptr, nullptr, nullptr, nullptr);
  dag_ = nullptr;
  obs_ = nullptr;
}

void TransportHarness::set_budget(const online::Budget& budget) { budget_ = budget; }

void TransportHarness::begin_slot(std::size_t slot) { link_.begin_slot(slot); }

void TransportHarness::control_step(core::Controller& controller, streamsim::MonitorFrame fresh,
                                    std::size_t slot) {
  pipe_.push(slot, std::move(fresh), stats_);
  const streamsim::MonitorFrame* view = pipe_.view();
  const bool is_fresh = view != nullptr && pipe_.staleness() <= kStaleAfterSlots;
  if (is_fresh) {
    miss_streak_ = 0;
  } else {
    ++miss_streak_;
    ++stats_.missed_scrapes;
  }
  if (options_.guard.enabled) {
    switch (state_) {
      case BreakerState::kClosed:
        if (miss_streak_ >= options_.guard.open_after_misses)
          transition(BreakerState::kOpen, slot);
        break;
      case BreakerState::kOpen:
        if (is_fresh) transition(BreakerState::kHalfOpen, slot);
        break;
      case BreakerState::kHalfOpen:
        transition(is_fresh ? BreakerState::kClosed : BreakerState::kOpen, slot);
        break;
    }
  }
  if (obs_ != nullptr)
    obs_->gauge("transport_breaker_state", "0=closed 1=open 2=half-open")
        .set(static_cast<double>(state_));
  if (!options_.guard.enabled || state_ == BreakerState::kClosed ||
      state_ == BreakerState::kHalfOpen) {
    if (view == nullptr) {
      // Nothing was ever delivered: there is no observation to act on, so the
      // boot configuration simply stays deployed.
      ++stats_.held_slots;
      return;
    }
    if (pipe_.staleness() > 0) ++stats_.stale_serves;
    const streamsim::JobMonitor monitor(*view);
    controller.on_slot(monitor, link_);
    return;
  }
  // Circuit open: the inner controller is not fed (GP frozen).  Hold the
  // last-known-good configuration; past the blackout threshold, size with the
  // DS2 rule against the newest delivered frame instead.
  ++stats_.open_slots;
  ++open_slots_;
  if (open_slots_ > options_.guard.rule_fallback_after && view != nullptr) {
    const streamsim::JobMonitor monitor(*view);
    if (!rule_engaged_) {
      rule_engaged_ = true;
      if (obs_ != nullptr)
        if (obs::TraceSink* sink = obs_->trace())
          obs::Event(*sink, "transport_fallback_engaged", static_cast<std::uint64_t>(slot));
    }
    ++stats_.rule_fallback_slots;
    if (obs_ != nullptr)
      obs_->counter("transport_rule_fallback_slots_total",
                    "Open slots sized by the DS2 rule on the last delivered frame")
          .inc();
    baselines::Ds2Controller(baselines::Ds2Options{budget_}).on_slot(monitor, link_);
  } else {
    ++stats_.held_slots;
  }
}

void TransportHarness::inject_partition_until(std::size_t end_slot) noexcept {
  pipe_.channel().inject_partition_until(end_slot);
  link_.command_channel().inject_partition_until(end_slot);
  link_.ack_channel().inject_partition_until(end_slot);
}

void TransportHarness::inject_drop_until(double prob, std::size_t end_slot) noexcept {
  pipe_.channel().inject_drop_until(prob, end_slot);
  link_.command_channel().inject_drop_until(prob, end_slot);
  link_.ack_channel().inject_drop_until(prob, end_slot);
}

void TransportHarness::inject_delay_until(double factor, std::size_t end_slot) noexcept {
  pipe_.channel().inject_delay_until(factor, end_slot);
  link_.command_channel().inject_delay_until(factor, end_slot);
  link_.ack_channel().inject_delay_until(factor, end_slot);
}

void TransportHarness::transition(BreakerState next, std::size_t slot) {
  if (next == state_) return;
  const BreakerState previous = state_;
  state_ = next;
  switch (next) {
    case BreakerState::kOpen:
      ++stats_.breaker_opens;
      if (previous == BreakerState::kClosed) open_slots_ = 0;
      break;
    case BreakerState::kHalfOpen:
      ++stats_.breaker_half_opens;
      break;
    case BreakerState::kClosed:
      ++stats_.breaker_closes;
      open_slots_ = 0;
      break;
  }
  if (obs_ != nullptr) {
    obs_->counter("transport_breaker_transitions_total", "Circuit breaker state changes").inc();
    if (obs::TraceSink* sink = obs_->trace())
      obs::Event(*sink, "transport_breaker", static_cast<std::uint64_t>(slot))
          .field("from", to_string(previous))
          .field("to", to_string(state_));
  }
}

void TransportHarness::save_state(resilience::SnapshotWriter& writer) const {
  writer.begin_section("transport");
  writer.field("seed", seed_);
  writer.field("state", static_cast<std::uint64_t>(state_));
  writer.field("miss_streak", static_cast<std::uint64_t>(miss_streak_));
  writer.field("open_slots", static_cast<std::uint64_t>(open_slots_));
  writer.field("has_fallback", static_cast<std::uint64_t>(rule_engaged_ ? 1 : 0));
  const std::vector<int> counters = {
      static_cast<int>(stats_.frames_sent),        static_cast<int>(stats_.frames_delivered),
      static_cast<int>(stats_.frames_dropped),     static_cast<int>(stats_.frames_discarded),
      static_cast<int>(stats_.stale_serves),       static_cast<int>(stats_.missed_scrapes),
      static_cast<int>(stats_.commands_sent),      static_cast<int>(stats_.command_sends),
      static_cast<int>(stats_.command_retries),    static_cast<int>(stats_.commands_applied),
      static_cast<int>(stats_.commands_deduped),   static_cast<int>(stats_.commands_exhausted),
      static_cast<int>(stats_.acks_delivered),     static_cast<int>(stats_.breaker_opens),
      static_cast<int>(stats_.breaker_half_opens), static_cast<int>(stats_.breaker_closes),
      static_cast<int>(stats_.open_slots),         static_cast<int>(stats_.held_slots),
      static_cast<int>(stats_.rule_fallback_slots)};
  writer.field("stats", std::span<const int>(counters));
  pipe_.save_state(writer);
  link_.save_state(writer);
}

void TransportHarness::load_state(resilience::SnapshotReader& reader) {
  DRAGSTER_REQUIRE(dag_ != nullptr, "attach() the harness before load_state()");
  // Every section is read and checked into locals first, the pipe and the
  // link into copies, so a rejected snapshot leaves the harness unchanged.
  reader.enter_section("transport");
  DRAGSTER_REQUIRE(reader.get_uint("seed") == seed_,
                   "transport snapshot belongs to a different seed");
  const std::uint64_t state = reader.get_uint("state");
  DRAGSTER_REQUIRE(state <= static_cast<std::uint64_t>(BreakerState::kHalfOpen),
                   "unknown breaker state");
  const auto miss_streak = static_cast<std::size_t>(reader.get_uint("miss_streak"));
  const auto open_slots = static_cast<std::size_t>(reader.get_uint("open_slots"));
  const bool rule_engaged = reader.get_uint("has_fallback") != 0;
  const std::vector<int> counters = reader.get_ints("stats");
  DRAGSTER_REQUIRE(counters.size() == 19, "transport stats vector has the wrong arity");
  TelemetryPipe pipe = pipe_;
  pipe.load_state(reader, *dag_);
  CommandLink link = link_;
  link.load_state(reader);

  state_ = static_cast<BreakerState>(state);
  miss_streak_ = miss_streak;
  open_slots_ = open_slots;
  stats_.frames_sent = static_cast<std::uint64_t>(counters[0]);
  stats_.frames_delivered = static_cast<std::uint64_t>(counters[1]);
  stats_.frames_dropped = static_cast<std::uint64_t>(counters[2]);
  stats_.frames_discarded = static_cast<std::uint64_t>(counters[3]);
  stats_.stale_serves = static_cast<std::uint64_t>(counters[4]);
  stats_.missed_scrapes = static_cast<std::uint64_t>(counters[5]);
  stats_.commands_sent = static_cast<std::uint64_t>(counters[6]);
  stats_.command_sends = static_cast<std::uint64_t>(counters[7]);
  stats_.command_retries = static_cast<std::uint64_t>(counters[8]);
  stats_.commands_applied = static_cast<std::uint64_t>(counters[9]);
  stats_.commands_deduped = static_cast<std::uint64_t>(counters[10]);
  stats_.commands_exhausted = static_cast<std::uint64_t>(counters[11]);
  stats_.acks_delivered = static_cast<std::uint64_t>(counters[12]);
  stats_.breaker_opens = static_cast<std::uint64_t>(counters[13]);
  stats_.breaker_half_opens = static_cast<std::uint64_t>(counters[14]);
  stats_.breaker_closes = static_cast<std::uint64_t>(counters[15]);
  stats_.open_slots = static_cast<std::uint64_t>(counters[16]);
  stats_.held_slots = static_cast<std::uint64_t>(counters[17]);
  stats_.rule_fallback_slots = static_cast<std::uint64_t>(counters[18]);
  rule_engaged_ = rule_engaged;
  pipe_ = std::move(pipe);
  link_ = std::move(link);
}

}  // namespace dragster::transport
