#include "actuation/actuation.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/registry.hpp"

namespace dragster::actuation {

const char* to_string(EpochOutcome outcome) {
  switch (outcome) {
    case EpochOutcome::kInFlight: return "in-flight";
    case EpochOutcome::kApplied: return "applied";
    case EpochOutcome::kRolledBack: return "rolled-back";
    case EpochOutcome::kSuperseded: return "superseded";
  }
  return "unknown";
}

ActuationManager::ActuationManager(streamsim::Engine& engine, ActuationOptions options,
                                   std::uint64_t seed)
    : engine_(&engine), options_(options), seed_(seed) {
  DRAGSTER_REQUIRE(options_.sched_latency_mean_slots >= 0.0,
                   "scheduling latency cannot be negative");
  DRAGSTER_REQUIRE(options_.sched_latency_jitter >= 0.0 && options_.sched_latency_jitter < 1.0,
                   "latency jitter must be in [0, 1)");
  DRAGSTER_REQUIRE(options_.deadline_slots >= 1, "deadline must be at least one slot");
  DRAGSTER_REQUIRE(options_.backoff_base_slots >= 0.0 && options_.backoff_jitter_slots >= 0.0,
                   "backoff parameters cannot be negative");
  for (dag::NodeId op : engine_->dag().operators()) {
    Channel ch;
    ch.applied_tasks = engine_->tasks(op);
    ch.applied_spec = engine_->pod_spec(op);
    ch.lkg_tasks = ch.applied_tasks;
    ch.lkg_spec = ch.applied_spec;
    channels_.emplace(op, ch);
    stats_.emplace(op, Stats{});
  }
  engine_->cluster().set_admission_limits(options_.admission);
}

ActuationManager::Channel& ActuationManager::channel(dag::NodeId op) {
  const auto it = channels_.find(op);
  DRAGSTER_REQUIRE(it != channels_.end(), "actuation on a non-operator node");
  return it->second;
}

const ActuationManager::Channel& ActuationManager::channel(dag::NodeId op) const {
  const auto it = channels_.find(op);
  DRAGSTER_REQUIRE(it != channels_.end(), "actuation on a non-operator node");
  return it->second;
}

void ActuationManager::set_tasks(dag::NodeId op, int tasks) {
  const Channel& ch = channel(op);
  const cluster::PodSpec spec = ch.live ? ch.live->desired_spec : ch.applied_spec;
  issue(op, tasks, spec);
}

void ActuationManager::set_pod_spec(dag::NodeId op, cluster::PodSpec spec) {
  const Channel& ch = channel(op);
  const int tasks = ch.live ? ch.live->desired_tasks : ch.applied_tasks;
  issue(op, tasks, spec);
}

bool ActuationManager::in_flight(dag::NodeId op) const {
  return channel(op).live.has_value();
}

void ActuationManager::issue(dag::NodeId op, int desired_tasks,
                             cluster::PodSpec desired_spec) {
  DRAGSTER_REQUIRE(desired_tasks >= 1, "actuation target needs at least one task");
  Channel& ch = channel(op);

  // Epoch fence, part one: a command equal to the current target is a no-op.
  // This absorbs both repair re-issues and the supervisor's last-known-good
  // re-issue while the matching operation is still in flight.
  const int target_tasks = ch.live ? ch.live->desired_tasks : ch.applied_tasks;
  const cluster::PodSpec target_spec = ch.live ? ch.live->desired_spec : ch.applied_spec;
  if (desired_tasks == target_tasks && desired_spec == target_spec) return;

  if (ch.live && ch.live->issue_round == round_) {
    // Same decision round (e.g. set_pod_spec followed by set_tasks): amend
    // the live operation in place — one epoch, one atomic reconfiguration.
    ch.live->desired_tasks = desired_tasks;
    ch.live->desired_spec = desired_spec;
    ch.live->attempts = 1;
    ch.live->admitted = false;
    ch.live->backoff_left_slots = 0.0;
    ch.live->attempt_age = 0;
    ch.live->pods.clear();
    ch.live->ready = 0;
    records_[ch.live->record_index].desired_tasks = desired_tasks;
    if (obs_ != nullptr) {
      if (obs::TraceSink* sink = obs_->trace()) {
        obs::Event(*sink, "epoch_amended", static_cast<std::uint64_t>(round_))
            .field("op", op_name(op))
            .field("epoch", ch.live->epoch)
            .field("tasks", desired_tasks);
      }
    }
    plan(op, ch);
    return;
  }

  // Epoch fence, part two: a newer decision supersedes the in-flight one.
  // Its pending pods are cancelled here, so a late completion from the old
  // epoch is structurally impossible — there is nothing left to land.
  if (ch.live) terminate(op, ch, EpochOutcome::kSuperseded);

  Operation live;
  live.epoch = ch.next_epoch++;
  live.desired_tasks = desired_tasks;
  live.desired_spec = desired_spec;
  live.issue_round = round_;
  live.record_index = records_.size();
  records_.push_back({op, live.epoch, desired_tasks, round_, 0, EpochOutcome::kInFlight});
  stats_[op].issued += 1;
  if (obs_ != nullptr) {
    obs_->counter("actuation_epochs_issued_total", "Actuation epochs opened",
                  {{"op", op_name(op)}})
        .inc();
    if (obs::TraceSink* sink = obs_->trace()) {
      obs::Event(*sink, "epoch_issued", static_cast<std::uint64_t>(round_))
          .field("op", op_name(op))
          .field("epoch", live.epoch)
          .field("tasks", desired_tasks);
    }
  }
  ch.live = std::move(live);
  plan(op, ch);
}

void ActuationManager::plan(dag::NodeId op, Channel& ch) {
  Operation& live = *ch.live;
  live.spec_change = !(live.desired_spec == ch.applied_spec);
  if (!live.spec_change && live.desired_tasks <= ch.applied_tasks) {
    // Pure scale-down (or return to the applied config): releasing pods
    // never waits on the scheduler, so it applies within the call.
    if (live.desired_tasks != ch.applied_tasks)
      engine_->set_tasks(op, live.desired_tasks);
    ch.applied_tasks = live.desired_tasks;
    terminate(op, ch, EpochOutcome::kApplied);
    return;
  }
  start_attempt(op, ch);
}

void ActuationManager::start_attempt(dag::NodeId op, Channel& ch) {
  Operation& live = *ch.live;
  const int need = live.spec_change ? live.desired_tasks - live.ready
                                    : live.desired_tasks - ch.applied_tasks;
  DRAGSTER_REQUIRE(need > 0, "attempt started with nothing to schedule");
  const double extra_rate =
      static_cast<double>(need) * cluster::pod_price_per_hour(live.desired_spec);
  if (!engine_->cluster().try_admit(need, extra_rate)) {
    stats_[op].admission_rejects += 1;
    if (obs_ != nullptr) {
      obs_->counter("actuation_admission_rejects_total", "Attempts the admission gate refused",
                    {{"op", op_name(op)}})
          .inc();
      if (obs::TraceSink* sink = obs_->trace()) {
        obs::Event(*sink, "admission_reject", static_cast<std::uint64_t>(round_))
            .field("op", op_name(op))
            .field("epoch", live.epoch)
            .field("pods", need);
      }
    }
    fail_attempt(op, ch);
    return;
  }
  live.admitted = true;
  live.backoff_left_slots = 0.0;
  live.attempt_age = 0;
  live.pods.clear();
  for (int pod = 0; pod < need; ++pod)
    live.pods.push_back({draw_latency(op, live, static_cast<std::size_t>(pod)), 0.0});
  sync_ledger(op, ch);
  // Zero-latency pods are Running already; with everything instant the
  // operation completes synchronously inside the actuator call.
  progress(op, ch);
}

void ActuationManager::progress(dag::NodeId op, Channel& ch) {
  Operation& live = *ch.live;
  int now_running = 0;
  std::erase_if(live.pods, [&](const PendingPod& pod) {
    const bool running = pod.age_slots >= pod.latency_slots;
    if (running) ++now_running;
    return running;
  });
  if (live.spec_change) {
    live.ready += now_running;
    if (live.ready >= live.desired_tasks) {
      // Atomic swap: the replacement set is fully Running, cut over in one
      // reconfiguration (spec first so a single checkpoint pause covers both).
      engine_->set_pod_spec(op, live.desired_spec);
      engine_->set_tasks(op, live.desired_tasks);
      ch.applied_tasks = live.desired_tasks;
      ch.applied_spec = live.desired_spec;
      terminate(op, ch, EpochOutcome::kApplied);
      return;
    }
  } else if (now_running > 0) {
    // Partial apply: top up the engine with exactly the pods that are
    // Running.  Each top-up is a real reconfiguration and pays the engine's
    // checkpoint pause — the transition downtime of a rolling rescale.
    ch.applied_tasks += now_running;
    engine_->set_tasks(op, ch.applied_tasks);
    if (ch.applied_tasks >= live.desired_tasks) {
      terminate(op, ch, EpochOutcome::kApplied);
      return;
    }
  }
  sync_ledger(op, ch);
}

void ActuationManager::fail_attempt(dag::NodeId op, Channel& ch) {
  Operation& live = *ch.live;
  const std::size_t retries_used = live.attempts - 1;
  live.pods.clear();
  live.admitted = false;
  if (retries_used >= options_.max_retries) {
    roll_back(op, ch);
    return;
  }
  live.attempts += 1;
  stats_[op].retried += 1;
  // Exponential backoff plus jitter before the next attempt; the draw is
  // keyed on (op, epoch, attempt) so replays and restores agree bit-for-bit.
  live.backoff_left_slots =
      options_.backoff_base_slots * std::pow(2.0, static_cast<double>(retries_used)) +
      draw_backoff(op, live);
  if (obs_ != nullptr) {
    obs_->counter("actuation_retries_total", "Extra actuation attempts armed",
                  {{"op", op_name(op)}})
        .inc();
    if (obs::TraceSink* sink = obs_->trace()) {
      obs::Event(*sink, "epoch_retry", static_cast<std::uint64_t>(round_))
          .field("op", op_name(op))
          .field("epoch", live.epoch)
          .field("attempt", static_cast<std::uint64_t>(live.attempts))
          .field("backoff_slots", live.backoff_left_slots);
    }
  }
  sync_ledger(op, ch);
}

const std::string& ActuationManager::op_name(dag::NodeId op) const {
  return engine_->dag().component(op).name;
}

void ActuationManager::roll_back(dag::NodeId op, Channel& ch) {
  // Deadline and retries exhausted: return to the last-known-good
  // configuration.  Releasing pods is instant, so this cannot itself fail.
  if (ch.applied_tasks != ch.lkg_tasks) engine_->set_tasks(op, ch.lkg_tasks);
  if (!(ch.applied_spec == ch.lkg_spec)) engine_->set_pod_spec(op, ch.lkg_spec);
  ch.applied_tasks = ch.lkg_tasks;
  ch.applied_spec = ch.lkg_spec;
  terminate(op, ch, EpochOutcome::kRolledBack);
}

void ActuationManager::terminate(dag::NodeId op, Channel& ch, EpochOutcome outcome) {
  Operation& live = *ch.live;
  EpochRecord& record = records_[live.record_index];
  record.outcome = outcome;
  record.terminal_round = round_;
  if (obs_ != nullptr) {
    obs_->counter("actuation_epochs_terminated_total", "Actuation epochs ended, by outcome",
                  {{"op", op_name(op)}, {"outcome", to_string(outcome)}})
        .inc();
    if (outcome == EpochOutcome::kApplied)
      obs_->histogram("actuation_slots_to_applied", "Slots from issue to fully applied",
                      {0.0, 1.0, 2.0, 4.0, 8.0})
          .observe(static_cast<double>(round_ - live.issue_round));
    if (obs::TraceSink* sink = obs_->trace()) {
      obs::Event(*sink, "epoch_terminated", static_cast<std::uint64_t>(round_))
          .field("op", op_name(op))
          .field("epoch", live.epoch)
          .field("outcome", to_string(outcome))
          .field("issue_round", static_cast<std::uint64_t>(live.issue_round))
          .field("attempts", static_cast<std::uint64_t>(live.attempts));
    }
  }
  Stats& stats = stats_[op];
  switch (outcome) {
    case EpochOutcome::kApplied:
      stats.applied += 1;
      stats.slots_to_running_sum += static_cast<double>(round_ - live.issue_round);
      ch.lkg_tasks = live.desired_tasks;
      ch.lkg_spec = live.desired_spec;
      break;
    case EpochOutcome::kRolledBack: stats.rolled_back += 1; break;
    case EpochOutcome::kSuperseded: stats.superseded += 1; break;
    case EpochOutcome::kInFlight: DRAGSTER_REQUIRE(false, "in-flight is not terminal");
  }
  ch.live.reset();
  sync_ledger(op, ch);
}

void ActuationManager::sync_ledger(dag::NodeId op, const Channel& ch) {
  int pending = 0;
  if (ch.live) {
    // Replacement pods held for an atomic spec swap are scheduled but not
    // yet serving; the ledger counts them as pending alongside the rest.
    pending = static_cast<int>(ch.live->pods.size()) +
              (ch.live->spec_change ? ch.live->ready : 0);
  }
  engine_->cluster().set_pending(engine_->dag().component(op).name, pending);
}

void ActuationManager::adopt_engine_truth(dag::NodeId op, Channel& ch) {
  // Pod crashes and aborted checkpoints move the engine without going
  // through the manager; the applied mirror must follow reality, never the
  // other way around.
  const int actual = engine_->tasks(op);
  const cluster::PodSpec spec = engine_->pod_spec(op);
  ch.applied_tasks = actual;
  ch.applied_spec = spec;
}

void ActuationManager::begin_slot() {
  ++round_;
  for (auto& [op, ch] : channels_) {
    adopt_engine_truth(op, ch);
    if (!ch.live) continue;
    Operation& live = *ch.live;
    if (!live.admitted) {
      // Backing off (or just rejected): retry once the window expires.
      live.backoff_left_slots -= 1.0;
      if (live.backoff_left_slots <= 0.0) start_attempt(op, ch);
      continue;
    }
    live.attempt_age += 1;
    for (PendingPod& pod : live.pods) pod.age_slots += 1.0;
    progress(op, ch);
    if (!ch.live || !ch.live->admitted) continue;
    if (ch.live->pods.empty()) {
      // All requested pods landed but the target was not reached — a crash
      // consumed some of the topped-up capacity mid-flight.  Reconcile by
      // requesting the difference; this is repair, not a counted retry.
      start_attempt(op, ch);
    } else if (ch.live->attempt_age >= options_.deadline_slots) {
      fail_attempt(op, ch);
    }
  }
}

void ActuationManager::set_admission_outage(bool active) {
  engine_->cluster().set_admission_outage(active);
}

void ActuationManager::set_latency_multiplier(double factor) {
  DRAGSTER_REQUIRE(factor > 0.0, "latency multiplier must be positive");
  latency_multiplier_ = factor;
}

std::optional<InFlightView> ActuationManager::in_flight_info(dag::NodeId op) const {
  const Channel& ch = channel(op);
  if (!ch.live) return std::nullopt;
  InFlightView view;
  view.epoch = ch.live->epoch;
  view.desired_tasks = ch.live->desired_tasks;
  view.desired_spec = ch.live->desired_spec;
  view.spec_change = ch.live->spec_change;
  view.attempts = ch.live->attempts;
  view.admitted = ch.live->admitted;
  view.backoff_left_slots = ch.live->backoff_left_slots;
  view.attempt_age = ch.live->attempt_age;
  view.pods_pending = ch.live->pods.size();
  view.pods_ready = ch.live->ready;
  return view;
}

std::vector<OperatorStats> ActuationManager::operator_stats() const {
  std::vector<OperatorStats> out;
  out.reserve(stats_.size());
  for (const auto& [op, stats] : stats_) {
    OperatorStats entry;
    entry.op = op;
    entry.name = engine_->dag().component(op).name;
    entry.issued = stats.issued;
    entry.applied = stats.applied;
    entry.rolled_back = stats.rolled_back;
    entry.superseded = stats.superseded;
    entry.retried = stats.retried;
    entry.admission_rejects = stats.admission_rejects;
    entry.slots_to_running_sum = stats.slots_to_running_sum;
    out.push_back(std::move(entry));
  }
  return out;
}

int ActuationManager::applied_tasks(dag::NodeId op) const { return channel(op).applied_tasks; }

int ActuationManager::last_known_good_tasks(dag::NodeId op) const {
  return channel(op).lkg_tasks;
}

double ActuationManager::draw_latency(dag::NodeId op, const Operation& live,
                                      std::size_t pod) const {
  const double mean = options_.sched_latency_mean_slots;
  if (mean <= 0.0) return 0.0;
  common::Rng rng = common::Rng(seed_)
                        .substream("actuation", static_cast<std::uint64_t>(op))
                        .substream("latency", (live.epoch << 16) ^ live.attempts)
                        .substream("pod", pod);
  const double jitter = options_.sched_latency_jitter;
  const double factor = jitter > 0.0 ? 1.0 + rng.uniform(-jitter, jitter) : 1.0;
  return std::max(0.0, mean * latency_multiplier_ * factor);
}

double ActuationManager::draw_backoff(dag::NodeId op, const Operation& live) const {
  if (options_.backoff_jitter_slots <= 0.0) return 0.0;
  common::Rng rng = common::Rng(seed_)
                        .substream("actuation", static_cast<std::uint64_t>(op))
                        .substream("backoff", (live.epoch << 16) ^ live.attempts);
  return rng.uniform(0.0, options_.backoff_jitter_slots);
}

// ---------------------------------------------------------------------------
// Snapshot round trip.  Everything is plain data; an in-flight operation's
// pods serialize their drawn latencies and ages, so a restored manager
// continues the exact same trajectory.
// ---------------------------------------------------------------------------

void ActuationManager::save_state(resilience::SnapshotWriter& writer) const {
  writer.begin_section("actuation");
  writer.field("seed", seed_);
  writer.field("round", static_cast<std::uint64_t>(round_));
  writer.field("latency_multiplier", latency_multiplier_);
  writer.field("channels", static_cast<std::uint64_t>(channels_.size()));

  std::size_t index = 0;
  for (const auto& [op, ch] : channels_) {
    writer.begin_section("actuation.op" + std::to_string(index++));
    writer.field("id", static_cast<std::uint64_t>(op));
    writer.field("applied_tasks", static_cast<std::int64_t>(ch.applied_tasks));
    writer.field("applied_cpu", ch.applied_spec.cpu_cores);
    writer.field("applied_mem", ch.applied_spec.memory_gb);
    writer.field("lkg_tasks", static_cast<std::int64_t>(ch.lkg_tasks));
    writer.field("lkg_cpu", ch.lkg_spec.cpu_cores);
    writer.field("lkg_mem", ch.lkg_spec.memory_gb);
    writer.field("next_epoch", ch.next_epoch);
    const Stats& stats = stats_.at(op);
    writer.field("issued", static_cast<std::uint64_t>(stats.issued));
    writer.field("applied", static_cast<std::uint64_t>(stats.applied));
    writer.field("rolled_back", static_cast<std::uint64_t>(stats.rolled_back));
    writer.field("superseded", static_cast<std::uint64_t>(stats.superseded));
    writer.field("retried", static_cast<std::uint64_t>(stats.retried));
    writer.field("admission_rejects", static_cast<std::uint64_t>(stats.admission_rejects));
    writer.field("slots_to_running_sum", stats.slots_to_running_sum);
    writer.field("live", std::uint64_t{ch.live ? 1u : 0u});
    if (!ch.live) continue;
    const Operation& live = *ch.live;
    writer.field("epoch", live.epoch);
    writer.field("desired_tasks", static_cast<std::int64_t>(live.desired_tasks));
    writer.field("desired_cpu", live.desired_spec.cpu_cores);
    writer.field("desired_mem", live.desired_spec.memory_gb);
    writer.field("spec_change", std::uint64_t{live.spec_change ? 1u : 0u});
    writer.field("issue_round", static_cast<std::uint64_t>(live.issue_round));
    writer.field("attempts", static_cast<std::uint64_t>(live.attempts));
    writer.field("admitted", std::uint64_t{live.admitted ? 1u : 0u});
    writer.field("backoff_left", live.backoff_left_slots);
    writer.field("attempt_age", static_cast<std::uint64_t>(live.attempt_age));
    writer.field("ready", static_cast<std::int64_t>(live.ready));
    std::vector<double> latencies;
    std::vector<double> ages;
    for (const PendingPod& pod : live.pods) {
      latencies.push_back(pod.latency_slots);
      ages.push_back(pod.age_slots);
    }
    writer.field("pod_latency", std::span<const double>(latencies));
    writer.field("pod_age", std::span<const double>(ages));
  }

  // Audit trail, as parallel columns — restored managers keep satisfying the
  // every-epoch-terminates invariant across a crash.
  writer.begin_section("actuation.records");
  std::vector<int> rec_op, rec_epoch, rec_desired, rec_issue, rec_terminal, rec_outcome;
  for (const EpochRecord& record : records_) {
    rec_op.push_back(static_cast<int>(record.op));
    rec_epoch.push_back(static_cast<int>(record.epoch));
    rec_desired.push_back(record.desired_tasks);
    rec_issue.push_back(static_cast<int>(record.issue_round));
    rec_terminal.push_back(static_cast<int>(record.terminal_round));
    rec_outcome.push_back(static_cast<int>(record.outcome));
  }
  writer.field("op", std::span<const int>(rec_op));
  writer.field("epoch", std::span<const int>(rec_epoch));
  writer.field("desired", std::span<const int>(rec_desired));
  writer.field("issue_round", std::span<const int>(rec_issue));
  writer.field("terminal_round", std::span<const int>(rec_terminal));
  writer.field("outcome", std::span<const int>(rec_outcome));
}

void ActuationManager::load_state(resilience::SnapshotReader& reader) {
  // Every section is read and checked into locals first; the manager and the
  // engine's pending-pod ledger change only once the whole snapshot has been
  // accepted, so a rejected one leaves both as they were.
  reader.enter_section("actuation");
  DRAGSTER_REQUIRE(reader.get_uint("seed") == seed_,
                   "snapshot was taken under a different seed");
  const auto round = static_cast<std::size_t>(reader.get_uint("round"));
  const double latency_multiplier = reader.get_double("latency_multiplier");
  DRAGSTER_REQUIRE(reader.get_uint("channels") == channels_.size(),
                   "snapshot operator count does not match the engine");

  reader.enter_section("actuation.records");
  const std::vector<int> rec_op = reader.get_ints("op");
  const std::vector<int> rec_epoch = reader.get_ints("epoch");
  const std::vector<int> rec_desired = reader.get_ints("desired");
  const std::vector<int> rec_issue = reader.get_ints("issue_round");
  const std::vector<int> rec_terminal = reader.get_ints("terminal_round");
  const std::vector<int> rec_outcome = reader.get_ints("outcome");
  const std::size_t rows = rec_op.size();
  DRAGSTER_REQUIRE(rec_epoch.size() == rows && rec_desired.size() == rows &&
                       rec_issue.size() == rows && rec_terminal.size() == rows &&
                       rec_outcome.size() == rows,
                   "snapshot audit-trail columns disagree in length");
  std::vector<EpochRecord> records;
  records.reserve(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    DRAGSTER_REQUIRE(rec_outcome[i] >= static_cast<int>(EpochOutcome::kInFlight) &&
                         rec_outcome[i] <= static_cast<int>(EpochOutcome::kSuperseded),
                     "snapshot audit trail holds an unknown epoch outcome");
    records.push_back({static_cast<dag::NodeId>(rec_op[i]),
                       static_cast<std::uint64_t>(rec_epoch[i]), rec_desired[i],
                       static_cast<std::size_t>(rec_issue[i]),
                       static_cast<std::size_t>(rec_terminal[i]),
                       static_cast<EpochOutcome>(rec_outcome[i])});
  }

  std::map<dag::NodeId, Channel> channels;
  std::map<dag::NodeId, Stats> stats;
  std::size_t index = 0;
  for (const auto& entry : channels_) {
    const dag::NodeId op = entry.first;
    reader.enter_section("actuation.op" + std::to_string(index++));
    DRAGSTER_REQUIRE(reader.get_uint("id") == static_cast<std::uint64_t>(op),
                     "snapshot operator ids do not match the engine");
    Channel& ch = channels[op];
    ch.applied_tasks = static_cast<int>(reader.get_int("applied_tasks"));
    ch.applied_spec = {reader.get_double("applied_cpu"), reader.get_double("applied_mem")};
    ch.lkg_tasks = static_cast<int>(reader.get_int("lkg_tasks"));
    ch.lkg_spec = {reader.get_double("lkg_cpu"), reader.get_double("lkg_mem")};
    ch.next_epoch = reader.get_uint("next_epoch");
    Stats& st = stats[op];
    st.issued = static_cast<std::size_t>(reader.get_uint("issued"));
    st.applied = static_cast<std::size_t>(reader.get_uint("applied"));
    st.rolled_back = static_cast<std::size_t>(reader.get_uint("rolled_back"));
    st.superseded = static_cast<std::size_t>(reader.get_uint("superseded"));
    st.retried = static_cast<std::size_t>(reader.get_uint("retried"));
    st.admission_rejects = static_cast<std::size_t>(reader.get_uint("admission_rejects"));
    st.slots_to_running_sum = reader.get_double("slots_to_running_sum");
    if (reader.get_uint("live") == 0) continue;
    Operation live;
    live.epoch = reader.get_uint("epoch");
    live.desired_tasks = static_cast<int>(reader.get_int("desired_tasks"));
    live.desired_spec = {reader.get_double("desired_cpu"), reader.get_double("desired_mem")};
    live.spec_change = reader.get_uint("spec_change") != 0;
    live.issue_round = static_cast<std::size_t>(reader.get_uint("issue_round"));
    live.attempts = static_cast<std::size_t>(reader.get_uint("attempts"));
    live.admitted = reader.get_uint("admitted") != 0;
    live.backoff_left_slots = reader.get_double("backoff_left");
    live.attempt_age = static_cast<std::size_t>(reader.get_uint("attempt_age"));
    live.ready = static_cast<int>(reader.get_int("ready"));
    // sync_ledger publishes pods + ready as the pending count, which the
    // cluster requires to be non-negative.
    DRAGSTER_REQUIRE(live.ready >= 0, "snapshot in-flight ready pod count is negative");
    const std::vector<double> latencies = reader.get_doubles("pod_latency");
    const std::vector<double> ages = reader.get_doubles("pod_age");
    DRAGSTER_REQUIRE(latencies.size() == ages.size(), "pod latency/age columns disagree");
    for (std::size_t pod = 0; pod < latencies.size(); ++pod)
      live.pods.push_back({latencies[pod], ages[pod]});
    live.record_index = records.size();
    for (std::size_t i = 0; i < records.size(); ++i)
      if (records[i].op == op && records[i].epoch == live.epoch) live.record_index = i;
    DRAGSTER_REQUIRE(live.record_index < records.size(),
                     "in-flight operation is missing from the snapshot audit trail");
    ch.live = std::move(live);
  }

  round_ = round;
  latency_multiplier_ = latency_multiplier;
  records_ = std::move(records);
  channels_ = std::move(channels);
  stats_ = std::move(stats);
  for (const auto& [op, ch] : channels_) sync_ledger(op, ch);
}

}  // namespace dragster::actuation
