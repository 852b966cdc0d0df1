#include "fleet/fleet.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "obs/trace.hpp"
#include "parallel/task_pool.hpp"

namespace dragster::fleet {

namespace {

/// EWMA coefficient applied to raw controller pressure before it reaches the
/// arbiter: smoothed = (1-a) * old + a * fresh.
constexpr double kPressureSmoothing = 0.35;

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kFinished: return "finished";
    case JobState::kEvicted: return "evicted";
    case JobState::kParked: return "parked";
  }
  return "unknown";
}

/// One tenant's whole lower layer.  Members are declared so the runner (which
/// borrows everything else) is destroyed first.
struct FleetScheduler::Job {
  JobSpec spec;
  std::size_t index = 0;
  JobState state = JobState::kQueued;
  std::optional<std::size_t> admitted_slot;
  std::optional<std::size_t> evicted_slot;
  std::size_t slo_misses = 0;
  double pressure = 0.0;  ///< smoothed dual / SLO-debt pressure signal
  int delta = 0;          ///< pods transferred to (+) or from (-) this job,
                          ///< relative to its static share — see arbitrate()
  int grant = 0;          ///< pods granted by the arbiter this slot
  int slack_slots = 0;    ///< consecutive comfortable slots (hysteresis)
  double last_latency = 0.0;  ///< previous slot's latency (backlog-growth test)
  double lat_2back = 0.0;     ///< latency two slots back (drain-trend window)
  double lat_3back = 0.0;     ///< latency three slots back (drain-trend window)
  bool comfy = false;       ///< last slot met the SLO with a quiet dual
  bool distressed = false;  ///< SLO violated and the backlog is not draining
  int donate_cooldown = 0;  ///< slots before this job may donate a pod again
  int recent_peak = 0;      ///< max tasks deployed over the last three slots
  int prev_tasks1 = 0;      ///< tasks one slot back (peak-window history)
  int prev_tasks2 = 0;      ///< tasks two slots back (peak-window history)
  double debt = 0.0;        ///< last slot's latency over the SLO target
  bool fresh = false;     ///< admitted this slot; bundle not yet built
  std::size_t sheds = 0;     ///< brownout park count
  std::size_t restores = 0;  ///< brownout restore count

  std::unique_ptr<streamsim::Engine> engine;
  std::unique_ptr<core::Controller> controller;
  std::unique_ptr<faults::FaultInjector> injector;
  std::unique_ptr<actuation::ActuationManager> manager;
  std::unique_ptr<transport::TransportHarness> transport;  ///< per-job channels
  std::unique_ptr<experiments::ScenarioRunner> runner;  ///< destroyed first
  experiments::RunResult result;  ///< captured when the runner is retired

  /// The fleet's one priority order: higher weight first, then the older job
  /// (lower index).  Eviction and brownout take the lowest-ranked running
  /// job, and the comeback restores the highest-ranked parked one.
  [[nodiscard]] bool outranks(const Job& other) const noexcept {
    return spec.weight > other.spec.weight ||
           (spec.weight >= other.spec.weight && index < other.index);
  }
};

std::uint64_t FleetScheduler::job_seed(std::uint64_t fleet_seed, std::size_t index) {
  return common::Rng(fleet_seed)
      .substream("fleet-job", static_cast<std::uint64_t>(index))
      .next_u64();
}

online::Budget FleetScheduler::pods_budget(int pods, double pod_price_per_hour) {
  DRAGSTER_REQUIRE(pods >= 1, "a pod budget needs at least one pod");
  return online::Budget(static_cast<double>(pods) * pod_price_per_hour, pod_price_per_hour);
}

FleetScheduler::FleetScheduler(std::vector<JobSpec> specs, FleetOptions options,
                               obs::Registry* obs)
    : options_(options), arbiter_(options.arbiter), obs_(obs) {
  DRAGSTER_REQUIRE(!specs.empty(), "a fleet needs at least one job");
  DRAGSTER_REQUIRE(options_.pod_price_per_hour > 0.0, "pod price must be positive");
  std::set<std::string> names;
  jobs_.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    JobSpec& spec = specs[i];
    DRAGSTER_REQUIRE(!spec.name.empty(), "every fleet job needs a name");
    DRAGSTER_REQUIRE(names.insert(spec.name).second, "duplicate job name: " + spec.name);
    DRAGSTER_REQUIRE(spec.weight > 0.0, "job weight must be positive");
    auto job = std::make_unique<Job>();
    job->spec = std::move(spec);
    job->index = i;
    jobs_.push_back(std::move(job));
  }
  cluster_.set_admission_limits(options_.limits);
  if (options_.node_count > 0)
    cluster_.configure_nodes(options_.node_count, options_.node_capacity);
  if (!options_.chaos.empty()) {
    chaos_ = faults::FleetFaultPlan::parse(options_.chaos);
    DRAGSTER_REQUIRE(!chaos_.touches_nodes() || cluster_.nodes_enabled(),
                     "node chaos events need FleetOptions::node_count > 0");
    for (const faults::FleetFaultEvent& event : chaos_.events()) {
      const bool net_kind = event.kind == faults::FleetFaultKind::kNetPartition ||
                            event.kind == faults::FleetFaultKind::kNetDrop ||
                            event.kind == faults::FleetFaultKind::kNetDelay;
      if (net_kind) {
        // Net chaos acts on per-job transport harnesses: a plan that nets a
        // transport-less target is a spec bug, not a silent no-op.
        if (event.job.empty()) {
          bool any = false;
          for (const auto& job : jobs_) any = any || job->spec.transported;
          DRAGSTER_REQUIRE(any, "net chaos '" + event.to_string() +
                                    "' needs at least one transported job");
        } else {
          const Job* target = nullptr;
          for (const auto& job : jobs_)
            if (job->spec.name == event.job) target = job.get();
          DRAGSTER_REQUIRE(target != nullptr,
                           "net chaos names unknown job '" + event.job + "'");
          DRAGSTER_REQUIRE(target->spec.transported,
                           "net chaos targets job '" + event.job + "' without transport");
        }
        continue;
      }
      if (event.kind != faults::FleetFaultKind::kJobCrash) continue;
      bool known = false;
      for (const auto& job : jobs_) known = known || job->spec.name == event.job;
      DRAGSTER_REQUIRE(known, "jobcrash names unknown job '" + event.job + "'");
    }
  }
  refresh_effective_budget();
}

bool FleetScheduler::chaos_active() const noexcept {
  return cluster_.nodes_enabled() || !chaos_.empty();
}

void FleetScheduler::refresh_effective_budget() {
  // A fault-free, node-free fleet must take the exact legacy path: the
  // effective budget IS options_.budget_pods, limited iff it is positive.
  int pods = options_.budget_pods;
  bool limited = pods > 0;
  for (const auto& [end, fraction] : cuts_) {
    (void)end;
    if (!limited) continue;  // a cut needs a finite budget to bite
    pods = std::max(1, pods - static_cast<int>(std::ceil(fraction * pods)));
  }
  if (cluster_.nodes_enabled()) {
    const int usable = cluster_.usable_capacity();
    pods = limited ? std::min(pods, usable) : usable;
    limited = true;
  }
  effective_budget_ = pods;
  budget_limited_ = limited;
}

FleetScheduler::~FleetScheduler() = default;

bool FleetScheduler::gate_allows(const Job& job) const {
  // The gate reasons in floors, not live ledger actuals: any pods a running
  // job holds above its floor are reclaimable at the next arbitration, which
  // runs in this same slot right after admission.  Gating on actuals would
  // deadlock late arrivals forever once incumbents expand into the surplus.
  // Parked jobs count too: brownout shed them on a promise of restoration,
  // and a new arrival must not quietly consume their reserved floor.
  const long long floors = job.spec.floor_pods() + floor_pods(true);
  if (budget_limited_ && floors > effective_budget_) return false;
  if (options_.limits.max_total_pods > 0 && floors > options_.limits.max_total_pods)
    return false;
  if (options_.limits.max_cost_rate_per_hour > 0.0 &&
      static_cast<double>(floors) * options_.pod_price_per_hour >
          options_.limits.max_cost_rate_per_hour * (1.0 + 1e-9))
    return false;
  return true;
}

long long FleetScheduler::floor_pods(bool parked_too) const {
  long long floors = 0;
  for (const auto& job : jobs_)
    if (job->state == JobState::kRunning || (parked_too && job->state == JobState::kParked))
      floors += job->spec.floor_pods();
  return floors;
}

FleetScheduler::Job* FleetScheduler::eviction_victim(double incoming_weight) {
  Job* victim = nullptr;
  for (const auto& job : jobs_) {
    if (job->state != JobState::kRunning) continue;
    if (job->spec.weight >= incoming_weight) continue;  // only strictly lower priority
    if (victim == nullptr || victim->outranks(*job)) victim = job.get();
  }
  return victim;
}

void FleetScheduler::admit_phase() {
  for (const auto& job : jobs_) {
    if (job->state != JobState::kQueued || job->spec.arrival_slot > slot_) continue;
    bool admitted = gate_allows(*job);
    if (!admitted && options_.allow_eviction) {
      if (Job* victim = eviction_victim(job->spec.weight)) {
        destroy_bundle(*victim, JobState::kEvicted);
        ++evictions_;
        if (obs_ != nullptr) {
          if (obs::TraceSink* sink = obs_->trace()) {
            obs::Event(*sink, "fleet_eviction", static_cast<std::uint64_t>(slot_))
                .field("job", victim->spec.name)
                .field("for_job", job->spec.name);
          }
        }
        admitted = gate_allows(*job);
      }
    }
    if (!admitted) {
      ++rejections_;
      continue;
    }
    job->state = JobState::kRunning;
    job->admitted_slot = slot_;
    job->fresh = true;
    ++admissions_;
  }
}

void FleetScheduler::arbitrate() {
  std::vector<JobDemand> demands;
  std::vector<Job*> running;
  for (const auto& job : jobs_) {
    if (job->state != JobState::kRunning) continue;
    JobDemand demand;
    demand.weight = job->spec.weight;
    demand.floor_pods = job->spec.floor_pods();
    demand.cap_pods = job->spec.cap_pods();
    demand.pressure = job->pressure;
    demands.push_back(demand);
    running.push_back(job.get());
  }
  if (options_.arbiter.mode != ArbiterMode::kStatic && budget_limited_) {
    // The pressure arm reasons in whole-pod deviations (delta_i) from the
    // static share, so first compute what the blind split would hand out
    // this slot.  Each job's target is share_i + delta_i; deltas only
    // change by paired transfers — every +1 on a distressed job matches a
    // -1 on a comfortable donor — so the targets always sum to the budget
    // and the allocation cannot thrash: nothing moves without both a
    // priced-up recipient (high smoothed dual / SLO debt) and a donor whose
    // own signals say the pod is spare.  Donors rotate via a cooldown so a
    // rescue is funded by the whole comfortable pool, one brief pod-slot
    // each, instead of starving any single job.
    ArbiterOptions blind = options_.arbiter;
    blind.mode = ArbiterMode::kStatic;
    const std::vector<int> share = BudgetArbiter(blind).split(effective_budget_, demands);

    // Transfer matching: recipients are distressed jobs, most pressured
    // first; donors are stably comfortable jobs, least pressured first.
    // A donor must also hold a *provably idle* pod: target - 1 must still
    // cover its recent deployment peak.  "Comfortable at this level" alone
    // does not prove the level has surplus — a job running exactly at its
    // need sits at latency zero right up until one pod leaves, then
    // diverges.  The peak is observable and honest because the controller
    // duty-cycles up to whatever it actually needs within a few slots.
    // Donors that were cut too deep anyway (delta < 0, debt climbing toward
    // the SLO) reclaim ahead of any new rescue — returning a lent pod
    // outranks lending more.  Each recipient moves at most one pod per
    // slot, each donor gives at most one pod every other slot, and the
    // peak guard re-evaluates on fresh usage before every donation, so the
    // flow is fast fleet-wide yet gradual per job.
    std::vector<std::size_t> reclaimers;
    std::vector<std::size_t> recipients;
    std::vector<std::size_t> donors;
    for (std::size_t k = 0; k < running.size(); ++k) {
      const Job& job = *running[k];
      const int target = std::clamp(share[k] + job.delta, demands[k].floor_pods,
                                    demands[k].cap_pods);
      if (job.delta < 0 && job.debt > 0.6) {
        reclaimers.push_back(k);
        continue;
      }
      if (job.distressed && target < demands[k].cap_pods) recipients.push_back(k);
      if (job.comfy && job.slack_slots >= 2 && job.donate_cooldown == 0 &&
          target > demands[k].floor_pods && target - 1 >= job.recent_peak)
        donors.push_back(k);
    }
    const auto more_pressured = [&](std::size_t a, std::size_t b) {
      if (running[a]->pressure != running[b]->pressure)  // exact ordering; ties fall through to the index
        return running[a]->pressure > running[b]->pressure;
      return a < b;
    };
    std::sort(reclaimers.begin(), reclaimers.end(), more_pressured);
    std::sort(recipients.begin(), recipients.end(), more_pressured);
    recipients.insert(recipients.begin(), reclaimers.begin(), reclaimers.end());
    std::sort(donors.begin(), donors.end(),
              [&](std::size_t a, std::size_t b) { return more_pressured(b, a); });
    // Released pods (deltas summing negative) float in the tier-2 pool;
    // recipients absorb those first, then draw on live donors.
    long long sum_delta = 0;
    for (const Job* job : running) sum_delta += job->delta;
    long long floating = sum_delta < 0 ? -sum_delta : 0;
    std::size_t moves = recipients.size();
    std::size_t di = 0;
    for (std::size_t ri = 0; ri < recipients.size() && moves > 0; ++ri) {
      const std::size_t r = recipients[ri];
      if (floating > 0) {
        running[r]->delta += 1;
        --floating;
        --moves;
        continue;
      }
      while (di < donors.size() && donors[di] == r) ++di;
      if (di >= donors.size()) break;
      const std::size_t d = donors[di];
      if (running[r]->pressure <= running[d]->pressure) break;
      running[r]->delta += 1;
      running[d]->delta -= 1;
      running[d]->donate_cooldown = 1;
      ++di;
      --moves;
    }

    for (std::size_t k = 0; k < running.size(); ++k) {
      demands[k].request_pods = std::clamp(share[k] + running[k]->delta,
                                           demands[k].floor_pods, demands[k].cap_pods);
      demands[k].held_pods = running[k]->grant;
    }
  }
  const std::vector<int> grants = arbiter_.split(effective_budget_, demands);
  for (std::size_t k = 0; k < running.size(); ++k) {
    running[k]->grant = grants[k];
    cluster_.set_job_quota(running[k]->spec.name, cluster::AdmissionLimits{grants[k], 0.0});
  }
}

void FleetScheduler::construct_bundle(Job& job) {
  const std::uint64_t seed = job_seed(options_.seed, job.index);
  const online::Budget budget = budget_limited_
                                    ? pods_budget(job.grant, options_.pod_price_per_hour)
                                    : online::Budget::unlimited(options_.pod_price_per_hour);
  job.engine = std::make_unique<streamsim::Engine>(
      job.spec.workload.make_engine(job.spec.high_rate, job.spec.engine, seed));
  job.controller = make_job_controller(job.spec, budget);
  if (!job.spec.fault_plan.empty())
    job.injector =
        std::make_unique<faults::FaultInjector>(faults::FaultPlan::parse(job.spec.fault_plan));
  if (job.spec.managed)
    job.manager =
        std::make_unique<actuation::ActuationManager>(*job.engine, job.spec.actuation, seed);
  if (job.spec.transported)
    job.transport = std::make_unique<transport::TransportHarness>(
        job.spec.transport, common::Rng(seed).substream("transport").next_u64());
  experiments::ScenarioOptions scenario;
  scenario.slots = options_.slots;
  scenario.budget = budget;
  job.runner = std::make_unique<experiments::ScenarioRunner>(
      *job.engine, *job.controller, scenario, job.spec.workload.name, job.injector.get(),
      job.manager.get(), obs_, job.transport.get());
  sync_ledger(job, true);
  job.fresh = false;
}

void FleetScheduler::destroy_bundle(Job& job, JobState final_state) {
  if (job.runner != nullptr) {
    job.result = job.runner->finish();
    job.runner.reset();
  }
  job.transport.reset();
  job.manager.reset();
  job.injector.reset();
  job.controller.reset();
  job.engine.reset();
  cluster_.remove_job(job.spec.name);
  job.state = final_state;
  if (final_state == JobState::kEvicted) job.evicted_slot = slot_;
}

void FleetScheduler::sync_ledger(Job& job, bool add) {
  for (dag::NodeId op : job.engine->dag().operators()) {
    const cluster::Deployment& d =
        job.engine->cluster().deployment(job.engine->dag().component(op).name);
    const std::string mirror = job.spec.name + "/" + d.name;
    if (add) {
      cluster_.add_deployment(mirror, d.replicas, d.spec, job.spec.name);
    } else {
      cluster_.scale_replicas(mirror, d.replicas);
      cluster_.resize_pods(mirror, d.spec);
    }
    cluster_.set_pending(mirror, d.pending);
  }
}

int FleetScheduler::victim_node() const noexcept {
  // The most-loaded usable node (lowest index on ties): the worst-case
  // correlated failure, tearing pods off the largest set of co-located jobs.
  int best = -1;
  for (int k = 0; k < cluster_.node_count(); ++k) {
    const cluster::Node& n = cluster_.node(k);
    if (n.failed || n.cordoned) continue;
    if (best < 0 || n.used > cluster_.node(best).used) best = k;
  }
  return best;
}

void FleetScheduler::propagate_node_loss(faults::AppliedFleetFault& applied,
                                         const std::vector<cluster::NodeEviction>& evicted) {
  // Fixed index order over jobs, DAG order over operators: the same loss is
  // always delivered in the same sequence.  Each torn-away pod goes through
  // the engine's crash seam; the engine floors every operator at one task
  // (Kubernetes would reschedule the last pod), and the slot-end ledger sync
  // re-places any such survivor on a healthy node.
  for (const auto& job : jobs_) {
    if (job->state != JobState::kRunning || job->engine == nullptr) continue;
    for (dag::NodeId op : job->engine->dag().operators()) {
      const std::string mirror =
          job->spec.name + "/" + job->engine->dag().component(op).name;
      for (const cluster::NodeEviction& ev : evicted) {
        if (ev.deployment != mirror) continue;
        for (int p = 0; p < ev.pods; ++p) job->engine->inject_pod_failure(op);
        applied.pods_lost += ev.pods;
      }
    }
  }
}

void FleetScheduler::apply_chaos() {
  // Close windows first: a drain ending at slot s has the node usable again
  // for slot s, and an expired budget cut stops biting before this slot's
  // arbitration.
  for (auto it = drains_.begin(); it != drains_.end();) {
    if (it->first <= slot_) {
      cluster_.uncordon_node(it->second);
      it = drains_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = cuts_.begin(); it != cuts_.end();) {
    if (it->first <= slot_) {
      it = cuts_.erase(it);
    } else {
      ++it;
    }
  }

  for (const faults::FleetFaultEvent& event : chaos_.events()) {
    if (event.slot != slot_) continue;
    faults::AppliedFleetFault applied;
    applied.event = event;
    applied.slot = slot_;
    switch (event.kind) {
      case faults::FleetFaultKind::kNodeCrash:
        for (int k = 0; k < static_cast<int>(event.value); ++k) {
          const int victim = victim_node();
          if (victim < 0) break;  // nothing left to kill
          const std::vector<cluster::NodeEviction> evicted = cluster_.fail_node(victim);
          applied.nodes.push_back(victim);
          propagate_node_loss(applied, evicted);
        }
        break;
      case faults::FleetFaultKind::kNodeDrain:
        for (int k = 0; k < static_cast<int>(event.value); ++k) {
          const int victim = victim_node();
          if (victim < 0) break;
          const std::vector<cluster::NodeEviction> evicted = cluster_.drain_node(victim);
          applied.nodes.push_back(victim);
          drains_.emplace_back(slot_ + event.duration_slots, victim);
          propagate_node_loss(applied, evicted);
        }
        break;
      case faults::FleetFaultKind::kBudgetCut:
        cuts_.emplace_back(slot_ + event.duration_slots, event.value);
        break;
      case faults::FleetFaultKind::kJobCrash:
        for (const auto& job : jobs_) {
          if (job->spec.name != event.job) continue;
          if (job->state != JobState::kRunning || job->engine == nullptr) break;
          for (dag::NodeId op : job->engine->dag().operators()) {
            const int tasks = job->engine->tasks(op);
            for (int p = 1; p < tasks; ++p) job->engine->inject_pod_failure(op);
            applied.pods_lost += tasks - 1;
          }
          break;
        }
        break;
      case faults::FleetFaultKind::kNetPartition:
      case faults::FleetFaultKind::kNetDrop:
      case faults::FleetFaultKind::kNetDelay:
        for (const auto& job : jobs_) {
          if (!event.job.empty() && job->spec.name != event.job) continue;
          if (job->state != JobState::kRunning || job->transport == nullptr) continue;
          // Channel clocks run on the job's own slot index (a late arrival is
          // offset from the fleet clock): translate the window end.  The
          // runner has completed slots_run() slots, so this fleet slot is the
          // job's slot slots_run().
          const std::size_t end = job->runner->slots_run() + event.duration_slots;
          if (event.kind == faults::FleetFaultKind::kNetPartition)
            job->transport->inject_partition_until(end);
          else if (event.kind == faults::FleetFaultKind::kNetDrop)
            job->transport->inject_drop_until(event.value, end);
          else
            job->transport->inject_delay_until(event.value, end);
        }
        break;
    }
    if (obs_ != nullptr) {
      if (obs::TraceSink* sink = obs_->trace()) {
        obs::Event(*sink, "fleet_fault", static_cast<std::uint64_t>(slot_))
            .field("spec", event.to_string())
            .field("victim_nodes", static_cast<std::int64_t>(applied.nodes.size()))
            .field("pods_lost", static_cast<std::int64_t>(applied.pods_lost));
      }
    }
    fleet_faults_.push_back(std::move(applied));
  }
}

void FleetScheduler::park_job(Job& job) {
  cluster_.remove_job(job.spec.name);
  job.state = JobState::kParked;
  job.grant = 0;
  ++job.sheds;
  ++sheds_;
  if (obs_ != nullptr) {
    if (obs::TraceSink* sink = obs_->trace()) {
      obs::Event(*sink, "fleet_brownout", static_cast<std::uint64_t>(slot_))
          .field("action", "park")
          .field("job", job.spec.name);
    }
  }
}

void FleetScheduler::restore_job(Job& job) {
  // Re-mirror the bundle from engine truth (the engine kept its state while
  // parked); the next arbitration re-grants and the runner's budget
  // enforcement shrinks any over-floor remnants deterministically.
  sync_ledger(job, true);
  job.state = JobState::kRunning;
  ++job.restores;
  ++restores_;
  if (obs_ != nullptr) {
    if (obs::TraceSink* sink = obs_->trace()) {
      obs::Event(*sink, "fleet_brownout", static_cast<std::uint64_t>(slot_))
          .field("action", "restore")
          .field("job", job.spec.name);
    }
  }
}

void FleetScheduler::brownout() {
  if (!budget_limited_) return;
  // Shed while the aggregate floor cannot fit: lowest weight first, youngest
  // (highest index) among equals — the exact mirror of eviction priority,
  // except the bundle survives to be restored.
  while (floor_pods(false) > effective_budget_) {
    Job* victim = nullptr;
    for (const auto& job : jobs_) {
      if (job->state != JobState::kRunning || job->engine == nullptr) continue;
      if (victim == nullptr || victim->outranks(*job)) victim = job.get();
    }
    if (victim == nullptr) break;  // nothing sheddable (no built bundles)
    park_job(*victim);
    restore_streak_ = 0;
  }
  // Restore at most one job per slot, highest priority first, and only after
  // capacity has covered its floor for restore_hysteresis_slots consecutive
  // slots — the hysteresis that keeps a flapping capacity signal from
  // thrashing park -> restore -> park.
  Job* comeback = nullptr;
  for (const auto& job : jobs_)
    if (job->state == JobState::kParked && (comeback == nullptr || job->outranks(*comeback)))
      comeback = job.get();
  if (comeback == nullptr) {
    restore_streak_ = 0;
    return;
  }
  if (floor_pods(false) + comeback->spec.floor_pods() <= effective_budget_) {
    if (++restore_streak_ >= options_.restore_hysteresis_slots) {
      restore_job(*comeback);
      restore_streak_ = 0;
    }
  } else {
    restore_streak_ = 0;
  }
}

void FleetScheduler::step() {
  if (chaos_active()) {
    apply_chaos();
    refresh_effective_budget();
    brownout();
  }
  admit_phase();
  arbitrate();

  FleetSlot record;
  record.slot = slot_;

  // Jobs step in spec-index order; each bundle owns its engine, controller,
  // actuation, transport and RNG state, so runner->step() is independence-
  // safe.  The shared cluster ledger is NOT: bundle construction and the
  // ledger sync interleave with steps in job-index order, and under tight
  // node capacity that interleaving is observable.  The pool therefore fans
  // out only slots where the interleaving is provably the serial one — no
  // fresh bundle to construct mid-loop and no trace registry attached (the
  // registry is one shared scoped sink) — and every shared mutation happens
  // at the barriers below, in job-index order.  Slots that fail the guard
  // run the exact serial sequence, so bytes match the serial path either
  // way, at any thread count.
  std::vector<Job*> running;
  running.reserve(jobs_.size());
  bool any_fresh = false;
  for (const auto& job : jobs_) {
    if (job->state != JobState::kRunning) continue;
    running.push_back(job.get());
    any_fresh = any_fresh || job->fresh;
  }

  auto prepare_job = [&](Job& job) {
    if (job.fresh)
      construct_bundle(job);
    else
      job.runner->set_budget(budget_limited_
                                 ? pods_budget(job.grant, options_.pod_price_per_hour)
                                 : online::Budget::unlimited(options_.pod_price_per_hour));
  };

  auto reduce_job = [&](Job* jobp) {
    Job* const job = jobp;
    const experiments::SlotSummary& last = job->runner->partial().slots.back();

    // Pressure for the next arbitration: the controller's dual (the shadow
    // price of one more task-slot) joined with the job's SLO debt (latency
    // over target), whichever screams louder.  The dual alone decays to
    // zero the moment a job keeps up, which would surrender exactly the
    // pods that kept it afloat and thrash; the debt term makes a job near
    // its latency edge hold its claim.  Rises are instant, decay is
    // smoothed, so one good slot does not forfeit the grant.
    const double dual = std::max(0.0, job->controller->budget_pressure());
    const double debt = job->spec.slo.max_latency_s > 0.0
                            ? last.latency_s / job->spec.slo.max_latency_s
                            : 0.0;
    const double fresh_pressure = std::max(dual, debt);
    const double a = kPressureSmoothing;
    job->pressure =
        std::max(fresh_pressure, (1.0 - a) * job->pressure + a * fresh_pressure);

    // Signals for the next arbitration's transfer matching:
    //   * distressed — the SLO is violated and the backlog is not shrinking
    //     (latency not falling), so the current allocation structurally
    //     cannot keep up.  A job merely draining a cold-start or fault
    //     backlog never raises its hand — that separates transient distress
    //     from true under-provisioning.  The first slots after admission
    //     are warmup: the job starts on its floor deployment whatever its
    //     true need, so distress there says nothing.
    //   * comfy / slack_slots — latency comfortably under the SLO with at
    //     most a modest dual (a healthy Dragster duty-cycles to save cost,
    //     so its dual hovers slightly positive even with latency to spare —
    //     requiring an exactly-quiet dual would empty the donor pool); the
    //     streak length gates donation, so only stably satisfied jobs fund
    //     rescues, and donor ordering still sends the least-pressured
    //     donors first.
    //   * delta decay — a rescued job hands its extra pods back one per
    //     slot once stably comfortable, so rescue capacity returns to the
    //     pool without the cliff that re-strands the job.
    // Distress is judged against a three-slot latency baseline: a job whose
    // backlog shrinks even slowly (a cold-start or post-fault drain) is on a
    // path to recovery at its current allocation, and a rescue would only
    // add rescale churn on top; a job whose latency is flat or rising over
    // the window structurally cannot keep up and needs the pods.
    const std::size_t slots_run = job->runner->partial().slots.size();
    const double baseline = slots_run > 3   ? job->lat_3back
                            : slots_run > 2 ? job->lat_2back
                                            : job->last_latency;
    const bool draining = last.latency_s < 0.95 * baseline ||
                          last.latency_s < 0.95 * job->last_latency;
    const bool warmed = slots_run > 1;
    job->debt = debt;
    job->distressed = warmed && debt > 1.0 && !draining;
    job->comfy = debt < 0.8 && dual <= 0.05;
    if (job->comfy) {
      // Release one rescued pod per three comfortable slots — a gentle exit
      // ramp; releasing every slot collapses the grant faster than the
      // backlog re-forms and thrashes rescue -> release -> rescue.
      if (++job->slack_slots % 3 == 0 && job->delta > 0) job->delta -= 1;
    } else {
      job->slack_slots = 0;
    }
    job->lat_3back = job->lat_2back;
    job->lat_2back = job->last_latency;
    job->last_latency = last.latency_s;
    if (job->donate_cooldown > 0) job->donate_cooldown -= 1;
    int tasks_now = 0;
    for (int t : last.tasks) tasks_now += t;
    job->recent_peak = std::max({tasks_now, job->prev_tasks1, job->prev_tasks2});
    job->prev_tasks2 = job->prev_tasks1;
    job->prev_tasks1 = tasks_now;

    if (last.latency_s > job->spec.slo.max_latency_s) {
      job->slo_misses += 1;
      record.slo_misses += 1;
    }
    record.throughput += last.throughput_rate;
    record.tuples += last.tuples;
    record.granted_pods += job->grant;
    record.running_jobs += 1;

    sync_ledger(*job, false);
  };

  parallel::TaskPool& pool = parallel::TaskPool::global();
  const bool fan_out = obs_ == nullptr && !any_fresh && running.size() > 1 &&
                       pool.threads() > 1 && !parallel::TaskPool::in_worker();
  if (fan_out) {
    for (Job* job : running) prepare_job(*job);  // budget refresh only: job-local
    pool.for_each(running.size(), [&](std::size_t i) { running[i]->runner->step(); });
    for (Job* job : running) reduce_job(job);  // shared mutations, job-index order
  } else {
    for (Job* job : running) {
      if (obs_ != nullptr) obs_->set_scope(obs::Labels{{"job", job->spec.name}});
      prepare_job(*job);
      job->runner->step();
      if (obs_ != nullptr) obs_->set_scope(obs::Labels{});
      reduce_job(job);
    }
  }
  for (const auto& job : jobs_) {
    if (job->state == JobState::kQueued) record.queued_jobs += 1;
    if (job->state == JobState::kParked) record.parked_jobs += 1;
  }
  if (cluster_.nodes_enabled()) {
    // Slot end is the reconciliation point: every job has synced its mirror,
    // so any pods left unscheduled by a mid-slot capacity squeeze get their
    // deterministic retry against whatever freed up.
    cluster_.place_unscheduled();
    for (int k = 0; k < cluster_.node_count(); ++k) {
      const cluster::Node& n = cluster_.node(k);
      record.failed_nodes += n.failed ? 1 : 0;
      record.cordoned_nodes += n.cordoned ? 1 : 0;
    }
    record.unscheduled_pods = cluster_.unscheduled_pods();
    record.nodes_within_capacity = cluster_.nodes_within_capacity();
  }
  record.effective_budget = budget_limited_ ? effective_budget_ : 0;

  record.total_pods = cluster_.total_pods();
  record.pending_pods = cluster_.total_pending();
  record.spend_rate = cluster_.cost_rate_per_hour();
  if (options_.limits.max_total_pods > 0 &&
      record.total_pods + record.pending_pods > options_.limits.max_total_pods)
    record.within_limits = false;
  if (options_.limits.max_cost_rate_per_hour > 0.0 &&
      record.spend_rate > options_.limits.max_cost_rate_per_hour * (1.0 + 1e-9))
    record.within_limits = false;
  limits_respected_ = limits_respected_ && record.within_limits;

  if (obs_ != nullptr) {
    obs_->gauge("fleet_total_pods", "Running pods across all jobs").set(record.total_pods);
    obs_->gauge("fleet_pending_pods", "Pending pods across all jobs").set(record.pending_pods);
    obs_->gauge("fleet_spend_rate_per_hour", "Aggregate $/hour").set(record.spend_rate);
    obs_->gauge("fleet_running_jobs", "Jobs currently running")
        .set(static_cast<double>(record.running_jobs));
    obs_->gauge("fleet_queued_jobs", "Jobs waiting for admission")
        .set(static_cast<double>(record.queued_jobs));
    obs_->counter("fleet_slo_misses_total", "Job-slots whose latency exceeded the job SLO")
        .inc(static_cast<double>(record.slo_misses));
    if (obs::TraceSink* sink = obs_->trace()) {
      obs::Event(*sink, "fleet_slot", static_cast<std::uint64_t>(slot_))
          .field("total_pods", record.total_pods)
          .field("pending_pods", record.pending_pods)
          .field("spend_rate", record.spend_rate)
          .field("granted_pods", static_cast<std::int64_t>(record.granted_pods))
          .field("throughput", record.throughput)
          .field("slo_misses", static_cast<std::uint64_t>(record.slo_misses))
          .field("running", static_cast<std::uint64_t>(record.running_jobs))
          .field("queued", static_cast<std::uint64_t>(record.queued_jobs))
          .field("within_limits", record.within_limits);
    }
    if (chaos_active()) {
      // Chaos-only telemetry rides on its own event so the fault-free
      // fleet_slot schema (and its trace bytes) stay exactly as before.
      obs_->gauge("fleet_parked_jobs", "Jobs shed by brownout, awaiting restore")
          .set(static_cast<double>(record.parked_jobs));
      obs_->gauge("fleet_effective_budget_pods", "Post-fault pod budget the arbiter split")
          .set(static_cast<double>(record.effective_budget));
      if (obs::TraceSink* sink = obs_->trace()) {
        obs::Event(*sink, "fleet_chaos_slot", static_cast<std::uint64_t>(slot_))
            .field("effective_budget", record.effective_budget)
            .field("parked", static_cast<std::uint64_t>(record.parked_jobs))
            .field("failed_nodes", record.failed_nodes)
            .field("cordoned_nodes", record.cordoned_nodes)
            .field("unscheduled_pods", record.unscheduled_pods)
            .field("nodes_within_capacity", record.nodes_within_capacity);
      }
    }
  }

  fleet_slots_.push_back(record);
  ++slot_;
}

FleetResult FleetScheduler::finish() {
  FleetResult result;
  result.slots = std::move(fleet_slots_);
  result.admissions = admissions_;
  result.rejections = rejections_;
  result.evictions = evictions_;
  result.sheds = sheds_;
  result.restores = restores_;
  result.limits_respected = limits_respected_;
  result.fleet_faults = std::move(fleet_faults_);
  result.jobs.reserve(jobs_.size());
  for (const auto& job : jobs_) {
    if (job->state == JobState::kRunning) destroy_bundle(*job, JobState::kFinished);
    // A job still parked at the horizon keeps kParked: capacity never came
    // back for it, and the outcome should say so.
    if (job->state == JobState::kParked) destroy_bundle(*job, JobState::kParked);
    JobOutcome outcome;
    outcome.name = job->spec.name;
    outcome.state = job->state;
    outcome.admitted_slot = job->admitted_slot;
    outcome.evicted_slot = job->evicted_slot;
    outcome.slo_misses = job->slo_misses;
    outcome.sheds = job->sheds;
    outcome.restores = job->restores;
    outcome.run = std::move(job->result);
    outcome.slots_run = outcome.run.slots.size();
    result.total_tuples += outcome.run.total_tuples;
    result.total_cost += outcome.run.total_cost;
    result.total_slo_misses += outcome.slo_misses;
    result.jobs.push_back(std::move(outcome));
  }
  return result;
}

FleetResult run_fleet(std::vector<JobSpec> specs, const FleetOptions& options,
                      obs::Registry* obs) {
  FleetScheduler scheduler(std::move(specs), options, obs);
  for (std::size_t t = 0; t < options.slots; ++t) scheduler.step();
  return scheduler.finish();
}

}  // namespace dragster::fleet
