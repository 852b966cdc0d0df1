#include "timing.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/error.hpp"
#include "resilience/supervisor.hpp"

namespace dragbench {

using namespace dragster;

double ms_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

TimedController::TimedController(core::Controller& inner) : inner_(inner) {
  DRAGSTER_REQUIRE(dynamic_cast<resilience::ControllerSupervisor*>(&inner) == nullptr,
                   "TimedController must not wrap a ControllerSupervisor");
}

void TimedController::on_slot(const streamsim::JobMonitor& monitor,
                              streamsim::ScalingActuator& actuator) {
  entered_ = Clock::now();
  inner_.on_slot(monitor, actuator);
  exited_ = Clock::now();
  on_slot_ms_.push_back(ms_between(entered_, exited_));
}

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kStreamsim: return "streamsim";
    case Layer::kCore: return "core";
    case Layer::kExperiments: return "experiments";
    case Layer::kFleet: return "fleet";
    case Layer::kResilience: return "resilience";
    case Layer::kActuation: return "actuation";
    case Layer::kTransport: return "transport";
    case Layer::kFaults: return "faults";
    case Layer::kOther: return "other";
  }
  return "other";
}

Layer layer_of(std::string_view type) {
  const auto starts = [&](std::string_view prefix) {
    return type.substr(0, prefix.size()) == prefix;
  };
  if (starts("engine_")) return Layer::kStreamsim;
  if (type == "decision") return Layer::kCore;
  if (type == "scenario_slot" || type == "budget_preemption") return Layer::kExperiments;
  if (starts("fleet_")) return Layer::kFleet;
  if (type == "snapshot" || type == "restore" || type == "cold_restart" || type == "recovered" ||
      type == "controller_crash" || type == "safe_mode_slot" || type == "rule_fallback" ||
      type == "invariant_trip")
    return Layer::kResilience;
  if (starts("epoch_") || type == "admission_reject") return Layer::kActuation;
  if (starts("transport_")) return Layer::kTransport;
  if (type == "fault_injected") return Layer::kFaults;
  return Layer::kOther;
}

void StampingSink::write(std::string_view line) {
  if (!armed_) return;
  const Clock::time_point now = Clock::now();
  // Every line starts {"type":"<name>", — obs::Event writes type first.
  constexpr std::string_view kPrefix = "{\"type\":\"";
  std::string_view type;
  if (line.substr(0, kPrefix.size()) == kPrefix) {
    const std::string_view rest = line.substr(kPrefix.size());
    type = rest.substr(0, rest.find('"'));
  }
  ++totals_.events;
  charge(layer_of(type), now);
}

void StampingSink::begin(Clock::time_point at) {
  armed_ = true;
  armed_at_ = at;
  last_ = at;
}

void StampingSink::end(Clock::time_point at, Layer closing) {
  if (!armed_) return;
  charge(closing, at);
  totals_.armed_ms += ms_between(armed_at_, at);
  armed_ = false;
}

void StampingSink::charge(Layer layer, Clock::time_point now) {
  totals_.layer_ms[static_cast<std::size_t>(layer)] += ms_between(last_, now);
  last_ = now;
}

double median(std::vector<double> values) {
  DRAGSTER_REQUIRE(!values.empty(), "median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double tail_percentile(std::vector<double> values, double q) {
  DRAGSTER_REQUIRE(q > 0.0 && q < 1.0, "percentile must lie strictly between 0 and 1");
  const std::size_t n = values.size();
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  DRAGSTER_REQUIRE(n >= rank + 10, "percentile " + std::to_string(q) + " of " +
                                       std::to_string(n) +
                                       " samples has fewer than 10 samples above it");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  return lo + 1 < n ? values[lo] + frac * (values[lo + 1] - values[lo]) : values[lo];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void Fnv1a::byte(unsigned char b) noexcept {
  hash_ ^= b;
  hash_ *= 0x100000001b3ULL;
}

void Fnv1a::add(std::uint64_t value) {
  for (int k = 0; k < 8; ++k) byte(static_cast<unsigned char>(value >> (8 * k)));
}

void Fnv1a::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

void Fnv1a::add(std::string_view text) {
  add(static_cast<std::uint64_t>(text.size()));
  for (char c : text) byte(static_cast<unsigned char>(c));
}

void add_to(Fnv1a& hash, const experiments::RunResult& run) {
  hash.add(run.controller);
  hash.add(run.workload);
  hash.add(static_cast<std::uint64_t>(run.slots.size()));
  for (const experiments::SlotSummary& s : run.slots) {
    hash.add(static_cast<std::uint64_t>(s.slot));
    for (double v : {s.start_seconds, s.throughput_rate, s.effective_rate, s.tuples, s.cost,
                     s.cost_rate, s.pause_s, s.latency_s, s.oracle_throughput})
      hash.add(v);
    for (int tasks : s.tasks) hash.add(static_cast<std::uint64_t>(tasks));
    hash.add(static_cast<std::uint64_t>((s.near_optimal ? 1 : 0) | (s.fault_active ? 2 : 0) |
                                        (s.checkpoint_aborted ? 4 : 0)));
    hash.add(static_cast<std::uint64_t>(s.checkpoint_retries));
  }
  for (const auto& [t, rate] : run.series) {
    hash.add(t);
    hash.add(rate);
  }
  hash.add(run.total_tuples);
  hash.add(run.total_cost);
  for (const faults::AppliedFault& fault : run.fault_timeline) {
    hash.add(fault.event.to_string());
    hash.add(static_cast<std::uint64_t>(fault.slot));
  }
  for (const faults::RecoveryStats& stats : run.recoveries) {
    hash.add(stats.slots_to_recover ? static_cast<std::uint64_t>(*stats.slots_to_recover)
                                    : ~std::uint64_t{0});
    hash.add(stats.tuples_lost);
  }
  if (run.supervisor) {
    const resilience::SupervisorStats& s = *run.supervisor;
    for (std::size_t v : {s.snapshots_taken, s.crashes_injected, s.restores, s.cold_restarts,
                          s.replayed_frames, s.safe_mode_slots, s.invariant_trips,
                          s.rule_fallback_slots})
      hash.add(static_cast<std::uint64_t>(v));
  }
  for (const actuation::OperatorStats& s : run.actuation) {
    for (std::size_t v : {s.issued, s.applied, s.rolled_back, s.superseded, s.retried,
                          s.admission_rejects})
      hash.add(static_cast<std::uint64_t>(v));
    hash.add(s.slots_to_running_sum);
  }
}

std::uint64_t checksum(const experiments::RunResult& run) {
  Fnv1a hash;
  add_to(hash, run);
  return hash.value();
}

std::uint64_t checksum(const fleet::FleetResult& result) {
  Fnv1a hash;
  for (const fleet::JobOutcome& job : result.jobs) {
    hash.add(job.name);
    hash.add(std::string_view(fleet::to_string(job.state)));
    hash.add(static_cast<std::uint64_t>(job.slo_misses));
    hash.add(static_cast<std::uint64_t>(job.sheds));
    hash.add(static_cast<std::uint64_t>(job.restores));
    add_to(hash, job.run);
  }
  const auto n = [](auto count) { return static_cast<long long>(count); };
  for (const fleet::FleetSlot& s : result.slots) {
    for (long long v : {n(s.total_pods), n(s.pending_pods), s.granted_pods, n(s.slo_misses),
                        n(s.running_jobs), n(s.queued_jobs), n(s.effective_budget),
                        n(s.parked_jobs), n(s.failed_nodes), n(s.unscheduled_pods)})
      hash.add(static_cast<std::uint64_t>(v));
    hash.add(s.spend_rate);
    hash.add(s.throughput);
  }
  for (const faults::AppliedFleetFault& fault : result.fleet_faults) {
    hash.add(fault.event.to_string());
    hash.add(static_cast<std::uint64_t>(fault.pods_lost));
  }
  for (std::size_t v : {result.admissions, result.rejections, result.evictions, result.sheds,
                        result.restores})
    hash.add(static_cast<std::uint64_t>(v));
  return hash.value();
}

double peak_rss_mb() {
  // VmHWM belongs to this process image.  getrusage's ru_maxrss survives
  // exec, so under a larger parent (the Python runner) it would report the
  // parent's peak instead; it is only the fallback.
  if (std::FILE* status = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof line, status) != nullptr)
      if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtol(line + 6, nullptr, 10);
    std::fclose(status);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

}  // namespace dragbench
