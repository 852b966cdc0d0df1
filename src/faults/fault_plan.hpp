// Declarative fault timelines for chaos experiments.
//
// The paper evaluates Dragster only under benign cloud noise; real
// Flink-on-Kubernetes deployments additionally see pod crashes, straggler
// tasks, failed checkpoints, and metric outages.  A FaultPlan is an ordered
// list of such events on the controller-slot timeline, parsed from a compact
// spec string so bench/example binaries can take chaos scenarios from flags.
// The spec syntax, its lexing and printing rules and the plan invariants are
// the shared grammar of spec_grammar.hpp; here the ':target' names an
// operator and the kinds are
//
//   crash@20:shuffle_count          one pod of shuffle_count dies at slot 20
//   crash@20*2:shuffle_count        two pods die at once
//   straggler@30+2*0.3:map          one map task runs at 30% rate, 2 slots
//   ckptfail@40*2                   the next checkpoint fails twice (backoff)
//   dropout@48+3:shuffle_count      metrics stale/absent for 3 slots
//   ctrlcrash@25                    the controller process dies at slot 25
//                                   (control plane only; the job keeps running)
//   schedfail@12+6                  admission rejects all new pods for 6 slots
//                                   (API server / quota outage; cluster-wide)
//   scheddelay@20+4*3               pod scheduling latency x3 for 4 slots
//
// schedfail / scheddelay target the actuation layer: they require an
// actuation::ActuationManager to be attached to the injector call.
//
// Plans may also be sampled from the seeded common::Rng (FaultPlan::sample)
// so randomized chaos runs stay reproducible bit-for-bit from one uint64.
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"

namespace dragster::faults {

enum class FaultKind {
  kPodCrash,
  kStraggler,
  kCheckpointFailure,
  kMetricDropout,
  kControllerCrash,   ///< the controller process dies; the data plane is untouched
  kSchedulerOutage,   ///< admission rejects all new pods for the window
  kSchedulerDelay,    ///< pod scheduling latency multiplied for the window
};

[[nodiscard]] const char* to_string(FaultKind kind);

struct FaultEvent {
  FaultKind kind = FaultKind::kPodCrash;
  std::size_t slot = 0;            ///< slot index at which the fault begins
  std::size_t duration_slots = 1;  ///< straggler/dropout window length
  /// Pod crash: pods to kill (>= 1; 0 is normalized to 1).
  /// Straggler: the slowed task's relative rate in (0, 1).
  /// Checkpoint failure: number of failed attempts before success (>= 1).
  /// Scheduler delay: latency multiplier (> 1).
  double value = 0.0;
  std::string op;                  ///< operator name; empty for the job-wide kinds

  [[nodiscard]] std::string to_string() const;
};

class FaultPlan {
 public:
  FaultPlan() = default;
  /// Applies the kind rules parse() applies; throws dragster::Error on an
  /// event whose spec would not parse.
  explicit FaultPlan(std::vector<FaultEvent> events);

  /// Parses a spec; throws dragster::Error (with the offending token quoted)
  /// on malformed events, unknown kinds, non-integer slots/durations, or
  /// out-of-range values.
  [[nodiscard]] static FaultPlan parse(const std::string& spec);

  /// Randomized chaos: each slot in [warmup, horizon) draws each fault kind
  /// independently.  All sampling flows through the provided seeded stream.
  /// Sampled stragglers run at 30% rate, checkpoint failures retry twice,
  /// scheduling delays triple the latency, and straggler, dropout and
  /// scheduler windows last 1-3 slots.
  struct SampleOptions {
    std::size_t horizon_slots = 60;
    std::size_t warmup_slots = 12;        ///< no faults while the GP warms up
    double crash_prob = 0.03;             ///< per slot, per kind
    double straggler_prob = 0.02;
    double ckptfail_prob = 0.02;
    double dropout_prob = 0.02;
    double ctrlcrash_prob = 0.0;          ///< off unless the run is supervised
    double schedfail_prob = 0.0;          ///< off unless the run has actuation
    double scheddelay_prob = 0.0;
    std::vector<std::string> operators;   ///< candidate target names (non-empty)
  };
  [[nodiscard]] static FaultPlan sample(common::Rng& rng, const SampleOptions& options);

  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept { return events_; }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

  /// Round-trips through parse(): to_string() output is a valid spec.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<FaultEvent> events_;  ///< sorted by slot (stable)
};

}  // namespace dragster::faults
