#include "faults/fault_plan.hpp"

#include "common/error.hpp"
#include "faults/spec_grammar.hpp"

namespace dragster::faults {

namespace {

using grammar::TargetRule;
constexpr double kMax = grammar::kNumberLimit;

// One row per FaultKind, in enum order (spec_grammar.hpp has the columns).
// clang-format off
constexpr grammar::KindRule kKinds[] = {
    // name        window  target                  fallback (min, max)  integer typed  print
    {"crash",      false,  TargetRule::kRequired,  1.0,     0.0, kMax,  true,   false, false},
    {"straggler",  true,   TargetRule::kRequired,  0.25,    0.0, 1.0,   false,  false, true},
    {"ckptfail",   false,  TargetRule::kNone,      1.0,     0.0, kMax,  true,   false, true},
    {"dropout",    true,   TargetRule::kRequired,  0.0,     0.0, 0.0,   false,  false, false},
    {"ctrlcrash",  false,  TargetRule::kNone,      0.0,     0.0, 0.0,   false,  false, false},
    {"schedfail",  true,   TargetRule::kNone,      0.0,     0.0, 0.0,   false,  false, false},
    {"scheddelay", true,   TargetRule::kNone,      2.0,     1.0, kMax,  false,  false, true},
};
// clang-format on

constexpr grammar::SpecGrammar<FaultEvent> kGrammar{{"fault", "operator", kKinds}, &FaultEvent::op};

// What sample() draws beyond the per-kind probabilities.
constexpr std::int64_t kMaxWindowSlots = 3;  ///< window durations in [1, max]
constexpr double kStragglerFactor = 0.3;
constexpr double kSchedDelayFactor = 3.0;
constexpr double kCheckpointRetries = 2.0;

}  // namespace

const char* to_string(FaultKind kind) { return kGrammar.name(kind); }

std::string FaultEvent::to_string() const { return kGrammar.format(*this); }

FaultPlan::FaultPlan(std::vector<FaultEvent> events)
    : events_(kGrammar.checked(std::move(events))) {}

FaultPlan FaultPlan::parse(const std::string& spec) { return FaultPlan(kGrammar.parse(spec)); }

FaultPlan FaultPlan::sample(common::Rng& rng, const SampleOptions& options) {
  DRAGSTER_REQUIRE(!options.operators.empty(), "sample() needs candidate operators");
  DRAGSTER_REQUIRE(options.warmup_slots <= options.horizon_slots, "warmup exceeds horizon");

  auto pick_op = [&]() -> const std::string& {
    const auto index = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(options.operators.size()) - 1));
    return options.operators[index];
  };
  auto pick_window = [&]() {
    return static_cast<std::size_t>(rng.uniform_int(1, kMaxWindowSlots));
  };

  std::vector<FaultEvent> events;
  for (std::size_t slot = options.warmup_slots; slot < options.horizon_slots; ++slot) {
    if (rng.bernoulli(options.crash_prob))
      events.push_back({FaultKind::kPodCrash, slot, 1, 0.0, pick_op()});
    if (rng.bernoulli(options.straggler_prob))
      events.push_back({FaultKind::kStraggler, slot, pick_window(), kStragglerFactor, pick_op()});
    if (rng.bernoulli(options.ckptfail_prob))
      events.push_back({FaultKind::kCheckpointFailure, slot, 1, kCheckpointRetries, ""});
    if (rng.bernoulli(options.dropout_prob))
      events.push_back({FaultKind::kMetricDropout, slot, pick_window(), 0.0, pick_op()});
    if (rng.bernoulli(options.ctrlcrash_prob))
      events.push_back({FaultKind::kControllerCrash, slot, 1, 0.0, ""});
    if (rng.bernoulli(options.schedfail_prob))
      events.push_back({FaultKind::kSchedulerOutage, slot, pick_window(), 0.0, ""});
    if (rng.bernoulli(options.scheddelay_prob))
      events.push_back({FaultKind::kSchedulerDelay, slot, pick_window(), kSchedDelayFactor, ""});
  }
  return FaultPlan(std::move(events));
}

std::string FaultPlan::to_string() const { return kGrammar.format(events_); }

}  // namespace dragster::faults
