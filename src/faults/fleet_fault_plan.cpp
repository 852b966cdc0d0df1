#include "faults/fleet_fault_plan.hpp"

#include "common/error.hpp"
#include "faults/spec_grammar.hpp"

namespace dragster::faults {

namespace {

using grammar::TargetRule;
constexpr double kMax = grammar::kNumberLimit;

// One row per FleetFaultKind, in enum order (spec_grammar.hpp has the
// columns).  netdelay scales whole slots, so its multiplier is an integer >= 2.
// clang-format off
constexpr grammar::KindRule kKinds[] = {
    // name       window  target                  fallback (min, max)  integer typed  print
    {"nodecrash", false,  TargetRule::kNone,      1.0,     0.0, kMax,  true,   false, false},
    {"nodedrain", true,   TargetRule::kNone,      1.0,     0.0, kMax,  true,   false, false},
    {"budgetcut", true,   TargetRule::kNone,      0.0,     0.0, 1.0,   false,  true,  true},
    {"jobcrash",  false,  TargetRule::kRequired,  0.0,     0.0, 0.0,   false,  false, false},
    {"netpart",   true,   TargetRule::kOptional,  0.0,     0.0, 0.0,   false,  false, false},
    {"netdrop",   true,   TargetRule::kOptional,  0.0,     0.0, 1.0,   false,  true,  true},
    {"netdelay",  true,   TargetRule::kOptional,  0.0,     1.0, kMax,  true,   true,  true},
};
// clang-format on

constexpr grammar::SpecGrammar<FleetFaultEvent> kGrammar{{"fleet fault", "job", kKinds},
                                                         &FleetFaultEvent::job};

}  // namespace

const char* to_string(FleetFaultKind kind) { return kGrammar.name(kind); }

std::string FleetFaultEvent::to_string() const { return kGrammar.format(*this); }

FleetFaultPlan::FleetFaultPlan(std::vector<FleetFaultEvent> events)
    : events_(kGrammar.checked(std::move(events))) {}

FleetFaultPlan FleetFaultPlan::parse(const std::string& spec) {
  return FleetFaultPlan(kGrammar.parse(spec));
}

FleetFaultPlan FleetFaultPlan::sample(common::Rng& rng, const SampleOptions& options) {
  DRAGSTER_REQUIRE(options.warmup_slots <= options.horizon_slots, "warmup exceeds horizon");
  DRAGSTER_REQUIRE(options.max_window_slots >= 1, "window must be at least one slot");
  DRAGSTER_REQUIRE(options.cut_fraction > 0.0 && options.cut_fraction < 1.0,
                   "cut fraction must be in (0, 1)");
  DRAGSTER_REQUIRE(options.jobcrash_prob <= 0.0 || !options.jobs.empty(),
                   "jobcrash sampling needs candidate job names");

  auto pick_window = [&]() {
    return static_cast<std::size_t>(
        rng.uniform_int(1, static_cast<std::int64_t>(options.max_window_slots)));
  };

  std::vector<FleetFaultEvent> events;
  std::size_t crashed = 0;
  for (std::size_t slot = options.warmup_slots; slot < options.horizon_slots; ++slot) {
    if (crashed < options.max_crash_nodes && rng.bernoulli(options.nodecrash_prob)) {
      events.push_back({FleetFaultKind::kNodeCrash, slot, 1, 1.0, ""});
      ++crashed;
    }
    if (rng.bernoulli(options.nodedrain_prob))
      events.push_back({FleetFaultKind::kNodeDrain, slot, pick_window(), 1.0, ""});
    if (rng.bernoulli(options.budgetcut_prob))
      events.push_back(
          {FleetFaultKind::kBudgetCut, slot, pick_window(), options.cut_fraction, ""});
    if (rng.bernoulli(options.jobcrash_prob)) {
      const auto index = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(options.jobs.size()) - 1));
      events.push_back({FleetFaultKind::kJobCrash, slot, 1, 0.0, options.jobs[index]});
    }
    // The net draws are gated on the probability so plans sampled with the
    // pre-transport defaults consume exactly the pre-transport draw sequence
    // (bit-identical sampled chaos for existing seeds).
    if (options.netpart_prob > 0.0 && rng.bernoulli(options.netpart_prob))
      events.push_back({FleetFaultKind::kNetPartition, slot, pick_window(), 0.0, ""});
    if (options.netdrop_prob > 0.0 && rng.bernoulli(options.netdrop_prob))
      events.push_back({FleetFaultKind::kNetDrop, slot, pick_window(), options.drop_fraction, ""});
    if (options.netdelay_prob > 0.0 && rng.bernoulli(options.netdelay_prob))
      events.push_back(
          {FleetFaultKind::kNetDelay, slot, pick_window(), options.delay_multiplier, ""});
  }
  return FleetFaultPlan(std::move(events));
}

bool FleetFaultPlan::touches_nodes() const noexcept {
  for (const FleetFaultEvent& event : events_)
    if (event.kind == FleetFaultKind::kNodeCrash || event.kind == FleetFaultKind::kNodeDrain)
      return true;
  return false;
}

std::string FleetFaultPlan::to_string() const { return kGrammar.format(events_); }

}  // namespace dragster::faults
