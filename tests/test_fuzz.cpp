// Seeded mutation fuzzing of the two fault-spec grammars.
//
// The toolchain has no libFuzzer, so the mutator lives here.  It starts from
// the specs test_faults.cpp accepts and applies byte flips, truncations and
// splices of grammar tokens under a fixed seed and a fixed budget, so every
// run feeds the same inputs.  A second generator hands random events straight
// to the plan constructors.  The oracle is the round-trip promise of
// faults/spec_grammar.hpp: each input either throws dragster::Error, or yields
// a plan P such that parse(P.to_string()) has bit-identical events and prints
// the same bytes.  Any other exception fails the test.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <exception>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "faults/fault_plan.hpp"
#include "faults/fleet_fault_plan.hpp"

namespace dragster::faults {
namespace {

constexpr int kInputsPerGrammar = 20000;

const std::vector<std::string> kFaultSpecs = {
    "crash@20*2:shuffle;straggler@28+2*0.3:map;ckptfail@36*2;dropout@44+3:shuffle",
    "crash@5:map;straggler@8+2*0.25:map;crash@12*3:shuffle;ckptfail@15*2;dropout@20+4:map",
    "dropout@30+2:map;crash@10:map;ckptfail@20",
    "crash@3:w;ckptfail@3*2",
    "dropout@3+1:w;dropout@3+1:v",
    "crash@3:w;",
    ";;",
    "ctrlcrash@25",
    "schedfail@10+3;scheddelay@20+4*3",
    "scheddelay@5",
    "straggler@1+100*0.5:worker",
    "straggler@3*0.33333333:w",
    "dropout@3+2:worker;crash@7:worker;straggler@9+2*0.5:worker",
};

const std::vector<std::string> kFleetSpecs = {
    "budgetcut@9+4*0.3;nodecrash@5*2;nodedrain@3+2;jobcrash@7:job-1",
    "netdelay@20+4*3;netpart@9+3;netdrop@14+6*0.4;netpart@9+3:job-2",
    "netpart@4+2;netpart@4+2:job-1",
    "budgetcut@2+1*0.5",
    "budgetcut@3+2*0.33333333",
    "nodecrash@4",
    "nodecrash@8*3;budgetcut@16+4*0.72;netdrop@24+10*0.8",
};

// clang-format off
/// Tokens the splices draw from: every kind name, the punctuation, and
/// numbers at and around the lexer's edges.
const std::vector<std::string> kTokens = {
    "crash", "straggler", "ckptfail", "dropout", "ctrlcrash", "schedfail", "scheddelay",
    "nodecrash", "nodedrain", "budgetcut", "jobcrash", "netpart", "netdrop", "netdelay",
    "@", "+", "*", ":", ";", ".", "0", "1", "2", "5", "9", "00", "0.5", "1.", ".5",
    "0.30000000000000004", "999999999", "1000000000", "999999999.9999999", "1e5", "-",
    "w", "job-1", " "};

/// Field values the event generator redraws from, edges first.
const std::vector<double> kValueEdges = {
    0.0, -0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 1e-5, 0.1 + 0.2, 1e6, 999999999.0,
    999999999.9999999, 1e9, 1e12, -1.0, 5e-324, std::numeric_limits<double>::infinity(),
    std::numeric_limits<double>::quiet_NaN()};
const std::vector<std::size_t> kIndexEdges = {
    0, 1, 2, 999999999, 1000000000, std::numeric_limits<std::size_t>::max()};
const std::vector<std::string> kTargets = {"", "w", "map", "job-1", "a;b", "x:y", "@3", " "};
// clang-format on

template <typename T>
T pick(common::Rng& rng, const std::vector<T>& from) {
  return from[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
}

std::size_t position(common::Rng& rng, const std::string& text) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(text.size())));
}

/// One to four stacked mutations of `text`.
std::string mutate(common::Rng& rng, std::string text, const std::vector<std::string>& specs) {
  const std::int64_t steps = rng.uniform_int(1, 4);
  for (std::int64_t step = 0; step < steps; ++step) {
    switch (rng.uniform_int(0, 4)) {
      case 0:  // flip one bit
        if (!text.empty()) {
          const std::size_t at = position(rng, text) % text.size();
          text[at] = static_cast<char>(text[at] ^ (1 << rng.uniform_int(0, 7)));
        }
        break;
      case 1:  // truncate
        text.resize(position(rng, text));
        break;
      case 2:  // insert a token
        text.insert(position(rng, text), pick(rng, kTokens));
        break;
      case 3: {  // overwrite a short range with a token
        const std::size_t at = position(rng, text);
        text.replace(at, static_cast<std::size_t>(rng.uniform_int(0, 3)), pick(rng, kTokens));
        break;
      }
      default: {  // cross over with another accepted spec
        const std::string other = pick(rng, specs);
        text = text.substr(0, position(rng, text)) + other.substr(position(rng, other));
        break;
      }
    }
  }
  return text;
}

const std::string& target(const FaultEvent& event) { return event.op; }
const std::string& target(const FleetFaultEvent& event) { return event.job; }

template <typename Event>
bool same_events(const std::vector<Event>& a, const std::vector<Event>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].slot != b[i].slot ||
        a[i].duration_slots != b[i].duration_slots ||
        std::bit_cast<std::uint64_t>(a[i].value) != std::bit_cast<std::uint64_t>(b[i].value) ||
        target(a[i]) != target(b[i]))
      return false;
  }
  return true;
}

/// Empty when `make` throws dragster::Error or yields a plan that survives
/// the round trip; otherwise what went wrong.
template <typename Plan, typename Make>
std::string violation(Make make, bool& accepted) {
  accepted = false;
  std::optional<Plan> plan;
  try {
    plan.emplace(make());
  } catch (const Error&) {
    return {};
  } catch (const std::exception& error) {
    return std::string("foreign exception: ") + error.what();
  }
  accepted = true;
  const std::string printed = plan->to_string();
  try {
    const Plan again = Plan::parse(printed);
    if (again.to_string() != printed) return "reprints as '" + again.to_string() + "'";
    if (!same_events(plan->events(), again.events()))
      return "'" + printed + "' parses back to different events";
  } catch (const std::exception& error) {
    return "'" + printed + "' does not parse: " + error.what();
  }
  return {};
}

/// Runs `next` (which returns an input's description and a plan maker) for
/// the budget and reports the first few violations.
template <typename Plan, typename Next>
void fuzz(Next next) {
  int accepted = 0;
  int failures = 0;
  std::string report;
  for (int i = 0; i < kInputsPerGrammar; ++i) {
    auto [input, make] = next();
    bool ok = false;
    const std::string problem = violation<Plan>(make, ok);
    accepted += ok ? 1 : 0;
    if (!problem.empty() && failures++ < 5) report += "\n  " + input + ": " + problem;
  }
  EXPECT_EQ(failures, 0) << report;
  // Both sides of the oracle must be exercised.
  EXPECT_GT(accepted, kInputsPerGrammar / 20);
  EXPECT_LT(accepted, kInputsPerGrammar - kInputsPerGrammar / 20);
}

template <typename Plan>
void fuzz_specs(std::uint64_t seed, const std::vector<std::string>& specs) {
  common::Rng rng(seed);
  fuzz<Plan>([&] {
    const std::string input = mutate(rng, pick(rng, specs), specs);
    return std::pair("spec '" + input + "'", [input] { return Plan::parse(input); });
  });
}

double random_value(common::Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0: return pick(rng, kValueEdges);
    case 1: return rng.uniform();
    case 2: return static_cast<double>(rng.uniform_int(0, 4));
    default: return rng.uniform(0.0, 8.0);
  }
}

std::size_t random_index(common::Rng& rng) {
  if (rng.bernoulli(0.1)) return pick(rng, kIndexEdges);
  return static_cast<std::size_t>(rng.uniform_int(0, 6));
}

/// Plans of one to three events, each an event of an accepted spec with
/// some fields redrawn.  Kinds run one past the 7-row tables, so an enum
/// value outside the grammar is tried too.
template <typename Plan, typename Event>
void fuzz_events(std::uint64_t seed, const std::vector<std::string>& specs,
                 std::string Event::*target_member) {
  std::vector<Event> pool;
  for (const std::string& spec : specs) {
    const Plan plan = Plan::parse(spec);
    pool.insert(pool.end(), plan.events().begin(), plan.events().end());
  }
  common::Rng rng(seed);
  fuzz<Plan>([&] {
    std::vector<Event> events(static_cast<std::size_t>(rng.uniform_int(1, 3)));
    std::string input = "events";
    for (Event& event : events) {
      event = pick(rng, pool);
      if (rng.bernoulli(0.3)) event.kind = static_cast<decltype(event.kind)>(rng.uniform_int(0, 7));
      if (rng.bernoulli(0.3)) event.slot = random_index(rng);
      if (rng.bernoulli(0.3)) event.duration_slots = random_index(rng);
      if (rng.bernoulli(0.3)) event.value = random_value(rng);
      if (rng.bernoulli(0.3)) event.*target_member = pick(rng, kTargets);
      input += " {" + std::to_string(static_cast<int>(event.kind)) + ", " +
               std::to_string(event.slot) + ", " + std::to_string(event.duration_slots) + ", " +
               std::to_string(event.value) + ", '" + target(event) + "'}";
    }
    return std::pair(input, [events] { return Plan(events); });
  });
}

TEST(Fuzz, FaultSpecsRoundTripOrThrowError) { fuzz_specs<FaultPlan>(0xFA017, kFaultSpecs); }

TEST(Fuzz, FleetFaultSpecsRoundTripOrThrowError) {
  fuzz_specs<FleetFaultPlan>(0xF1EE7, kFleetSpecs);
}

TEST(Fuzz, FaultEventsRoundTripOrThrowError) {
  fuzz_events<FaultPlan>(0xE7E1, kFaultSpecs, &FaultEvent::op);
}

TEST(Fuzz, FleetFaultEventsRoundTripOrThrowError) {
  fuzz_events<FleetFaultPlan>(0xE7E2, kFleetSpecs, &FleetFaultEvent::job);
}

}  // namespace
}  // namespace dragster::faults
