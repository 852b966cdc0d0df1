// The one spec grammar behind FaultPlan (fault_plan.hpp) and FleetFaultPlan
// (fleet_fault_plan.hpp).  Each plan brings a table with one KindRule row per
// fault kind; everything else lives here, once:
//
//   spec   := event (';' event)*       empty pieces between ';' are skipped
//   event  := kind '@' slot ['+' duration] ['*' value] [':' target]
//   number := digits with at most one '.'   e.g. 3  0.25  2.  .5
//
// Lexer.  A number has no sign and no exponent and must be below
// kNumberLimit; slots and durations must be whole.  '+' and '*' may come in
// either order, each at most once; ':' takes the rest of the event as the
// target, so a target never contains ';'.
//
// Modifiers.  A typed modifier the kind would ignore does not parse: '+' on
// an instantaneous kind, '*' on a kind without a value, ':' on a kind without
// a target, an empty ':' target, and an explicit '*0'.  Without '*' the
// value is the row's fallback, unless the row says it must be typed.
//
// Rows.  The plan constructors apply every row rule the parser relies on
// (window, target, value range and integrality, the lexer's limits), so a
// plan built from events always prints a spec that parses back to the same
// events.  to_string() prints each value as the shortest fixed-notation
// decimal that reads back to the same double.  Zero is the constructors'
// value-absent sentinel: a kind that elides its fallback when printing
// takes 0 to mean the fallback.
//
// Plans.  Events are stable-sorted by slot, and a repeated
// (kind, slot, target) is rejected: the injector would fire it twice.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace dragster::faults::grammar {

/// Every number in a spec (slot, duration, value) is below this.
inline constexpr double kNumberLimit = 1e9;

enum class TargetRule { kNone, kRequired, kOptional };

/// One fault kind.  Its value lies in the open interval (min, max); a kind
/// with min == max takes no value and keeps 0.
struct KindRule {
  const char* name;
  bool windowed;        ///< takes '+duration'; otherwise the window is one slot
  TargetRule target;
  double fallback;      ///< the value when '*value' is absent
  double min;
  double max;
  bool integer;         ///< the value must be a whole number
  bool typed;           ///< '*value' must be given; there is no fallback
  bool print_fallback;  ///< print '*value' even when it equals the fallback
};

/// A grammar: the nouns its messages use and its kind table, indexed by the
/// plan's kind enum.
struct Rules {
  const char* noun;    ///< "fault" or "fleet fault"
  const char* target;  ///< what ':target' names: "operator" or "job"
  std::span<const KindRule> kinds;
};

/// The fields every fault event has, with the kind as a row index.
struct EventFields {
  std::size_t kind = 0;
  std::size_t slot = 0;
  std::size_t duration_slots = 1;
  double value = 0.0;
  std::string target;
};

/// The row's name, or "unknown" when `kind` is past the table.
[[nodiscard]] const char* kind_name(const Rules& rules, std::size_t kind);
/// Lexes `spec` and applies the modifier rules; throws dragster::Error
/// quoting the offending token.
[[nodiscard]] std::vector<EventFields> parse_spec(const Rules& rules, const std::string& spec);
/// Applies the row rules; returns the value with a value-absent 0 replaced.
[[nodiscard]] double check_event(const Rules& rules, const EventFields& event);
[[nodiscard]] std::string format_event(const Rules& rules, const EventFields& event);

/// Binds the grammar to one public event type: an aggregate whose first
/// members are {kind, slot, duration_slots, value}, with `kind` an enum
/// indexing `rules.kinds`, plus the string member `target` names.
template <typename Event>
struct SpecGrammar {
  using Kind = decltype(Event::kind);

  Rules rules;
  std::string Event::*target;

  [[nodiscard]] const char* name(Kind kind) const {
    return kind_name(rules, static_cast<std::size_t>(kind));
  }

  [[nodiscard]] std::string format(const Event& event) const {
    return format_event(rules, fields(event));
  }

  [[nodiscard]] std::string format(const std::vector<Event>& events) const {
    std::string out;
    for (const Event& event : events) {
      if (!out.empty()) out += ';';
      out += format(event);
    }
    return out;
  }

  /// The events of `spec`, in spec order; checked() applies the row rules.
  [[nodiscard]] std::vector<Event> parse(const std::string& spec) const {
    std::vector<Event> events;
    for (EventFields& parsed : parse_spec(rules, spec)) {
      Event event;
      event.kind = static_cast<Kind>(parsed.kind);
      event.slot = parsed.slot;
      event.duration_slots = parsed.duration_slots;
      event.value = parsed.value;
      event.*target = std::move(parsed.target);
      events.push_back(std::move(event));
    }
    return events;
  }

  /// Applies the row rules to every event, then the plan invariants.
  [[nodiscard]] std::vector<Event> checked(std::vector<Event> events) const {
    for (Event& event : events) event.value = check_event(rules, fields(event));
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) { return a.slot < b.slot; });
    for (std::size_t i = 0; i < events.size(); ++i) {
      for (std::size_t j = i + 1; j < events.size() && events[j].slot == events[i].slot; ++j) {
        const bool same =
            events[j].kind == events[i].kind && events[j].*target == events[i].*target;
        DRAGSTER_REQUIRE(!same, std::string("duplicate ") + rules.noun + " event '" +
                                    format(events[i]) + "'");
      }
    }
    return events;
  }

 private:
  [[nodiscard]] EventFields fields(const Event& event) const {
    return {static_cast<std::size_t>(event.kind), event.slot, event.duration_slots, event.value,
            event.*target};
  }
};

}  // namespace dragster::faults::grammar
