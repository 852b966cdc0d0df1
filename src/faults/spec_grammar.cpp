#include "faults/spec_grammar.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

namespace dragster::faults::grammar {

namespace {

// Formatting an unchecked event must not index past the table.
constexpr KindRule kUnknown{"unknown", true, TargetRule::kOptional, 0, 0, 0, false, false, true};

const KindRule& rule_of(const Rules& rules, std::size_t kind) {
  return kind < rules.kinds.size() ? rules.kinds[kind] : kUnknown;
}

std::string in_event(const Rules& rules, const std::string& text) {
  return std::string(" in ") + rules.noun + " event '" + text + "'";
}

/// Reads the number token at `pos` and advances past it.  The token is the
/// longest run of digits and dots; it must be one plain decimal below
/// kNumberLimit.
double parse_number(const Rules& rules, const std::string& text, std::size_t& pos) {
  const std::size_t start = pos;
  while (pos < text.size() && (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
                               text[pos] == '.'))
    ++pos;
  const std::string token = text.substr(start, pos - start);
  DRAGSTER_REQUIRE(!token.empty(), "expected a number" + in_event(rules, text));
  double value = 0.0;
  const char* end = token.data() + token.size();
  const auto [stop, error] = std::from_chars(token.data(), end, value, std::chars_format::fixed);
  DRAGSTER_REQUIRE(stop == end && error != std::errc::invalid_argument,
                   "bad number '" + token + "'" + in_event(rules, text));
  DRAGSTER_REQUIRE(error == std::errc() && value < kNumberLimit,
                   "number '" + token + "' out of range" + in_event(rules, text));
  return value;
}

/// Slots and durations must be whole: "crash@5.5" truncating silently would
/// misfire the event.
std::size_t parse_index(const Rules& rules, const std::string& text, std::size_t& pos,
                        const char* what) {
  const std::size_t start = pos;
  const double value = parse_number(rules, text, pos);
  DRAGSTER_REQUIRE(value == std::floor(value), std::string(what) + " '" +
                                                   text.substr(start, pos - start) +
                                                   "' must be an integer" + in_event(rules, text));
  return static_cast<std::size_t>(value);
}

std::size_t parse_kind(const Rules& rules, const std::string& word) {
  for (std::size_t kind = 0; kind < rules.kinds.size(); ++kind)
    if (word == rules.kinds[kind].name) return kind;
  DRAGSTER_REQUIRE(false, std::string("unknown ") + rules.noun + " kind '" + word + "'");
  return 0;  // unreachable: the REQUIRE above throws
}

/// Lexes one event: the kind, '@' and the slot, then the modifier walk.
EventFields parse_event(const Rules& rules, const std::string& text) {
  const std::size_t at = text.find('@');
  DRAGSTER_REQUIRE(at != std::string::npos,
                   std::string(rules.noun) + " event '" + text + "' is missing '@slot'");
  EventFields event;
  event.kind = parse_kind(rules, text.substr(0, at));
  const KindRule& rule = rules.kinds[event.kind];
  std::size_t pos = at + 1;
  event.slot = parse_index(rules, text, pos, "slot");
  bool saw_duration = false;
  bool saw_value = false;
  while (pos < text.size()) {
    const char tag = text[pos++];
    if (tag == '+') {
      DRAGSTER_REQUIRE(!saw_duration, "repeated '+duration'" + in_event(rules, text));
      DRAGSTER_REQUIRE(rule.windowed, std::string(rule.name) +
                                          " is instantaneous and takes no '+duration'" +
                                          in_event(rules, text));
      saw_duration = true;
      event.duration_slots = parse_index(rules, text, pos, "duration");
    } else if (tag == '*') {
      DRAGSTER_REQUIRE(!saw_value, "repeated '*value'" + in_event(rules, text));
      saw_value = true;
      event.value = parse_number(rules, text, pos);
      // Zero is the constructors' value-absent sentinel, so a typed '*0'
      // would silently turn into the fallback.
      // draglint:allow(DL004 rejecting the literal spec token '*0': exact comparison intended)
      DRAGSTER_REQUIRE(event.value != 0.0, "explicit '*0'" + in_event(rules, text));
    } else if (tag == ':') {
      event.target = text.substr(pos);
      pos = text.size();
      DRAGSTER_REQUIRE(!event.target.empty(),
                       std::string("empty ") + rules.target + " name" + in_event(rules, text));
    } else {
      DRAGSTER_REQUIRE(false, std::string("unexpected '") + tag + "'" + in_event(rules, text));
    }
  }
  DRAGSTER_REQUIRE(saw_value || !rule.typed,
                   std::string(rule.name) + " needs an explicit '*value'" + in_event(rules, text));
  if (!saw_value) event.value = rule.fallback;
  return event;
}

/// The shortest fixed-notation decimal that reads back to `value`: %g would
/// print "1e-05", which the lexer rejects, and cut digits the value needs.
std::string number_text(double value) {
  // Fixed notation of any double fits: at most 309 integer digits, or "0."
  // and 324 fraction digits, plus a sign.
  char buffer[400];
  const auto printed =
      std::to_chars(buffer, buffer + sizeof buffer, value, std::chars_format::fixed);
  return std::string(buffer, printed.ptr);
}

}  // namespace

const char* kind_name(const Rules& rules, std::size_t kind) { return rule_of(rules, kind).name; }

std::vector<EventFields> parse_spec(const Rules& rules, const std::string& spec) {
  std::vector<EventFields> events;
  std::size_t start = 0;
  while (start <= spec.size()) {
    std::size_t end = spec.find(';', start);
    if (end == std::string::npos) end = spec.size();
    if (end > start) events.push_back(parse_event(rules, spec.substr(start, end - start)));
    start = end + 1;
  }
  return events;
}

double check_event(const Rules& rules, const EventFields& event) {
  DRAGSTER_REQUIRE(event.kind < rules.kinds.size(),
                   std::string(rules.noun) + " kind #" + std::to_string(event.kind) +
                       " is not in the grammar");
  const KindRule& rule = rules.kinds[event.kind];
  // draglint:allow(DL004 0.0 is the exact value-absent sentinel, never a computed result)
  const double value = !rule.print_fallback && event.value == 0.0 ? rule.fallback : event.value;
  const auto fail = [&](const std::string& problem) {
    return std::string(rules.noun) + " event '" + format_event(rules, event) + "': " + rule.name +
           " " + problem;
  };
  DRAGSTER_REQUIRE(static_cast<double>(event.slot) < kNumberLimit, fail("slot out of range"));
  DRAGSTER_REQUIRE(event.duration_slots >= 1 &&
                       static_cast<double>(event.duration_slots) < kNumberLimit,
                   fail("duration must be in [1, 1e9)"));
  DRAGSTER_REQUIRE(rule.windowed || event.duration_slots == 1,
                   fail("is instantaneous and takes no '+duration'"));
  if (rule.min == rule.max) {
    // draglint:allow(DL004 a kind without a value keeps the exact sentinel 0)
    DRAGSTER_REQUIRE(value == 0.0, fail("takes no '*value'"));
  } else {
    DRAGSTER_REQUIRE(value > rule.min && value < rule.max,
                     fail("value must be in (" + number_text(rule.min) + ", " +
                          number_text(rule.max) + ")"));
    DRAGSTER_REQUIRE(!rule.integer || value == std::floor(value), fail("value must be an integer"));
  }
  DRAGSTER_REQUIRE(rule.target != TargetRule::kNone || event.target.empty(),
                   fail(std::string("takes no ':") + rules.target + "' target"));
  DRAGSTER_REQUIRE(rule.target != TargetRule::kRequired || !event.target.empty(),
                   fail(std::string("needs a ':") + rules.target + "' target"));
  DRAGSTER_REQUIRE(event.target.find(';') == std::string::npos,
                   fail(std::string("has a ") + rules.target + " name containing ';'"));
  return value;
}

std::string format_event(const Rules& rules, const EventFields& event) {
  const KindRule& rule = rule_of(rules, event.kind);
  std::string out = std::string(rule.name) + '@' + std::to_string(event.slot);
  if (event.duration_slots != 1) out += '+' + std::to_string(event.duration_slots);
  if (rule.print_fallback || event.value != rule.fallback) out += '*' + number_text(event.value);
  if (!event.target.empty()) out += ':' + event.target;
  return out;
}

}  // namespace dragster::faults::grammar
