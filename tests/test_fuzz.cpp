// Seeded mutation fuzzing of the two fault-spec grammars, of a saved GP
// snapshot section and of a whole controller snapshot.
//
// The toolchain has no libFuzzer, so the mutator lives here.  It starts from
// the specs test_faults.cpp accepts and applies byte flips, truncations and
// splices of grammar tokens under a fixed seed and a fixed budget, so every
// run feeds the same inputs.  A second generator hands random events straight
// to the plan constructors.  The oracle is the round-trip promise of
// faults/spec_grammar.hpp: each input either throws dragster::Error, or yields
// a plan P such that parse(P.to_string()) has bit-identical events and prints
// the same bytes.  Any other exception fails the test.
//
// The GP surface mutates the body of a saved GP section, recomputes the
// checksum so every mutation reaches GaussianProcess::load_state, and holds
// the restore to the same kind of promise: throw dragster::Error, or restore
// exactly the table the section holds, bit for bit, into a GP whose
// save_state bytes restore to the same bytes again.
//
// The controller surface mutates a whole DragsterController snapshot (a
// learn_throughput controller's, so it has every section) the same way.  A
// rejected document must throw dragster::Error and leave the controller's
// save_state bytes as they were; an accepted one must re-save to a document
// that restores to the same bytes.  The ActuationManager surface holds a
// managed job's snapshot to the same promise, with the pending-pod ledger the
// manager publishes to the engine counted as part of its state, and the
// TransportHarness surface a lossy control plane's, with the breaker state it
// serves counted too.
//
// common::Flags is fuzzed against a reference parse written here: random argv
// over flag names, `=`, bare `--`, empty words, edge numbers and bool
// spellings either parses to getter values equal to the reference's or
// throws dragster::Error naming the offending word or flag.
//
// obs::format_double is fuzzed differentially: its to_chars / from_chars form
// must print the bytes of the snprintf / strtod loop it replaced, kept below
// as the reference, for random bit patterns, subnormals, signed zeros, the
// extremes and values one ulp around every power of ten.
#include <gtest/gtest.h>

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "actuation/actuation.hpp"
#include "common/error.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "core/dragster_controller.hpp"
#include "faults/fault_plan.hpp"
#include "faults/fleet_fault_plan.hpp"
#include "gp/gaussian_process.hpp"
#include "gp/kernel.hpp"
#include "obs/trace.hpp"
#include "resilience/snapshot.hpp"
#include "streamsim/engine.hpp"
#include "transport/transport.hpp"
#include "workloads/workloads.hpp"

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

/// One to four stacked mutations of `text`: bit flips, truncations, token
/// insertions and overwrites from `tokens`, and crossovers with `specs`.
std::string mutate(common::Rng& rng, std::string text, const std::vector<std::string>& specs,
                   const std::vector<std::string>& tokens = kTokens) {
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
        text.insert(position(rng, text), pick(rng, tokens));
        break;
      case 3: {  // overwrite a short range with a token
        const std::size_t at = position(rng, text);
        text.replace(at, static_cast<std::size_t>(rng.uniform_int(0, 3)), pick(rng, tokens));
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

// ---------------------------------------------------------------------------
// GP snapshot sections.
// ---------------------------------------------------------------------------

constexpr int kGpSectionInputs = 20000;

// clang-format off
/// Splice tokens for the byte-level mutator: the section's keys and tags,
/// and numbers at the edges of what the table accepts.
const std::vector<std::string> kGpTokens = {
    "gp_dim", "gp_inputs", "gp_counts", "gp_sums", "gp_noise", "gp_prior_mean", "[gp]", "\n",
    " ", " u ", " f ", " fv ", " iv ", "0", "1", "2", "3", "-1", "0x0p+0", "-0x0p+0", "0x1p+0",
    "0x1.8p+1", "0x1p-1", "nan", "inf", "-inf", "1e308", "0x1p+1023", "2147483647",
    "-2147483648", "99999999999", "18446744073709551615"};

/// Edge values mutate_fields() writes over a GP table entry.
const std::vector<std::string> kGpEdgeValues = {
    "0", "-1", "0x0p+0", "-0x0p+0", "nan", "-nan", "inf", "-inf", "0x1p+1023", "0x1p-1074",
    "2147483647", "1"};

/// The messages of load_state's table checks; the fuzz must reach each.
const std::vector<std::string> kGpRejections = {
    "table sizes disagree", "count must be positive", "sum must be finite",
    "input must be finite", "repeats an input row"};
// clang-format on

gp::GaussianProcess make_section_gp() {
  return gp::GaussianProcess(gp::SquaredExponentialKernel(2.25, std::vector<double>{2.5, 0.75}),
                             0.0064, 1.0);
}

std::string saved_gp_doc(const gp::GaussianProcess& model) {
  resilience::SnapshotWriter writer;
  writer.begin_section("gp");
  model.save_state(writer);
  return writer.str();
}

/// A saved section over (tasks, cpu) without its checksum line: five
/// inputs, three of them sampled more than once.
std::string saved_gp_body() {
  gp::GaussianProcess model = make_section_gp();
  const double samples[][3] = {{2, 1, 0.9},    {3, 1, 1.1}, {2, 1, 0.95}, {4, 0.5, 1.3},
                               {3, 1, 1.05},   {2, 2, 1.4}, {6, 1, 1.7},  {4, 0.5, 1.25}};
  for (const auto& sample : samples) model.add_observation({sample[0], sample[1]}, sample[2]);
  const std::string doc = saved_gp_doc(model);
  return doc.substr(0, doc.find("!checksum "));
}

/// `body` with a matching checksum line, so the mutation reaches load_state.
std::string with_checksum(std::string body) {
  if (!body.empty() && body.back() != '\n') body += '\n';
  return body + "!checksum " + std::to_string(resilience::fnv1a64(body)) + "\n";
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts(1);
  for (char c : text) {
    if (c == sep)
      parts.emplace_back();
    else
      parts.back() += c;
  }
  return parts;
}

std::string join(const std::vector<std::string>& parts, char sep) {
  std::string text;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) text += sep;
    text += parts[i];
  }
  return text;
}

bool is_table_line(const std::string& line) {
  return line.rfind("gp_inputs ", 0) == 0 || line.rfind("gp_counts ", 0) == 0 ||
         line.rfind("gp_sums ", 0) == 0;
}

/// The values of a field line: after `key tag` for a scalar, after `key tag
/// count` for a vector (tag fv or iv).
std::size_t first_value(const std::vector<std::string>& words) {
  return words[1] == "fv" || words[1] == "iv" ? 3 : 2;
}

/// One or two value-level edits of the field lines `is_field` selects: a
/// value overwritten by another entry of the document (which makes repeated
/// GP rows) or by one of `edge_values`, or a vector shortened or lengthened
/// by one with its count prefix kept consistent (which makes size
/// mismatches).
template <typename IsField>
std::string mutate_fields(common::Rng& rng, const std::string& body,
                          const std::vector<std::string>& entries,
                          const std::vector<std::string>& edge_values, IsField is_field) {
  std::vector<std::string> lines = split(body, '\n');
  std::vector<std::size_t> fields;
  for (std::size_t i = 0; i < lines.size(); ++i)
    if (is_field(lines[i])) fields.push_back(i);
  const std::int64_t edits = rng.uniform_int(1, 2);
  for (std::int64_t edit = 0; edit < edits; ++edit) {
    std::string& line = lines[pick(rng, fields)];
    std::vector<std::string> words = split(line, ' ');
    const std::size_t first = first_value(words);
    const std::size_t values = words.size() - first;
    const std::int64_t kind = rng.uniform_int(0, 3);
    switch (first == 3 ? kind : 0) {  // a scalar is only overwritten
      case 0:
      case 1:
        if (values > 0)
          words[first + static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(values) - 1))] =
              rng.bernoulli(0.7) ? pick(rng, entries) : pick(rng, edge_values);
        break;
      case 2:
        if (values > 0) {
          words.pop_back();
          words[2] = std::to_string(values - 1);
        }
        break;
      default:
        words.push_back(words.back());
        words[2] = std::to_string(values + 1);
        break;
    }
    line = join(words, ' ');
  }
  return join(lines, '\n');
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i])) return false;
  return true;
}

/// Empty when `doc` throws dragster::Error (whose message lands in `error`)
/// or restores exactly the table its section holds into a GP whose
/// save_state bytes restore to the same bytes; otherwise what went wrong.
std::string gp_violation(const std::string& doc, bool& accepted, std::string& error) {
  accepted = false;
  std::optional<resilience::SnapshotReader> reader;
  gp::GaussianProcess restored = make_section_gp();
  try {
    reader.emplace(doc);
    reader->enter_section("gp");
    restored.load_state(*reader);
  } catch (const Error& rejection) {
    error = rejection.what();
    return {};
  } catch (const std::exception& foreign) {
    return std::string("foreign exception: ") + foreign.what();
  }
  accepted = true;
  try {
    const std::string saved = saved_gp_doc(restored);
    resilience::SnapshotReader back(saved);
    back.enter_section("gp");
    if (!same_bits(reader->get_doubles("gp_inputs"), back.get_doubles("gp_inputs")) ||
        reader->get_ints("gp_counts") != back.get_ints("gp_counts") ||
        !same_bits(reader->get_doubles("gp_sums"), back.get_doubles("gp_sums")))
      return "the restored table differs from the section";
    gp::GaussianProcess twin = make_section_gp();
    twin.load_state(back);
    if (saved_gp_doc(twin) != saved) return "the restored GP does not re-emit its own bytes";
  } catch (const std::exception& failure) {
    return std::string("accepted section fails to round-trip: ") + failure.what();
  }
  return {};
}

TEST(Fuzz, GpSnapshotSectionsRestoreExactlyOrThrowError) {
  const std::string base = saved_gp_body();
  std::vector<std::string> entries;
  for (const std::string& line : split(base, '\n')) {
    if (!is_table_line(line)) continue;
    const std::vector<std::string> words = split(line, ' ');
    entries.insert(entries.end(), words.begin() + 3, words.end());
  }
  common::Rng rng(0x6A55EC);
  std::map<std::string, int> rejected;
  int accepted = 0;
  int failures = 0;
  std::string report;
  for (int i = 0; i < kGpSectionInputs; ++i) {
    const std::string body =
        rng.bernoulli(0.5) ? mutate_fields(rng, base, entries, kGpEdgeValues, is_table_line)
                           : mutate(rng, base, {base}, kGpTokens);
    bool ok = false;
    std::string error;
    const std::string problem = gp_violation(with_checksum(body), ok, error);
    accepted += ok ? 1 : 0;
    for (const std::string& reason : kGpRejections)
      if (error.find(reason) != std::string::npos) ++rejected[reason];
    if (!problem.empty() && failures++ < 5) report += "\n  '" + body + "': " + problem;
  }
  EXPECT_EQ(failures, 0) << report;
  EXPECT_GT(accepted, kGpSectionInputs / 20);
  EXPECT_LT(accepted, kGpSectionInputs - kGpSectionInputs / 20);
  for (const std::string& reason : kGpRejections) EXPECT_GT(rejected[reason], 0) << reason;
}

// ---------------------------------------------------------------------------
// DragsterController snapshots.
// ---------------------------------------------------------------------------

constexpr int kControllerInputs = 4000;

// clang-format off
/// Splice tokens: section headers, keys of every section (the learner's form
/// tag among them), the type tags, and numbers at the edges of the checks.
const std::vector<std::string> kControllerTokens = {
    "[controller]", "[budget]", "[dual]", "[op1]", "[learner]", "y_est", "commanded_tasks",
    "dual_lambda", "gp_present", "gp_counts", "tl_edges", "tl_e0_kind", "tl_e1_rls_w", "\n", " ",
    " u ", " f ", " fv ", " iv ", "0", "1", "2", "3", "4", "-1", "0x0p+0", "0x1p+0", "nan",
    "inf", "18446744073709551615"};

/// Edge values mutate_fields() writes over any value; 0-3 are the form tags.
const std::vector<std::string> kControllerEdgeValues = {
    "0", "1", "2", "3", "4", "-1", "0x0p+0", "-0x0p+0", "nan", "inf", "0x1p+1023",
    "18446744073709551615"};

/// Rejections the fuzz must reach, at least one in each section.
const std::vector<std::string> kControllerRejections = {
    "state vectors do not match the topology", "commanded configuration does not match",
    "different pod price", "dual size mismatch", "table sizes disagree",
    "function-kind mismatch", "RLS dimension mismatch"};
// clang-format on

/// A learn_throughput controller on WordCount after eight slots, so its
/// GPs, multipliers and RLS estimators all carry state.
struct LiveController {
  workloads::WorkloadSpec spec = workloads::wordcount();
  streamsim::Engine engine = spec.make_engine(/*high=*/true, streamsim::EngineOptions{}, 5);
  core::DragsterController controller{learning_options()};

  LiveController() {
    controller.initialize(engine.monitor(), engine);
    for (int slot = 0; slot < 8; ++slot) step();
  }

  static core::DragsterOptions learning_options() {
    core::DragsterOptions options;
    options.learn_throughput = true;
    return options;
  }

  void step() {
    engine.run_slot();
    controller.on_slot(engine.monitor(), engine);
  }

  [[nodiscard]] std::string saved() const {
    resilience::SnapshotWriter writer;
    controller.save_state(writer);
    return writer.str();
  }

  void restore(const std::string& doc) {
    resilience::SnapshotReader reader(doc);
    controller.load_state(reader);
  }
};

bool is_field_line(const std::string& line) { return split(line, ' ').size() >= 3; }

/// Empty when `doc` throws dragster::Error (whose message lands in `error`)
/// and leaves the controller's save_state bytes at `before`, or restores into
/// a controller whose save_state bytes restore to the same bytes; otherwise
/// what went wrong.
std::string controller_violation(LiveController& live, const std::string& before,
                                 const std::string& doc, bool& accepted, std::string& error) {
  accepted = false;
  try {
    live.restore(doc);
  } catch (const Error& rejection) {
    error = rejection.what();
    try {
      return live.saved() == before ? std::string() : "a rejected snapshot changed the controller";
    } catch (const std::exception& broken) {
      return std::string("a rejected snapshot broke save_state: ") + broken.what();
    }
  } catch (const std::exception& foreign) {
    return std::string("foreign exception: ") + foreign.what();
  }
  accepted = true;
  try {
    const std::string saved = live.saved();
    live.restore(saved);
    if (live.saved() != saved) return "the restored controller does not re-emit its own bytes";
  } catch (const std::exception& failure) {
    return std::string("accepted snapshot fails to round-trip: ") + failure.what();
  }
  return {};
}

TEST(Fuzz, ControllerSnapshotRestoresExactlyOrThrowsUnchanged) {
  LiveController live;
  const std::string base_doc = live.saved();
  const std::string base = base_doc.substr(0, base_doc.find("!checksum "));
  std::vector<std::string> entries;
  for (const std::string& line : split(base, '\n')) {
    if (!is_field_line(line)) continue;
    const std::vector<std::string> words = split(line, ' ');
    entries.insert(entries.end(), words.begin() + static_cast<std::ptrdiff_t>(first_value(words)),
                   words.end());
  }
  common::Rng rng(0xC0DE5A7E);
  std::map<std::string, int> rejected;
  int accepted = 0;
  int failures = 0;
  std::string report;
  for (int i = 0; i < kControllerInputs; ++i) {
    const std::string body =
        rng.bernoulli(0.5)
            ? mutate_fields(rng, base, entries, kControllerEdgeValues, is_field_line)
            : mutate(rng, base, {base}, kControllerTokens);
    bool ok = false;
    std::string error;
    const std::string problem =
        controller_violation(live, base_doc, with_checksum(body), ok, error);
    accepted += ok ? 1 : 0;
    for (const std::string& reason : kControllerRejections)
      if (error.find(reason) != std::string::npos) ++rejected[reason];
    if (!problem.empty() && failures++ < 5)
      report += "\n  input " + std::to_string(i) + ": " + problem;
    if (ok || !problem.empty()) live.restore(base_doc);  // the next input starts from the base
  }
  EXPECT_EQ(failures, 0) << report;
  EXPECT_EQ(live.saved(), base_doc);
  EXPECT_GT(accepted, kControllerInputs / 20);
  EXPECT_LT(accepted, kControllerInputs - kControllerInputs / 20);
  for (const std::string& reason : kControllerRejections) EXPECT_GT(rejected[reason], 0) << reason;
  // Every rejection left the controller whole, so it still steps.
  EXPECT_NO_THROW(live.step());
}

// ---------------------------------------------------------------------------
// ActuationManager snapshots.
// ---------------------------------------------------------------------------

constexpr int kActuationInputs = 4000;

// clang-format off
/// Splice tokens: section headers, keys of the manager, channel and audit
/// sections, the type tags, and numbers at the edges of the checks.
const std::vector<std::string> kActuationTokens = {
    "[actuation]", "[actuation.records]", "[actuation.op0]", "[actuation.op1]", "round",
    "latency_multiplier", "channels", "id", "live", "epoch", "outcome", "pod_latency", "ready",
    "\n", " ", " u ", " i ", " f ", " fv ", " iv ", "0", "1", "2", "3", "4", "-1", "999",
    "0x0p+0", "0x1p+0", "nan", "inf", "18446744073709551615"};

/// Edge values mutate_fields() writes over any value; 0-3 are the outcomes.
const std::vector<std::string> kActuationEdgeValues = {
    "0", "1", "2", "3", "4", "-1", "999", "0x0p+0", "-0x0p+0", "nan", "inf", "0x1p+1023",
    "2147483647", "18446744073709551615"};

/// Rejections the fuzz must reach: one per section, plus each audit check.
const std::vector<std::string> kActuationRejections = {
    "different seed", "operator count does not match", "operator ids do not match",
    "audit-trail columns disagree", "unknown epoch outcome", "missing from the snapshot audit"};
// clang-format on

/// Dragster on WordCount behind an ActuationManager with a slow, jittered
/// scheduler, after eight slots and one more scale-up left in flight: the
/// audit trail holds applied, superseded and in-flight epochs and the
/// engine's pending-pod ledger is non-zero.
struct LiveManagedJob {
  workloads::WorkloadSpec spec = workloads::wordcount();
  streamsim::Engine engine = spec.make_engine(/*high=*/true, streamsim::EngineOptions{}, 3);
  actuation::ActuationManager manager{engine, managed_options(), /*seed=*/3};
  core::DragsterController controller{core::DragsterOptions{}};

  LiveManagedJob() {
    controller.initialize(engine.monitor(), manager);
    for (int slot = 0; slot < 8; ++slot) step();
    const dag::NodeId op = engine.dag().operators().front();
    manager.set_tasks(op, engine.tasks(op) + 3);
  }

  static actuation::ActuationOptions managed_options() {
    actuation::ActuationOptions options;
    options.sched_latency_mean_slots = 1.0;
    options.sched_latency_jitter = 0.5;
    return options;
  }

  void step() {
    manager.begin_slot();
    engine.run_slot();
    controller.on_slot(engine.monitor(), manager);
  }

  [[nodiscard]] std::string saved() const {
    resilience::SnapshotWriter writer;
    manager.save_state(writer);
    return writer.str();
  }

  /// The manager's snapshot and the ledger it publishes to the engine.
  [[nodiscard]] std::string state() const {
    std::string text = saved() + "ledger";
    for (dag::NodeId op : engine.dag().operators()) {
      text += ' ';
      text += std::to_string(engine.cluster().pending_pods(engine.dag().component(op).name));
    }
    return text;
  }

  void restore(const std::string& doc) {
    resilience::SnapshotReader reader(doc);
    manager.load_state(reader);
  }
};

/// Empty when `doc` throws dragster::Error (whose message lands in `error`)
/// and leaves the manager's bytes and the ledger at `before`, or restores
/// into a manager whose save_state bytes restore to the same bytes and
/// ledger; otherwise what went wrong.
std::string actuation_violation(LiveManagedJob& live, const std::string& before,
                                const std::string& doc, bool& accepted, std::string& error) {
  accepted = false;
  try {
    live.restore(doc);
  } catch (const Error& rejection) {
    error = rejection.what();
    try {
      return live.state() == before ? std::string() : "a rejected snapshot changed the manager";
    } catch (const std::exception& broken) {
      return std::string("a rejected snapshot broke save_state: ") + broken.what();
    }
  } catch (const std::exception& foreign) {
    return std::string("foreign exception: ") + foreign.what();
  }
  accepted = true;
  try {
    const std::string state = live.state();
    live.restore(live.saved());
    if (live.state() != state) return "the restored manager does not re-emit its own bytes";
  } catch (const std::exception& failure) {
    return std::string("accepted snapshot fails to round-trip: ") + failure.what();
  }
  return {};
}

TEST(Fuzz, ActuationSnapshotRestoresExactlyOrThrowsUnchanged) {
  LiveManagedJob live;
  const std::string base_doc = live.saved();
  const std::string base_state = live.state();
  ASSERT_NE(base_doc.find("live u 1"), std::string::npos) << "no epoch in flight:\n" << base_doc;
  const std::string base = base_doc.substr(0, base_doc.find("!checksum "));
  std::vector<std::string> entries;
  for (const std::string& line : split(base, '\n')) {
    if (!is_field_line(line)) continue;
    const std::vector<std::string> words = split(line, ' ');
    entries.insert(entries.end(), words.begin() + static_cast<std::ptrdiff_t>(first_value(words)),
                   words.end());
  }
  common::Rng rng(0xAC7A7E);
  std::map<std::string, int> rejected;
  int accepted = 0;
  int failures = 0;
  std::string report;
  for (int i = 0; i < kActuationInputs; ++i) {
    const std::string body =
        rng.bernoulli(0.5) ? mutate_fields(rng, base, entries, kActuationEdgeValues, is_field_line)
                           : mutate(rng, base, {base}, kActuationTokens);
    bool ok = false;
    std::string error;
    const std::string problem =
        actuation_violation(live, base_state, with_checksum(body), ok, error);
    accepted += ok ? 1 : 0;
    for (const std::string& reason : kActuationRejections)
      if (error.find(reason) != std::string::npos) ++rejected[reason];
    if (!problem.empty() && failures++ < 5)
      report += "\n  input " + std::to_string(i) + ": " + problem;
    if (ok || !problem.empty()) live.restore(base_doc);  // the next input starts from the base
  }
  EXPECT_EQ(failures, 0) << report;
  EXPECT_EQ(live.state(), base_state);
  EXPECT_GT(accepted, kActuationInputs / 20);
  EXPECT_LT(accepted, kActuationInputs - kActuationInputs / 20);
  for (const std::string& reason : kActuationRejections) EXPECT_GT(rejected[reason], 0) << reason;
  // Every rejection left the manager whole, so the job still steps.
  EXPECT_NO_THROW(live.step());
}

// ---------------------------------------------------------------------------
// TransportHarness snapshots.
// ---------------------------------------------------------------------------

constexpr int kTransportInputs = 4000;

// clang-format off
/// Splice tokens: section headers, keys of the harness, pipe, frame and link
/// sections, the type tags, and numbers at the edges of the checks.
const std::vector<std::string> kTransportTokens = {
    "[transport]", "[transport.pipe]", "[transport.pipe.latest]", "[transport.link]",
    "[transport.link.p0]", "state", "stats", "has_fallback", "inflight", "latest_ops",
    "applied_seqs", "task_ops", "n_out", "src_rate", "op", "\n", " ", " u ", " i ", " f ",
    " fv ", " iv ", "0", "1", "2", "3", "4", "7", "-1", "999", "0x0p+0", "0x1p+0", "nan", "inf",
    "18446744073709551615"};

/// Edge values mutate_fields() writes over any value; 0-2 are the breaker
/// states.
const std::vector<std::string> kTransportEdgeValues = {
    "0", "1", "2", "3", "7", "-1", "999", "0x0p+0", "-0x0p+0", "nan", "inf", "0x1p+1023",
    "2147483647", "18446744073709551615"};

/// Rejections the fuzz must reach, in the harness, the pipe's frames and the
/// link.
const std::vector<std::string> kTransportRejections = {
    "different seed", "unknown breaker state", "stats vector has the wrong arity",
    "frame per-node vectors disagree", "frame report does not match the topology",
    "watermark vectors disagree", "not an operator of the topology"};
// clang-format on

/// Rescales every operator every slot, so the command link always carries
/// traffic.
struct CyclingController final : core::Controller {
  std::size_t calls = 0;
  [[nodiscard]] std::string name() const override { return "Cycling"; }
  void on_slot(const streamsim::JobMonitor& monitor,
               streamsim::ScalingActuator& actuator) override {
    ++calls;
    for (dag::NodeId op : monitor.dag().operators())
      actuator.set_tasks(op, 2 + static_cast<int>((calls + op) % 3));
  }
};

/// WordCount behind a lossy transport, inside a telemetry blackout: the
/// breaker is open, a frame is in flight, and the link holds pending
/// commands, wire copies and watermarks.
struct LiveTransport {
  workloads::WorkloadSpec spec = workloads::wordcount();
  streamsim::Engine engine = spec.make_engine(/*high=*/true, streamsim::EngineOptions{}, 8);
  CyclingController controller;
  transport::TransportHarness harness{transport_options(), /*seed=*/42};
  std::size_t slot = 0;

  LiveTransport() {
    harness.attach(engine, engine.dag(), online::Budget::unlimited(0.10), nullptr);
    for (int t = 0; t < 7; ++t) step();
  }

  static transport::TransportOptions transport_options() {
    transport::ChannelOptions lossy;
    lossy.drop_prob = 0.3;
    lossy.duplicate_prob = 0.3;
    lossy.delay_mean_slots = 1.0;
    lossy.delay_jitter = 0.5;
    lossy.reorder_window_slots = 2;
    transport::TransportOptions options;
    options.telemetry = lossy;
    options.command = lossy;
    options.ack = lossy;
    options.telemetry.partitions.push_back({6, 10});
    options.guard.open_after_misses = 2;
    return options;
  }

  void step() {
    harness.begin_slot(slot);
    engine.run_slot();
    harness.control_step(controller, streamsim::MonitorFrame::capture(engine.monitor()), slot);
    ++slot;
  }

  [[nodiscard]] std::string saved() const {
    resilience::SnapshotWriter writer;
    harness.save_state(writer);
    return writer.str();
  }

  /// The harness's snapshot and what it serves outside it.
  [[nodiscard]] std::string state() const {
    return saved() + "breaker " + transport::to_string(harness.breaker());
  }

  void restore(const std::string& doc) {
    resilience::SnapshotReader reader(doc);
    harness.load_state(reader);
  }
};

/// Empty when `doc` throws dragster::Error (whose message lands in `error`)
/// and leaves the harness at `before`, or restores into a harness whose
/// save_state bytes restore to the same state; otherwise what went wrong.
std::string transport_violation(LiveTransport& live, const std::string& before,
                                const std::string& doc, bool& accepted, std::string& error) {
  accepted = false;
  try {
    live.restore(doc);
  } catch (const Error& rejection) {
    error = rejection.what();
    try {
      return live.state() == before ? std::string() : "a rejected snapshot changed the harness";
    } catch (const std::exception& broken) {
      return std::string("a rejected snapshot broke save_state: ") + broken.what();
    }
  } catch (const std::exception& foreign) {
    return std::string("foreign exception: ") + foreign.what();
  }
  accepted = true;
  try {
    const std::string state = live.state();
    live.restore(live.saved());
    if (live.state() != state) return "the restored harness does not re-emit its own bytes";
  } catch (const std::exception& failure) {
    return std::string("accepted snapshot fails to round-trip: ") + failure.what();
  }
  return {};
}

TEST(Fuzz, TransportSnapshotRestoresExactlyOrThrowsUnchanged) {
  LiveTransport live;
  const std::string base_doc = live.saved();
  const std::string base_state = live.state();
  ASSERT_EQ(live.harness.breaker(), transport::BreakerState::kOpen);
  ASSERT_NE(base_doc.find("[transport.link.p0]"), std::string::npos) << "no pending command";
  ASSERT_NE(base_doc.find("[transport.pipe.msg0]"), std::string::npos) << "no frame in flight";
  ASSERT_NE(base_doc.find("[transport.link.w0]"), std::string::npos) << "no command on the wire";
  const std::string base = base_doc.substr(0, base_doc.find("!checksum "));
  std::vector<std::string> entries;
  for (const std::string& line : split(base, '\n')) {
    if (!is_field_line(line)) continue;
    const std::vector<std::string> words = split(line, ' ');
    entries.insert(entries.end(), words.begin() + static_cast<std::ptrdiff_t>(first_value(words)),
                   words.end());
  }
  common::Rng rng(0x7A45F0);
  std::map<std::string, int> rejected;
  int accepted = 0;
  int failures = 0;
  std::string report;
  for (int i = 0; i < kTransportInputs; ++i) {
    const std::string body =
        rng.bernoulli(0.5) ? mutate_fields(rng, base, entries, kTransportEdgeValues, is_field_line)
                           : mutate(rng, base, {base}, kTransportTokens);
    bool ok = false;
    std::string error;
    const std::string problem =
        transport_violation(live, base_state, with_checksum(body), ok, error);
    accepted += ok ? 1 : 0;
    for (const std::string& reason : kTransportRejections)
      if (error.find(reason) != std::string::npos) ++rejected[reason];
    if (!problem.empty() && failures++ < 5)
      report += "\n  input " + std::to_string(i) + ": " + problem;
    if (ok || !problem.empty()) live.restore(base_doc);  // the next input starts from the base
  }
  EXPECT_EQ(failures, 0) << report;
  EXPECT_EQ(live.state(), base_state);
  EXPECT_GT(accepted, kTransportInputs / 20);
  EXPECT_LT(accepted, kTransportInputs - kTransportInputs / 20);
  for (const std::string& reason : kTransportRejections) EXPECT_GT(rejected[reason], 0) << reason;
  // Every rejection left the harness whole, so the job still steps.
  EXPECT_NO_THROW(live.step());
}

// -- Flags --------------------------------------------------------------------

constexpr int kFlagInputs = 20000;

/// The argv alphabet: flag names (bare and with `=value`), a bare `--`, the
/// empty word, numbers at the edges of the strict parsers and the bool
/// spellings.
const std::vector<std::string> kFlagNames = {"slots", "rate", "name", "verbose"};
const std::vector<std::string> kFlagValues = {
    "-0", "1e308", "1e309", "nan", "0x10", "9223372036854775808", " 1", "7", "2.5",
    "true", "false", "0", "no", ""};

/// Rejections the fuzz must reach: a positional word, a repeated flag, a
/// valueless string or number flag, a malformed number and a bool flag
/// holding another word.
const std::vector<std::string> kFlagRejections = {"unexpected argument", "given twice",
                                                  "needs a value", "needs a number",
                                                  "needs true/false/1/0/yes/no"};

const std::string& pick(common::Rng& rng, const std::vector<std::string>& from) {
  return from[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
}

std::string random_argv_word(common::Rng& rng) {
  switch (rng.uniform_int(0, 5)) {
    case 0: return "--" + pick(rng, kFlagNames);
    case 1: return "--" + pick(rng, kFlagNames) + "=" + pick(rng, kFlagValues);
    case 2: return rng.bernoulli(0.5) ? "--" : "--=" + pick(rng, kFlagValues);
    default: return pick(rng, kFlagValues);
  }
}

using ReferenceFlags = std::map<std::string, std::optional<std::string>>;

/// The argv grammar, written out apart from common::Flags: every word starts
/// with `--`; `--name=value`, or `--name` followed by a word that does not
/// start with `--`, binds a value, and a lone `--name` binds none; no name
/// may appear twice.  Returns the offending word's message fragment for a
/// rejected argv.
std::optional<std::string> reference_parse(const std::vector<std::string>& words,
                                           ReferenceFlags& flags) {
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (words[i].rfind("--", 0) != 0) return "unexpected argument '" + words[i] + "'";
    std::string name = words[i].substr(2);
    std::optional<std::string> value;
    if (const std::size_t eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
    } else if (i + 1 < words.size() && words[i + 1].rfind("--", 0) != 0) {
      value = words[++i];
    }
    if (!flags.emplace(name, value).second) return "--" + name + " given twice";
  }
  return std::nullopt;
}

/// A number getter accepts the whole value as one decimal number in range:
/// no blank, no `+`, no hex, no overflow; an integer has digits only.
bool strict_number(const std::string& text, bool integer) {
  if (text.empty() || text[0] == ' ' || text[0] == '+') return false;
  if (text.find('x') != std::string::npos || text.find('X') != std::string::npos) return false;
  if (integer && text.find_first_not_of("-0123456789") != std::string::npos) return false;
  errno = 0;
  char* end = nullptr;
  if (integer)
    (void)std::strtoll(text.c_str(), &end, 10);
  else
    (void)std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size() && errno != ERANGE;
}

/// Compares every getter on `name` with the reference; empty when they agree.
/// A getter the reference rejects must throw dragster::Error naming the flag.
std::string flag_mismatch(const common::Flags& flags, const ReferenceFlags& reference,
                          const std::string& name, std::map<std::string, int>& rejected) {
  const auto it = reference.find(name);
  const bool present = it != reference.end();
  const std::optional<std::string> value = present ? it->second : std::nullopt;
  if (flags.has(name) != present) return "has(--" + name + ")";
  // Each getter either returns `want` or, when `want` is empty, throws.
  const auto check = [&](const char* getter, auto call, auto want) -> std::string {
    try {
      const auto got = call();
      if (!want.has_value()) return std::string(getter) + " accepted --" + name;
      if (!(got == *want || (got != got && *want != *want)))  // NaN equals NaN here
        return std::string(getter) + " misread --" + name;
    } catch (const Error& error) {
      const std::string message = error.what();
      if (want.has_value()) return std::string(getter) + " rejected --" + name + ": " + message;
      if (message.find("--" + name) == std::string::npos) return "unnamed flag: " + message;
      for (const std::string& reason : kFlagRejections)
        if (message.find(reason) != std::string::npos) ++rejected[reason];
    }
    return {};
  };
  const std::optional<std::string> text =
      !present ? std::optional<std::string>("fallback") : value;
  std::string problem = check(
      "string", [&] { return flags.get(name, std::string("fallback")); }, text);
  std::optional<double> real = present ? std::nullopt : std::optional<double>(-1.5);
  if (value.has_value() && strict_number(*value, false))
    real = std::strtod(value->c_str(), nullptr);
  if (problem.empty())
    problem = check("double", [&] { return flags.get(name, -1.5); }, real);
  std::optional<std::int64_t> whole = present ? std::nullopt : std::optional<std::int64_t>(-3);
  if (value.has_value() && strict_number(*value, true))
    whole = std::strtoll(value->c_str(), nullptr, 10);
  if (problem.empty())
    problem = check("int", [&] { return flags.get(name, std::int64_t{-3}); }, whole);
  // A bool is bare, true/1/yes or false/0/no; any other word is refused.
  // (Engaged first and reset, because GCC 12 misreads an optional built
  // empty as maybe-uninitialized.)
  std::optional<bool> truth = false;
  if (present && (!value.has_value() || *value == "true" || *value == "1" || *value == "yes"))
    truth = true;
  else if (value.has_value() && *value != "false" && *value != "0" && *value != "no")
    truth.reset();
  if (problem.empty())
    problem = check("bool", [&] { return flags.get(name, false); }, truth);
  return problem;
}

TEST(Fuzz, FlagsParseExactlyOrThrowError) {
  common::Rng rng(0xF1A65);
  std::map<std::string, int> rejected;
  int accepted = 0;
  int failures = 0;
  std::string report;
  for (int i = 0; i < kFlagInputs; ++i) {
    std::vector<std::string> words(static_cast<std::size_t>(rng.uniform_int(0, 5)));
    for (std::string& word : words) word = random_argv_word(rng);
    std::vector<const char*> argv{"prog"};
    for (const std::string& word : words) argv.push_back(word.c_str());
    ReferenceFlags reference;
    const std::optional<std::string> refusal = reference_parse(words, reference);
    std::string problem;
    try {
      const common::Flags flags(static_cast<int>(argv.size()), argv.data());
      if (refusal.has_value()) {
        problem = "accepted an argv the reference rejects: " + *refusal;
      } else {
        ++accepted;
        for (const std::string& name : kFlagNames)
          if (problem.empty()) problem = flag_mismatch(flags, reference, name, rejected);
        // Every name in the alphabet was queried; only `--` or `--=v` is left.
        bool threw = false;
        try {
          flags.reject_unused();
        } catch (const Error&) {
          threw = true;
        }
        if (problem.empty() && threw != (reference.count("") == 1))
          problem = "reject_unused() disagrees on the unnamed flag";
      }
    } catch (const Error& error) {
      const std::string message = error.what();
      if (!refusal.has_value())
        problem = "rejected an argv the reference accepts: " + message;
      else if (message.find(*refusal) == std::string::npos)
        problem = "rejection does not name '" + *refusal + "': " + message;
      for (const std::string& reason : kFlagRejections)
        if (message.find(reason) != std::string::npos) ++rejected[reason];
    } catch (const std::exception& foreign) {
      problem = std::string("foreign exception: ") + foreign.what();
    }
    if (!problem.empty() && failures++ < 5) {
      report += "\n  argv";
      for (const std::string& word : words) report += " '" + word + "'";
      report += ": " + problem;
    }
  }
  EXPECT_EQ(failures, 0) << report;
  EXPECT_GT(accepted, kFlagInputs / 20);
  for (const std::string& reason : kFlagRejections) EXPECT_GT(rejected[reason], 0) << reason;
}

// The snprintf / strtod loop obs::format_double used before to_chars.
std::string reference_format_double(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0.0 ? "+Inf" : "-Inf";
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

TEST(Fuzz, FormatDoubleMatchesSnprintfReference) {
  using limits = std::numeric_limits<double>;
  // clang-format off
  std::vector<double> values = {
      0.0, -0.0, limits::max(), -limits::max(), limits::min(), -limits::min(),
      limits::denorm_min(), -limits::denorm_min(), limits::infinity(), -limits::infinity(),
      limits::quiet_NaN(), 0.1 + 0.2, 1.0 / 3.0, 2.0 / 3.0, 1e15 + 0.3, 9007199254740993.0};
  // clang-format on
  // One ulp either side of every representable power of ten (the decimal
  // boundaries where %.15g and %.17g disagree), and their negatives.
  for (int e = -323; e <= 308; ++e) {
    const std::string text = "1e" + std::to_string(e);
    const double p = std::strtod(text.c_str(), nullptr);
    for (double v : {p, std::nextafter(p, 0.0), std::nextafter(p, limits::infinity()),
                     5.0 * p, 0.5 * p})
      values.insert(values.end(), {v, -v});
  }
  common::Rng rng(0xF0F3A7);
  for (int i = 0; i < 100'000; ++i) {
    values.push_back(std::bit_cast<double>(rng.next_u64()));  // any bit pattern
    // Subnormals: zero exponent, random mantissa and sign.
    values.push_back(std::bit_cast<double>(rng.next_u64() & 0x800FFFFFFFFFFFFFULL));
    // Short decimals, which round-trip below 17 digits.
    const double scale = std::pow(10.0, static_cast<double>(rng.uniform_int(-12, 12)));
    values.push_back(static_cast<double>(rng.uniform_int(-999'999, 999'999)) * scale);
  }
  int mismatches = 0;
  std::string report;
  for (double v : values) {
    const std::string got = obs::format_double(v);
    const std::string want = reference_format_double(v);
    if (got != want && mismatches++ < 5)
      report += "\n  bits " + std::to_string(std::bit_cast<std::uint64_t>(v)) + ": '" + got +
                "' vs '" + want + "'";
  }
  EXPECT_EQ(mismatches, 0) << report;
}

}  // namespace
}  // namespace dragster::faults
