// draglint is itself under test: the checked-in corpus pins down exactly
// where every rule fires and that the escape hatch suppresses findings.  The
// final test scans the real tree, which makes `ctest` a local lint gate —
// a determinism-contract violation anywhere in src/ bench/ examples/ fails
// the suite before CI ever sees the push.
//
// The binary path and corpus directory are injected by CMake:
//   DRAGLINT_BIN          $<TARGET_FILE:draglint>
//   DRAGLINT_CORPUS       <repo>/tools/draglint/corpus
//   DRAGLINT_SOURCE_ROOT  <repo>
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"

namespace {

struct LintRun {
  int exit_code = -1;
  std::vector<std::string> lines;
};

LintRun run_draglint(const std::string& args) {
  const std::string command = std::string(DRAGLINT_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "failed to launch " << command;
  LintRun run;
  if (pipe == nullptr) return run;
  std::string output;
  char buf[4096];
  std::size_t got = 0;
  while ((got = fread(buf, 1, sizeof(buf), pipe)) > 0) output.append(buf, got);
  const int status = pclose(pipe);
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::istringstream stream(output);
  for (std::string line; std::getline(stream, line);)
    if (!line.empty()) run.lines.push_back(line);
  return run;
}

/// (file basename, line, rule id) for one `path:line: DLnnn message` line.
using Key = std::tuple<std::string, int, std::string>;

std::set<Key> parse_findings(const LintRun& run) {
  std::set<Key> keys;
  for (const std::string& line : run.lines) {
    const std::size_t first_colon = line.find(':');
    const std::size_t second_colon = line.find(':', first_colon + 1);
    if (first_colon == std::string::npos || second_colon == std::string::npos) continue;
    const std::string path = line.substr(0, first_colon);
    const std::string basename = path.substr(path.find_last_of('/') + 1);
    const int line_no = std::atoi(line.c_str() + first_colon + 1);
    const std::size_t rule_at = second_colon + 2;
    if (rule_at + 5 > line.size() || line.compare(rule_at, 2, "DL") != 0) continue;
    keys.insert({basename, line_no, line.substr(rule_at, 5)});
  }
  return keys;
}

std::string corpus(const char* subdir) { return std::string(DRAGLINT_CORPUS) + "/" + subdir; }

}  // namespace

// Every rule fires at exactly the lines the corpus annotates — no more, no
// fewer.  A tokenizer or rule regression shows up as a set diff here.
TEST(Draglint, BadCorpusFiresEachRuleExactlyWhereExpected) {
  const LintRun run = run_draglint("--assume-src --fix-list " + corpus("bad"));
  EXPECT_EQ(run.exit_code, 1);
  const std::set<Key> expected = {
      {"allow_no_reason.cpp", 9, "DL000"},   // reasonless allow
      {"allow_no_reason.cpp", 10, "DL004"},  // ...which therefore fails to suppress
      {"allow_no_reason.cpp", 14, "DL000"},  // allow naming an unknown rule
      {"entropy.cpp", 11, "DL001"},          // rand()
      {"entropy.cpp", 15, "DL001"},          // srand()
      {"entropy.cpp", 19, "DL001"},          // std::random_device
      {"entropy.cpp", 24, "DL001"},          // steady_clock::now
      {"entropy.cpp", 29, "DL001"},          // time()
      {"float_eq.cpp", 7, "DL004"},          // x == 0.0
      {"float_eq.cpp", 11, "DL004"},         // 1.5 != x
      {"float_eq.cpp", 15, "DL004"},         // double a == double b
      {"fleet_trace.cpp", 27, "DL002"},      // unordered grants into TraceSink
      {"fleet_trace.cpp", 32, "DL005"},      // arbiter delta saved, never read
      {"fleet_trace.cpp", 37, "DL005"},      // cooldown read, never saved
      {"fleet_trace.cpp", 43, "DL009"},      // grants_ never referenced by save_state
      {"lexer_tricks.cpp", 29, "DL001"},     // rand() the v1 raw-string bug hid
      {"lexer_tricks.cpp", 41, "DL004"},     // digit-separated float comparison
      // (lexer_tricks.cpp spliced/raw-string literals must produce NO phantom
      //  findings — the exact-set comparison pins their absence)
      {"node_map.cpp", 27, "DL002"},         // unordered node->pods into TraceSink
      {"node_map.cpp", 33, "DL002"},         // .begin() on the unordered cordon set
      {"node_map.cpp", 34, "DL002"},         // ...and its .end() guard
      // (node_map.cpp line 36, the ordered std::map mirror, must NOT fire)
      {"pool_reduce.cpp", 14, "DL006"},      // raw std::mutex
      {"pool_reduce.cpp", 15, "DL006"},      // raw std::thread
      {"pool_reduce.cpp", 16, "DL006"},      // std::mutex as a lock_guard argument
      {"pool_reduce.cpp", 24, "DL006"},      // push_back inside a for_each work item
      {"snapshot_missing.cpp", 33, "DL009"}, // backlog_ dropped on every recovery
      {"snapshot_parity.cpp", 21, "DL005"},  // key written, never read
      {"snapshot_parity.cpp", 27, "DL005"},  // key read, never written
      {"stale_allow.cpp", 11, "DL000"},      // reasoned allow suppressing nothing
      {"substream_collision.cpp", 26, "DL008"},  // duplicated ("chaos","latency")
      {"transport_retry.cpp", 28, "DL001"},  // rand()-backed retry backoff
      {"transport_retry.cpp", 32, "DL001"},  // wall-clock retry jitter seed
      {"transport_retry.cpp", 41, "DL005"},  // channel retry counter saved, never read
      {"transport_retry.cpp", 47, "DL005"},  // ...and read under a different key
      {"throw_type.cpp", 13, "DL003"},       // std::runtime_error
      {"throw_type.cpp", 17, "DL003"},       // ad-hoc local type
      {"throw_type.cpp", 21, "DL003"},       // std::logic_error
      {"unordered.cpp", 25, "DL002"},        // range-for over unordered_map
      {"unordered.cpp", 28, "DL002"},        // .begin() on unordered_set
  };
  EXPECT_EQ(parse_findings(run), expected);
}

// The good corpus — deterministic idioms plus reasoned allow directives in
// both placements — must scan entirely clean.
TEST(Draglint, GoodCorpusIncludingAllowDirectivesIsClean) {
  const LintRun run = run_draglint("--assume-src --fix-list " + corpus("good"));
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_TRUE(run.lines.empty()) << run.lines.front();
}

// The allow hatch is what separates good/allowed.cpp from a finding: the same
// comparisons without directives (float_eq.cpp) do fire.  Cross-check that
// the suppression is attributable to the directive, not to a scope accident.
TEST(Draglint, AllowHatchIsWhatSuppresses) {
  const LintRun good = run_draglint("--assume-src --fix-list " + corpus("good") + "/allowed.cpp");
  EXPECT_EQ(good.exit_code, 0);
  const LintRun bad = run_draglint("--assume-src --fix-list " + corpus("bad") + "/float_eq.cpp");
  EXPECT_EQ(bad.exit_code, 1);
  EXPECT_EQ(parse_findings(bad).size(), 3U);
}

// Library-scoped rules (DL001/3/4/5/6 and the cross-TU DL008/DL009) stay
// quiet outside src/ unless --assume-src: bench and example code may
// legitimately read wall clocks.
TEST(Draglint, LibraryRulesScopeToSrcOnly) {
  const LintRun run = run_draglint("--fix-list " + corpus("bad"));
  EXPECT_EQ(run.exit_code, 1);
  for (const auto& [file, line_no, rule] : parse_findings(run))
    EXPECT_TRUE(rule == "DL000" || rule == "DL002")
        << file << ":" << line_no << " fired src-scoped " << rule << " without --assume-src";
}

TEST(Draglint, RuleTableListsAllIds) {
  const LintRun run = run_draglint("--rules");
  EXPECT_EQ(run.exit_code, 0);
  std::string joined;
  for (const std::string& line : run.lines) joined += line + "\n";
  for (const char* id : {"DL000", "DL001", "DL002", "DL003", "DL004", "DL005", "DL006", "DL007",
                         "DL008", "DL009"})
    EXPECT_NE(joined.find(id), std::string::npos) << "missing " << id;
}

// DL007 against the layercycle fixture: the upward include out of the bottom
// layer fires with the cycle explanation, the undeclared subsystem fires at
// line 1, and the declared downward edge stays silent.
TEST(Draglint, LayerBoundaryFiresOnUpwardAndUndeclaredEdges) {
  const LintRun run = run_draglint("--assume-src --fix-list --layers " + corpus("layercycle") +
                                   "/layers.txt " + corpus("layercycle"));
  EXPECT_EQ(run.exit_code, 1);
  const std::set<Key> expected = {
      {"util.hpp", 3, "DL007"},    // base -> mid: upward, cycle-forming
      {"widget.hpp", 1, "DL007"},  // stray/ never declared in layers.txt
  };
  EXPECT_EQ(parse_findings(run), expected);
  bool cycle_explained = false;
  for (const std::string& line : run.lines)
    if (line.find("would create a cycle") != std::string::npos) cycle_explained = true;
  EXPECT_TRUE(cycle_explained) << "DL007 must say when the edge closes a cycle";
}

// A cyclic layers.txt is a configuration error, not a finding: draglint must
// refuse to scan (exit 2) rather than check against a graph with no order.
TEST(Draglint, CyclicLayerDeclarationIsRefused) {
  const LintRun run = run_draglint("--layers " + corpus("layercycle") + "/cyclic_layers.txt " +
                                   corpus("layercycle"));
  EXPECT_EQ(run.exit_code, 2);
  ASSERT_FALSE(run.lines.empty());
  EXPECT_NE(run.lines.front().find("cyclic"), std::string::npos) << run.lines.front();
}

// The lexer survives any input.  Seeded mutations of the corpus sources —
// truncation, unterminated strings, block comments and raw strings, NUL
// bytes, lone CRs and CRLF line ends — must each scan to a verdict: exit 0
// or 1, never a usage/I-O error (2) or a signal, and every output line a
// `path:line: DLnnn message` finding whose line lies inside its file.
TEST(Draglint, MutatedSourcesNeverCrash) {
  namespace fs = std::filesystem;
  std::vector<fs::path> originals;
  for (const auto& entry : fs::recursive_directory_iterator(DRAGLINT_CORPUS)) {
    const std::string ext = entry.path().extension().string();
    if (entry.is_regular_file() && (ext == ".cpp" || ext == ".hpp"))
      originals.push_back(entry.path());
  }
  std::sort(originals.begin(), originals.end());
  ASSERT_GE(originals.size(), 10U);
  std::vector<std::string> texts;
  for (const fs::path& path : originals) {
    std::ifstream in(path, std::ios::binary);
    texts.emplace_back(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }

  const std::vector<std::string> fragments = {
      "\"unterminated", "/* open comment", "R\"x(open raw", "R\"(", "u8R\"delim(", "'",
      "'\\", "\\\n", "#include \"", "// draglint:allow(", "0x1.p", "*/", "\")x\"", "1'000.5",
      std::string("\0", 1)};
  dragster::common::Rng rng(0xD4A6);
  const auto upto = [&rng](std::size_t n) {  // uniform in [0, n]
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n)));
  };
  constexpr int kBatches = 25;
  constexpr int kFilesPerBatch = 12;
  const fs::path dir = fs::path(testing::TempDir()) / "draglint_fuzz";
  for (int batch = 0; batch < kBatches; ++batch) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::map<std::string, int> line_counts;  // written path -> its line count
    for (int k = 0; k < kFilesPerBatch; ++k) {
      const std::size_t pick = upto(originals.size() - 1);
      std::string text = texts[pick];
      for (std::size_t ops = 1 + upto(2); ops > 0; --ops) {
        switch (upto(6)) {
          case 0: text.resize(upto(text.size())); break;  // truncation
          case 1: text.insert(upto(text.size()), fragments[upto(fragments.size() - 1)]); break;
          case 2: text.insert(upto(text.size()), 1 + upto(3), '\0'); break;
          case 3: {  // CRLF line ends throughout
            std::string crlf;
            for (char c : text) {
              if (c == '\n') crlf += '\r';
              crlf += c;
            }
            text = std::move(crlf);
            break;
          }
          case 4: {  // one lone CR in place of a line end
            const std::size_t at = text.find('\n', upto(text.size()));
            if (at != std::string::npos) text[at] = '\r';
            break;
          }
          case 5: text.erase(upto(text.size()), upto(64)); break;
          default: {  // a run of arbitrary bytes
            for (std::size_t n = 1 + upto(7); n > 0; --n)
              text.insert(upto(text.size()), 1, static_cast<char>(upto(255)));
            break;
          }
        }
      }
      fs::path out = dir / std::to_string(k);
      out += originals[pick].extension();
      std::ofstream(out, std::ios::binary) << text;
      line_counts[out.generic_string()] =
          1 + static_cast<int>(std::count(text.begin(), text.end(), '\n'));
    }
    const LintRun run = run_draglint("--assume-src --fix-list " + dir.generic_string());
    EXPECT_TRUE(run.exit_code == 0 || run.exit_code == 1)
        << "batch " << batch << " exited " << run.exit_code;
    for (const std::string& line : run.lines) {
      bool parsed = false;
      for (const auto& [path, count] : line_counts) {
        if (line.rfind(path + ":", 0) != 0) continue;
        std::size_t at = path.size() + 1;
        const std::size_t digits = line.find_first_not_of("0123456789", at);
        if (digits == at || digits == std::string::npos) break;
        const int line_no = std::stoi(line.substr(at, digits - at));
        at = digits;
        parsed = line.compare(at, 4, ": DL") == 0 && at + 8 <= line.size() &&
                 line.find_first_not_of("0123456789", at + 4) == at + 7 && line[at + 7] == ' ' &&
                 line_no >= 1 && line_no <= count;
        break;
      }
      EXPECT_TRUE(parsed) << "batch " << batch << ": " << line;
    }
  }
  fs::remove_all(dir);
}

// SARIF output: findings render as results with rule IDs and repo-relative
// URIs, and the bare `--sarif` form (no operand) must not swallow the flag
// that follows it.
TEST(Draglint, SarifReportCarriesFindingsAndRelativePaths) {
  const std::string sarif = testing::TempDir() + "draglint_test.sarif";
  std::remove(sarif.c_str());
  const LintRun run = run_draglint("--assume-src --fix-list --sarif " + sarif + " " +
                                   corpus("bad") + "/float_eq.cpp");
  EXPECT_EQ(run.exit_code, 1);
  FILE* f = fopen(sarif.c_str(), "r");
  ASSERT_NE(f, nullptr) << "SARIF file was not written";
  std::string text;
  char buf[4096];
  for (std::size_t got = 0; (got = fread(buf, 1, sizeof(buf), f)) > 0;) text.append(buf, got);
  fclose(f);
  std::remove(sarif.c_str());
  EXPECT_NE(text.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(text.find("\"ruleId\": \"DL004\""), std::string::npos);
  EXPECT_NE(text.find("float_eq.cpp"), std::string::npos);
  EXPECT_NE(text.find("\"startLine\": 7"), std::string::npos);

  // Bare --sarif: the next token is a flag, so the default filename is used
  // and --rules must still be honored (exit 0, table printed).
  const LintRun bare = run_draglint("--sarif --rules");
  EXPECT_EQ(bare.exit_code, 0);
  std::string joined;
  for (const std::string& line : bare.lines) joined += line;
  EXPECT_NE(joined.find("DL008"), std::string::npos);
}

// --dump-index exposes the pass-1 facts pass 2 consumes; the substream tuple
// table is the part other tooling is most likely to want.
TEST(Draglint, DumpIndexShowsSubstreamTuples) {
  const LintRun run = run_draglint("--assume-src --dump-index " + corpus("bad") +
                                   "/substream_collision.cpp");
  EXPECT_EQ(run.exit_code, 0);
  std::string joined;
  for (const std::string& line : run.lines) joined += line + "\n";
  EXPECT_NE(joined.find("substream (\"chaos\", \"latency\")"), std::string::npos) << joined;
  EXPECT_NE(joined.find("[dynamic]"), std::string::npos) << joined;
}

// The real tree is the ultimate corpus: src/ bench/ examples/ must scan
// clean, which turns the whole ctest run into a blocking lint gate.
TEST(Draglint, RepositoryTreeScansClean) {
  const LintRun run = run_draglint("--fix-list --root " + std::string(DRAGLINT_SOURCE_ROOT));
  EXPECT_EQ(run.exit_code, 0);
  for (const std::string& line : run.lines) ADD_FAILURE() << line;
}
