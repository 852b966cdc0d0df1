// draglint — static enforcement of the dragster determinism contract.
//
// Usage:
//   draglint [options] [path...]
//
//   path...        files or directories to scan (default: src bench examples,
//                  resolved against --root)
//   --root DIR     repository root (default: current directory)
//   --fix-list     one `file:line: RULE-ID message` line per finding, nothing
//                  else — the format CI and editors consume
//   --assume-src   apply the src/-scoped rules to every scanned file, not
//                  only paths under src/ (used by the corpus tests)
//   --layers FILE  layer DAG declaration for DL007 (default:
//                  <root>/tools/draglint/layers.txt; when the default is
//                  absent DL007 is skipped, an explicit FILE must exist)
//   --sarif [FILE] also write a SARIF 2.1.0 report (default: draglint.sarif)
//   --dump-index   print the assembled project index instead of findings
//   --rules        print the rule table and exit
//
// The scan is two passes: pass 1 distills every file into a FileFacts record,
// pass 2 runs the cross-TU rules (DL005/DL007/DL008/DL009) over the assembled
// index, and allow directives are applied once, globally, so a reasoned allow
// that suppresses nothing is itself reported stale (DL000).
//
// Exit status: 0 clean, 1 findings, 2 usage or I/O error.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "index.hpp"
#include "lexer.hpp"
#include "project_rules.hpp"
#include "rules.hpp"
#include "sarif.hpp"

namespace {

namespace fs = std::filesystem;

bool has_cpp_extension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".cxx" || ext == ".hpp" || ext == ".h" ||
         ext == ".hh";
}

/// True for paths the library-scoped rules apply to: anything under a `src`
/// directory component.
bool under_src(const fs::path& path) {
  return std::any_of(path.begin(), path.end(),
                     [](const fs::path& part) { return part == "src"; });
}

std::vector<fs::path> collect_files(const std::vector<fs::path>& roots, std::string* error) {
  std::vector<fs::path> files;
  for (const fs::path& root : roots) {
    std::error_code ec;
    if (fs::is_regular_file(root, ec)) {
      files.push_back(root);
    } else if (fs::is_directory(root, ec)) {
      for (auto it = fs::recursive_directory_iterator(root, ec);
           it != fs::recursive_directory_iterator(); it.increment(ec)) {
        if (ec) break;
        if (it->is_regular_file(ec) && has_cpp_extension(it->path())) files.push_back(it->path());
      }
    } else {
      *error = "draglint: no such file or directory: " + root.string();
      return {};
    }
  }
  // Deterministic output regardless of directory enumeration order — this
  // tool polices determinism; it had better exhibit it.
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

bool read_file(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  *out = text.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<fs::path> roots;
  fs::path base = ".";
  bool fix_list = false;
  bool assume_src = false;
  bool want_dump = false;
  bool want_sarif = false;
  std::string sarif_path = "draglint.sarif";
  std::string layers_path;  // empty: use the default under --root

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--fix-list") {
      fix_list = true;
    } else if (arg == "--assume-src") {
      assume_src = true;
    } else if (arg == "--dump-index") {
      want_dump = true;
    } else if (arg == "--root") {
      if (i + 1 >= argc) {
        std::cerr << "draglint: --root needs a directory\n";
        return 2;
      }
      base = argv[++i];
    } else if (arg == "--layers") {
      if (i + 1 >= argc) {
        std::cerr << "draglint: --layers needs a file\n";
        return 2;
      }
      layers_path = argv[++i];
    } else if (arg == "--sarif") {
      // The operand is optional so bare `draglint --sarif` works in CI.
      want_sarif = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') sarif_path = argv[++i];
    } else if (arg == "--rules") {
      for (const draglint::RuleInfo& rule : draglint::rule_table())
        std::cout << rule.id << "  " << rule.name << "\n    " << rule.summary << "\n";
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: draglint [--root DIR] [--fix-list] [--assume-src] [--layers FILE] "
                   "[--sarif [FILE]] [--dump-index] [--rules] [path...]\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "draglint: unknown option " << arg << "\n";
      return 2;
    } else {
      roots.push_back(arg);
    }
  }
  if (roots.empty())
    for (const char* dir : {"src", "bench", "examples"}) {
      const fs::path candidate = base / dir;
      std::error_code ec;
      if (fs::exists(candidate, ec)) roots.push_back(candidate);
    }
  if (roots.empty()) {
    std::cerr << "draglint: nothing to scan (no src/bench/examples under " << base << ")\n";
    return 2;
  }

  std::string error;
  const std::vector<fs::path> files = collect_files(roots, &error);
  if (!error.empty()) {
    std::cerr << error << "\n";
    return 2;
  }

  // Layer DAG: an explicitly named file must exist; the default location is
  // optional (a tree without layers.txt simply has no DL007 coverage yet).
  draglint::LayerGraph layers;
  bool have_layers = false;
  {
    const bool explicit_layers = !layers_path.empty();
    const fs::path candidate =
        explicit_layers ? fs::path(layers_path) : base / "tools" / "draglint" / "layers.txt";
    std::string text;
    if (read_file(candidate, &text)) {
      std::string parse_error;
      if (!draglint::LayerGraph::parse(text, &layers, &parse_error)) {
        std::cerr << "draglint: " << candidate.generic_string() << ": " << parse_error << "\n";
        return 2;
      }
      have_layers = true;
    } else if (explicit_layers) {
      std::cerr << "draglint: cannot read " << candidate.generic_string() << "\n";
      return 2;
    }
  }

  // Pass 1: per-file facts and raw per-file findings.
  draglint::ProjectIndex index;
  for (const fs::path& path : files) {
    std::string text;
    if (!read_file(path, &text)) {
      std::cerr << "draglint: cannot read " << path << "\n";
      return 2;
    }
    const bool library_scope = assume_src || under_src(path);
    const draglint::LexedFile lexed = draglint::lex(path.generic_string(), text);
    draglint::FileFacts facts = draglint::build_facts(lexed, library_scope);
    facts.findings = draglint::run_file_rules(lexed, library_scope);
    index.files.push_back(std::move(facts));
  }

  if (want_dump) {
    std::cout << draglint::dump_index(index);
    return 0;
  }

  // Pass 2: cross-TU rules over the assembled index, then global allow
  // application and DL000 hygiene.
  std::vector<draglint::Finding> findings;
  for (const draglint::FileFacts& facts : index.files)
    findings.insert(findings.end(), facts.findings.begin(), facts.findings.end());
  const std::vector<draglint::Finding> project =
      draglint::run_project_rules(index, have_layers ? &layers : nullptr);
  findings.insert(findings.end(), project.begin(), project.end());
  findings = draglint::finalize_findings(index, std::move(findings));

  for (const draglint::Finding& f : findings)
    std::cout << f.path << ":" << f.line << ": " << f.rule_id << " " << f.message << "\n";
  if (want_sarif) {
    std::ofstream out(sarif_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "draglint: cannot write " << sarif_path << "\n";
      return 2;
    }
    out << draglint::to_sarif(findings, base.generic_string());
  }
  if (!fix_list) {
    if (findings.empty())
      std::cout << "draglint: clean (" << files.size() << " files)\n";
    else
      std::cout << "draglint: " << findings.size() << " finding(s) in " << files.size()
                << " files scanned\n";
  }
  return findings.empty() ? 0 : 1;
}
