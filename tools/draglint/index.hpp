// Pass 1 of the project-aware analyzer: per-file fact extraction.
//
// draglint v1 ran every rule inside one file's token stream.  The contract it
// polices is no longer file-local: the layer DAG spans all of src/, substream
// key tuples are spread across transport/actuation/faults, and a Snapshotable
// class declares its fields in a header while save_state() lives in a .cpp.
// So the scan is now two passes — pass 1 distills each file into a small
// `FileFacts` record (include edges, substream derivation chains, class
// member tables, snapshot function bodies, TaskPool call sites, allow
// directives), and pass 2 (project_rules.hpp) runs the cross-TU rules over
// the assembled `ProjectIndex`.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.hpp"
#include "rules.hpp"

namespace draglint {

/// One quoted `#include "subsys/header.hpp"` directive (angle includes carry
/// no layer information and are not recorded).
struct IncludeSite {
  int line = 0;
  std::string target;  ///< the path between the quotes, as written
};

/// One chain of counter-based substream derivations in a single expression:
/// `rng.substream("fleet-job", i).substream("transport")` records the ordered
/// label tuple ("fleet-job", "transport").  A non-literal label makes the
/// chain `dynamic` — it is indexed for --dump-index but exempt from DL008
/// (the tuple cannot be compared statically).
struct SubstreamChain {
  int line = 0;
  bool dynamic = false;
  std::vector<std::string> labels;
};

struct MemberField {
  int line = 0;
  std::string name;
};

/// Facts about one class/struct definition whose body appears in this file.
struct ClassFacts {
  int line = 0;
  bool snapshotable_base = false;  ///< base-clause names Snapshotable
  std::string name;
  std::vector<MemberField> members;  ///< non-static data members, decl order
};

/// One save_state()/load_state() body: the literal snapshot keys it touches
/// (DL005) and every identifier it references (DL009 field coverage).
struct SnapshotFn {
  int line = 0;
  bool dynamic_keys = false;  ///< saw a computed key; parity is undecidable
  std::set<std::string> keys;
  std::set<std::string> idents;
};

/// One TaskPool `for_each`/`submit` call with its lambda capture list —
/// indexed so the parallelism surface of the tree is queryable (and visible
/// in --dump-index) alongside the DL006 token checks.
struct PoolSite {
  int line = 0;
  std::string kind;      ///< "for_each" or "submit"
  std::string captures;  ///< capture list text, e.g. "[&out, i]"
};

struct FileFacts {
  std::string path;
  bool library_scope = false;
  std::vector<IncludeSite> includes;
  std::vector<SubstreamChain> substreams;
  std::vector<ClassFacts> classes;
  /// save_state/load_state bodies keyed by owner class; a free function's
  /// owner is "<file>" (pass 2 scopes those to this file, never merging them
  /// with another file's).
  std::map<std::string, std::vector<SnapshotFn>> saves;
  std::map<std::string, std::vector<SnapshotFn>> loads;
  std::vector<PoolSite> pool_sites;
  std::vector<AllowDirective> allows;
  /// Raw per-file findings (DL001-DL004, DL006), before allow application —
  /// allows are applied once, globally, after pass 2.
  std::vector<Finding> findings;
};

/// Distills one lexed file into facts.  `library_scope` marks files the
/// src/-scoped rules apply to (under src/, or anywhere with --assume-src).
[[nodiscard]] FileFacts build_facts(const LexedFile& file, bool library_scope);

struct ProjectIndex {
  std::vector<FileFacts> files;  ///< in sorted-path scan order
};

/// Human-readable index summary for --dump-index (stable, diff-friendly).
[[nodiscard]] std::string dump_index(const ProjectIndex& index);

}  // namespace draglint
