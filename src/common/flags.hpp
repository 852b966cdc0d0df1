// Tiny command-line flag parser used by bench and example binaries.
//
// Supports `--name=value`, `--name value` and boolean `--name`.  Parsing
// throws dragster::Error naming the offending word on a positional argument
// (no binary reads one) and on a flag given twice.  The typed getters are
// strict: a number must be the whole value, a bool is bare or one of
// true/false/1/0/yes/no (so `--vertical stray` is refused, not read as
// true), and a string or number flag given without a value throws
// dragster::Error naming the flag (a bare `--json` must not write a file
// named "true").  Unknown flags are collected, and reject_unused() turns
// them into an error.
// Deliberately dependency-free.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dragster::common {

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name, const std::string& fallback) const;
  [[nodiscard]] double get(const std::string& name, double fallback) const;
  [[nodiscard]] std::int64_t get(const std::string& name, std::int64_t fallback) const;
  [[nodiscard]] bool get(const std::string& name, bool fallback) const;

  /// Names seen on the command line but never queried via get()/has().
  [[nodiscard]] std::vector<std::string> unused() const;

  /// Throws dragster::Error naming every unused() flag.  Binaries call it
  /// after their last get()/has() and before any work, so a typo fails fast.
  void reject_unused() const;

 private:
  /// The flag's value (nullopt for a bare `--name`), or null when absent.
  [[nodiscard]] const std::optional<std::string>* find(const std::string& name) const;

  std::map<std::string, std::optional<std::string>> values_;
  mutable std::map<std::string, bool> queried_;
};

}  // namespace dragster::common
