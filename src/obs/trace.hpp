// Deterministic structured tracing: one JSON object per line (JSONL).
//
// Every traced value is either derived from the seeded simulation (doubles
// whose bits are reproducible) or a slot index — never a wall clock — so two
// same-seed runs emit byte-identical traces.  That property turns the trace
// itself into a test oracle: golden-trace tests diff the raw bytes, and the
// property harness greps invariants (backlog >= 0, spend <= budget) straight
// out of the event stream.
//
// Events are built with the scoped Event class, which serializes fields in
// insertion order and writes exactly one line to the sink on destruction:
//
//   if (obs::TraceSink* sink = registry.trace()) {
//     obs::Event(*sink, "decision", slot)
//         .field("op", name)
//         .field("target", y_target);
//   }
//
// Formatting is locale-independent and bit-stable: doubles print with the
// shortest of %.15g/%.16g/%.17g that round-trips to the same bits, and
// non-finite values (JSON has no literal for them) are emitted as the
// strings "NaN", "+Inf", "-Inf".
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dragster::obs {

/// Shortest decimal rendering of `value` that parses back to the same bits;
/// "NaN"/"+Inf"/"-Inf" for non-finite values.  Shared by the trace layer and
/// the Prometheus exposition so both are deterministic.
[[nodiscard]] std::string format_double(double value);

/// Appends `\"`-escaped JSON string contents of `text` to `out` (no quotes).
void append_json_escaped(std::string& out, std::string_view text);

/// Destination for complete JSONL lines.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// `line` is one complete JSON object without the trailing newline.
  virtual void write(std::string_view line) = 0;

  /// String fields every subsequent Event stamps right after "type"/"slot",
  /// in the given (already sorted) order — multi-tenant attribution, e.g.
  /// {{"job", "job-007"}}.  Empty (the default) adds nothing, so
  /// single-tenant traces are byte-identical to the pre-scope format.
  void set_scope(std::vector<std::pair<std::string, std::string>> scope) {
    scope_ = std::move(scope);
  }
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& scope() const noexcept {
    return scope_;
  }

 private:
  std::vector<std::pair<std::string, std::string>> scope_;
};

/// Accumulates the trace in memory — tests diff str() byte-for-byte.
class MemoryTraceSink final : public TraceSink {
 public:
  void write(std::string_view line) override;
  [[nodiscard]] const std::string& str() const noexcept { return buffer_; }
  [[nodiscard]] std::size_t lines() const noexcept { return lines_; }
  void clear() noexcept;

 private:
  std::string buffer_;
  std::size_t lines_ = 0;
};

/// Streams the trace to a file, one line per event.  Throws dragster::Error
/// if the file cannot be opened; flushes on destruction.
class FileTraceSink final : public TraceSink {
 public:
  explicit FileTraceSink(const std::string& path);
  ~FileTraceSink() override;
  FileTraceSink(const FileTraceSink&) = delete;
  FileTraceSink& operator=(const FileTraceSink&) = delete;

  void write(std::string_view line) override;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  void* file_ = nullptr;  ///< std::FILE*, kept opaque to keep the header light
};

/// Scoped builder for one trace event.  The "type" and "slot" fields always
/// come first so readers can route lines without parsing the whole object.
class Event {
 public:
  Event(TraceSink& sink, std::string_view type, std::uint64_t slot);
  ~Event();
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  Event& field(std::string_view key, double value);
  Event& field(std::string_view key, std::int64_t value);
  Event& field(std::string_view key, std::uint64_t value);
  Event& field(std::string_view key, int value) {
    return field(key, static_cast<std::int64_t>(value));
  }
  Event& field(std::string_view key, bool value);
  Event& field(std::string_view key, std::string_view value);
  Event& field(std::string_view key, const char* value) {
    return field(key, std::string_view(value));
  }

 private:
  void begin_field(std::string_view key);

  TraceSink* sink_;
  std::string line_;
};

}  // namespace dragster::obs
