#include "obs/trace.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace dragster::obs {

std::string format_double(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0.0 ? "+Inf" : "-Inf";
  // The %.15g / %.16g / %.17g loop: the first precision that parses back to
  // the same value.  to_chars(general, p) prints the bytes of "%.*g".
  char buf[40];
  char* end = buf;
  for (int precision = 15; precision <= 17; ++precision) {
    end = std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::general, precision).ptr;
    double parsed = 0.0;
    std::from_chars(buf, end, parsed);
    // draglint:allow(DL004 round-trip test: the printed text must parse back to the same bits)
    if (parsed == value) break;
  }
  return std::string(buf, end);
}

void append_json_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void MemoryTraceSink::write(std::string_view line) {
  buffer_.append(line);
  buffer_.push_back('\n');
  ++lines_;
}

void MemoryTraceSink::clear() noexcept {
  buffer_.clear();
  lines_ = 0;
}

FileTraceSink::FileTraceSink(const std::string& path) : path_(path) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  DRAGSTER_REQUIRE(file != nullptr, "cannot open trace file '" + path + "'");
  file_ = file;
}

FileTraceSink::~FileTraceSink() {
  if (file_ != nullptr) std::fclose(static_cast<std::FILE*>(file_));
}

void FileTraceSink::write(std::string_view line) {
  auto* file = static_cast<std::FILE*>(file_);
  std::fwrite(line.data(), 1, line.size(), file);
  std::fputc('\n', file);
}

Event::Event(TraceSink& sink, std::string_view type, std::uint64_t slot) : sink_(&sink) {
  line_.reserve(160);
  line_ += "{\"type\":\"";
  append_json_escaped(line_, type);
  line_ += "\",\"slot\":";
  line_ += std::to_string(slot);
  // Scope fields come right after the routing header so a reader can filter
  // by tenant without parsing the event-specific payload.
  for (const auto& [key, value] : sink.scope()) field(key, std::string_view(value));
}

Event::~Event() {
  line_ += '}';
  sink_->write(line_);
}

void Event::begin_field(std::string_view key) {
  line_ += ",\"";
  append_json_escaped(line_, key);
  line_ += "\":";
}

Event& Event::field(std::string_view key, double value) {
  begin_field(key);
  if (std::isfinite(value)) {
    line_ += format_double(value);
  } else {  // JSON has no NaN/Inf literals; keep the line parseable
    line_ += '"';
    line_ += format_double(value);
    line_ += '"';
  }
  return *this;
}

Event& Event::field(std::string_view key, std::int64_t value) {
  begin_field(key);
  line_ += std::to_string(value);
  return *this;
}

Event& Event::field(std::string_view key, std::uint64_t value) {
  begin_field(key);
  line_ += std::to_string(value);
  return *this;
}

Event& Event::field(std::string_view key, bool value) {
  begin_field(key);
  line_ += value ? "true" : "false";
  return *this;
}

Event& Event::field(std::string_view key, std::string_view value) {
  begin_field(key);
  line_ += '"';
  append_json_escaped(line_, value);
  line_ += '"';
  return *this;
}

}  // namespace dragster::obs
