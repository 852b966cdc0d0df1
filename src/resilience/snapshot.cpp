#include "resilience/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/error.hpp"

namespace dragster::resilience {

namespace {

constexpr const char* kHeader = "dragster-snapshot v1";

bool valid_name(const std::string& name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
           c == '_' || c == '-' || c == '.';
  });
}

}  // namespace

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::string encode_double(double value) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", value);
  return buf;
}

double decode_double(const std::string& text) {
  const char* begin = text.c_str();
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  DRAGSTER_REQUIRE(end != begin && *end == '\0',
                   "snapshot holds a malformed double '" + text + "'");
  return value;
}

// -- SnapshotWriter ----------------------------------------------------------

void SnapshotWriter::begin_section(const std::string& name) {
  DRAGSTER_REQUIRE(valid_name(name), "bad snapshot section name '" + name + "'");
  DRAGSTER_REQUIRE(std::find(seen_sections_.begin(), seen_sections_.end(), name) ==
                       seen_sections_.end(),
                   "duplicate snapshot section '" + name + "'");
  seen_sections_.push_back(name);
  current_section_ = name;
  keys_in_section_.clear();
  body_ += '[' + name + "]\n";
}

void SnapshotWriter::line(const std::string& key, const std::string& typed_payload) {
  DRAGSTER_REQUIRE(!current_section_.empty(), "snapshot field '" + key + "' outside any section");
  DRAGSTER_REQUIRE(valid_name(key), "bad snapshot key '" + key + "'");
  DRAGSTER_REQUIRE(keys_in_section_.emplace(key, 1).second,
                   "duplicate snapshot key '" + key + "' in section '" + current_section_ + "'");
  body_ += key + ' ' + typed_payload + '\n';
}

void SnapshotWriter::field(const std::string& key, double value) {
  line(key, "f " + encode_double(value));
}

void SnapshotWriter::field(const std::string& key, std::int64_t value) {
  line(key, "i " + std::to_string(value));
}

void SnapshotWriter::field(const std::string& key, std::uint64_t value) {
  line(key, "u " + std::to_string(value));
}

void SnapshotWriter::field(const std::string& key, const std::string& value) {
  DRAGSTER_REQUIRE(value.find('\n') == std::string::npos,
                   "snapshot string field '" + key + "' must be single-line");
  line(key, "s " + value);
}

void SnapshotWriter::field(const std::string& key, std::span<const double> values) {
  std::string payload = "fv " + std::to_string(values.size());
  for (double v : values) payload += ' ' + encode_double(v);
  line(key, payload);
}

void SnapshotWriter::field(const std::string& key, std::span<const int> values) {
  std::string payload = "iv " + std::to_string(values.size());
  for (int v : values) payload += ' ' + std::to_string(v);
  line(key, payload);
}

std::string SnapshotWriter::str() const {
  std::string doc = std::string(kHeader) + '\n' + body_;
  doc += "!checksum " + std::to_string(fnv1a64(doc)) + '\n';
  return doc;
}

// -- SnapshotReader ----------------------------------------------------------

SnapshotReader::SnapshotReader(const std::string& text) {
  std::istringstream in(text);
  std::string header;
  DRAGSTER_REQUIRE(std::getline(in, header) && header == kHeader,
                   "not a dragster snapshot (bad header '" + header + "')");

  // Everything up to the checksum line participates in the checksum.
  std::string hashed = header + '\n';
  Section* section = nullptr;
  std::string line_text;
  bool checksum_seen = false;
  while (std::getline(in, line_text)) {
    if (line_text.rfind("!checksum ", 0) == 0) {
      const std::string claimed = line_text.substr(10);
      char* end = nullptr;
      const std::uint64_t value = std::strtoull(claimed.c_str(), &end, 10);
      DRAGSTER_REQUIRE(end != claimed.c_str() && *end == '\0',
                       "malformed snapshot checksum '" + claimed + "'");
      DRAGSTER_REQUIRE(value == fnv1a64(hashed), "snapshot checksum mismatch (corrupt snapshot)");
      checksum_seen = true;
      break;
    }
    hashed += line_text + '\n';
    if (line_text.empty()) continue;
    if (line_text.front() == '[') {
      DRAGSTER_REQUIRE(line_text.back() == ']', "malformed section line '" + line_text + "'");
      const std::string name = line_text.substr(1, line_text.size() - 2);
      DRAGSTER_REQUIRE(valid_name(name), "bad snapshot section name '" + name + "'");
      DRAGSTER_REQUIRE(sections_.find(name) == sections_.end(),
                       "duplicate snapshot section '" + name + "'");
      section = &sections_[name];
      section_order_.push_back(name);
      continue;
    }
    DRAGSTER_REQUIRE(section != nullptr, "snapshot field before any section: '" + line_text + "'");
    const std::size_t key_end = line_text.find(' ');
    DRAGSTER_REQUIRE(key_end != std::string::npos && key_end + 1 < line_text.size(),
                     "malformed snapshot line '" + line_text + "'");
    Field field;
    const std::string key = line_text.substr(0, key_end);
    std::size_t tag_end = line_text.find(' ', key_end + 1);
    if (tag_end == std::string::npos) tag_end = line_text.size();
    const std::string tag = line_text.substr(key_end + 1, tag_end - key_end - 1);
    DRAGSTER_REQUIRE(tag == "f" || tag == "i" || tag == "u" || tag == "s" || tag == "fv" ||
                         tag == "iv",
                     "unknown snapshot type tag '" + tag + "' in line '" + line_text + "'");
    field.tag = tag.size() == 2 ? (tag[0] == 'f' ? 'F' : 'I') : tag[0];
    field.payload = tag_end < line_text.size() ? line_text.substr(tag_end + 1) : std::string();
    DRAGSTER_REQUIRE(section->emplace(key, std::move(field)).second,
                     "duplicate snapshot key '" + key + "'");
  }
  DRAGSTER_REQUIRE(checksum_seen, "snapshot is truncated (missing checksum line)");
}

bool SnapshotReader::has_section(const std::string& name) const {
  return sections_.find(name) != sections_.end();
}

void SnapshotReader::enter_section(const std::string& name) {
  const auto it = sections_.find(name);
  DRAGSTER_REQUIRE(it != sections_.end(), "snapshot has no section '" + name + "'");
  current_ = &it->second;
  current_name_ = name;
}

const SnapshotReader::Field& SnapshotReader::lookup(const std::string& key, char tag) const {
  DRAGSTER_REQUIRE(current_ != nullptr, "enter_section() before reading snapshot fields");
  const auto it = current_->find(key);
  DRAGSTER_REQUIRE(it != current_->end(),
                   "snapshot section '" + current_name_ + "' has no key '" + key + "'");
  DRAGSTER_REQUIRE(it->second.tag == tag, "snapshot key '" + key + "' has the wrong type");
  return it->second;
}

bool SnapshotReader::has_key(const std::string& key) const {
  DRAGSTER_REQUIRE(current_ != nullptr, "enter_section() before reading snapshot fields");
  return current_->find(key) != current_->end();
}

double SnapshotReader::get_double(const std::string& key) const {
  return decode_double(lookup(key, 'f').payload);
}

std::int64_t SnapshotReader::get_int(const std::string& key) const {
  const std::string& payload = lookup(key, 'i').payload;
  char* end = nullptr;
  const long long value = std::strtoll(payload.c_str(), &end, 10);
  DRAGSTER_REQUIRE(end != payload.c_str() && *end == '\0',
                   "snapshot key '" + key + "' holds a malformed integer '" + payload + "'");
  return value;
}

std::uint64_t SnapshotReader::get_uint(const std::string& key) const {
  const std::string& payload = lookup(key, 'u').payload;
  DRAGSTER_REQUIRE(!payload.empty() && payload[0] != '-',
                   "snapshot key '" + key + "' holds a negative value '" + payload + "'");
  char* end = nullptr;
  const std::uint64_t value = std::strtoull(payload.c_str(), &end, 10);
  DRAGSTER_REQUIRE(end != payload.c_str() && *end == '\0',
                   "snapshot key '" + key + "' holds a malformed integer '" + payload + "'");
  return value;
}

std::string SnapshotReader::get_string(const std::string& key) const {
  return lookup(key, 's').payload;
}

std::vector<double> SnapshotReader::get_doubles(const std::string& key) const {
  const std::string& payload = lookup(key, 'F').payload;
  std::istringstream in(payload);
  std::size_t count = 0;
  DRAGSTER_REQUIRE(static_cast<bool>(in >> count),
                   "snapshot vector '" + key + "' is missing its count");
  // Every element takes at least two bytes, so a count above the payload
  // length is corrupt; checking first keeps reserve() from a bogus request.
  DRAGSTER_REQUIRE(count <= payload.size(), "snapshot vector '" + key + "' is truncated");
  std::vector<double> values;
  values.reserve(count);
  std::string token;
  for (std::size_t i = 0; i < count; ++i) {
    DRAGSTER_REQUIRE(static_cast<bool>(in >> token), "snapshot vector '" + key + "' is truncated");
    values.push_back(decode_double(token));
  }
  DRAGSTER_REQUIRE(!(in >> token), "snapshot vector '" + key + "' has trailing data");
  return values;
}

std::vector<int> SnapshotReader::get_ints(const std::string& key) const {
  const std::string& payload = lookup(key, 'I').payload;
  std::istringstream in(payload);
  std::size_t count = 0;
  DRAGSTER_REQUIRE(static_cast<bool>(in >> count),
                   "snapshot vector '" + key + "' is missing its count");
  DRAGSTER_REQUIRE(count <= payload.size(), "snapshot vector '" + key + "' is truncated");
  std::vector<int> values;
  values.reserve(count);
  int value = 0;
  for (std::size_t i = 0; i < count; ++i) {
    DRAGSTER_REQUIRE(static_cast<bool>(in >> value), "snapshot vector '" + key + "' is truncated");
    values.push_back(value);
  }
  std::string token;
  DRAGSTER_REQUIRE(!(in >> token), "snapshot vector '" + key + "' has trailing data");
  return values;
}

}  // namespace dragster::resilience
