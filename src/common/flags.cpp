#include "common/flags.hpp"

#include <charconv>

#include "common/error.hpp"

namespace dragster::common {

namespace {

const std::string& required(const std::string& name, const std::optional<std::string>& value) {
  DRAGSTER_REQUIRE(value.has_value(), "flag --" + name + " needs a value");
  return *value;
}

template <typename Number>
Number to_number(const std::string& name, const std::optional<std::string>& value) {
  const std::string& text = required(name, value);
  Number number{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, number);
  DRAGSTER_REQUIRE(!text.empty() && stop == end && error == std::errc(),
                   "flag --" + name + " needs a number, got '" + text + "'");
  return number;
}

}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string name = argv[i];
    DRAGSTER_REQUIRE(name.rfind("--", 0) == 0, "unexpected argument '" + name + "'");
    name.erase(0, 2);
    std::optional<std::string> value;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.erase(eq);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    }
    DRAGSTER_REQUIRE(values_.emplace(name, std::move(value)).second,
                     "flag --" + name + " given twice");
  }
}

const std::optional<std::string>* Flags::find(const std::string& name) const {
  queried_[name] = true;
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool Flags::has(const std::string& name) const { return find(name) != nullptr; }

std::string Flags::get(const std::string& name, const std::string& fallback) const {
  const auto* value = find(name);
  return value == nullptr ? fallback : required(name, *value);
}

double Flags::get(const std::string& name, double fallback) const {
  const auto* value = find(name);
  return value == nullptr ? fallback : to_number<double>(name, *value);
}

std::int64_t Flags::get(const std::string& name, std::int64_t fallback) const {
  const auto* value = find(name);
  return value == nullptr ? fallback : to_number<std::int64_t>(name, *value);
}

bool Flags::get(const std::string& name, bool fallback) const {
  const auto* value = find(name);
  if (value == nullptr) return fallback;
  if (!value->has_value()) return true;  // bare `--name`
  const std::string& text = **value;
  if (text == "true" || text == "1" || text == "yes") return true;
  DRAGSTER_REQUIRE(text == "false" || text == "0" || text == "no",
                   "flag --" + name + " needs true/false/1/0/yes/no, got '" + text + "'");
  return false;
}

std::vector<std::string> Flags::unused() const {
  std::vector<std::string> names;
  for (const auto& [name, value] : values_) {
    (void)value;
    if (!queried_.count(name)) names.push_back(name);
  }
  return names;
}

void Flags::reject_unused() const {
  std::string names;
  for (const std::string& name : unused()) names += (names.empty() ? "--" : ", --") + name;
  DRAGSTER_REQUIRE(names.empty(), "unknown flag " + names);
}

}  // namespace dragster::common
