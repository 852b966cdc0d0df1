#include "common/rng.hpp"

namespace dragster::common {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// FNV-1a over the label bytes: cheap, stable stream identifiers.
std::uint64_t hash_label(std::string_view label) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : label) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

Rng Rng::substream(std::string_view label, std::uint64_t index) const noexcept {
  std::uint64_t mix = state_[0] ^ rotl(state_[1], 17) ^ hash_label(label);
  mix = mix * 0xd1342543de82ef95ULL + index;
  return Rng(mix);
}

double Rng::uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  if (hi <= lo) return lo;
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_u64() % span);
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

}  // namespace dragster::common
