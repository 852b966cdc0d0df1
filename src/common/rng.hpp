// Deterministic, splittable random number generation.
//
// Every source of randomness in the repository derives from a single root
// seed through named substreams, so a whole experiment (simulator noise,
// workload arrivals, solver tie-breaking) is reproducible bit-for-bit from
// one uint64.  The generator is SplitMix64 for stream derivation and
// xoshiro256** for the sampling stream — both tiny, fast and adequate for
// simulation noise (we make no cryptographic claims).
//
// The per-draw samplers (next_u64, uniform, normal) are defined in this
// header so they inline into the simulator's micro-step; the rest lives in
// rng.cpp.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>
#include <string_view>

namespace dragster::common {

/// Counter-based stream-splitting RNG.
class Rng {
 public:
  /// Constructs a generator from a raw 64-bit seed.
  explicit Rng(std::uint64_t seed) noexcept;

  /// Derives an independent child stream identified by a label and index.
  /// Children with distinct (label, index) pairs are statistically
  /// independent of each other and of the parent.
  [[nodiscard]] Rng substream(std::string_view label, std::uint64_t index = 0) const noexcept;

  /// Uniform in [0, 2^64).
  [[nodiscard]] std::uint64_t next_u64() noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] (inclusive).
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Box-Muller (cached pair for efficiency).
  [[nodiscard]] double normal() noexcept;

  /// Normal with the given mean / standard deviation.
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// True with probability p (clamped to [0, 1]).
  [[nodiscard]] bool bernoulli(double p) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

inline std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

inline double Rng::uniform() noexcept {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

inline double Rng::normal() noexcept {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(angle);
  has_cached_normal_ = true;
  return radius * std::cos(angle);
}

inline double Rng::normal(double mean, double stddev) noexcept { return mean + stddev * normal(); }

}  // namespace dragster::common
