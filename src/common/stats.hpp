// Streaming summary statistics and small numeric helpers.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace dragster::common {

/// Welford-style running mean/variance accumulator.
class RunningStats {
 public:
  void add(double value) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Linear-interpolated percentile; `q` in [0, 1].  Copies and sorts.
[[nodiscard]] double percentile(std::span<const double> values, double q);

}  // namespace dragster::common
