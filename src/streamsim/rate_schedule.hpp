// Offered-load schedules for sources.
//
// The paper's experiments drive sources with a constant rate, an alternating
// high/low rate flipping every 200 minutes (Fig. 6), and a one-time step
// increase (Fig. 7).  Schedules are pure functions of simulated time so
// controllers cannot peek ahead.
#pragma once

#include <vector>

namespace dragster::streamsim {

class RateSchedule {
 public:
  virtual ~RateSchedule() = default;
  /// Offered rate (tuples/s) at absolute simulated time `seconds`.
  [[nodiscard]] virtual double rate_at(double seconds) const = 0;
};

class ConstantRate final : public RateSchedule {
 public:
  explicit ConstantRate(double rate);
  [[nodiscard]] double rate_at(double) const override { return rate_; }

 private:
  double rate_;
};

/// Piecewise-constant: sorted (start_second, rate) breakpoints.
class PiecewiseRate final : public RateSchedule {
 public:
  struct Segment {
    double start_seconds;
    double rate;
  };
  explicit PiecewiseRate(std::vector<Segment> segments);
  [[nodiscard]] double rate_at(double seconds) const override;

 private:
  std::vector<Segment> segments_;
};

/// high for `period`, low for `period`, repeating — Fig. 6's workload.
class AlternatingRate final : public RateSchedule {
 public:
  AlternatingRate(double high, double low, double period_seconds);
  [[nodiscard]] double rate_at(double seconds) const override;

 private:
  double high_;
  double low_;
  double period_;
};

/// Smooth diurnal wave around a mean (used by the drift ablation):
/// rate(t) = mean * (1 + amplitude * sin(2 pi t / period)).
class DiurnalRate final : public RateSchedule {
 public:
  DiurnalRate(double mean, double amplitude, double period_seconds);
  [[nodiscard]] double rate_at(double seconds) const override;

 private:
  double mean_;
  double amplitude_;
  double period_;
};

}  // namespace dragster::streamsim
