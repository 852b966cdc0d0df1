#include "streamsim/rate_schedule.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.hpp"

namespace dragster::streamsim {

ConstantRate::ConstantRate(double rate) : rate_(rate) {
  DRAGSTER_REQUIRE(rate >= 0.0, "rate cannot be negative");
}

PiecewiseRate::PiecewiseRate(std::vector<Segment> segments) : segments_(std::move(segments)) {
  DRAGSTER_REQUIRE(!segments_.empty(), "piecewise schedule needs segments");
  DRAGSTER_REQUIRE(segments_.front().start_seconds <= 0.0,
                   "first segment must start at or before t=0");
  for (std::size_t i = 1; i < segments_.size(); ++i)
    DRAGSTER_REQUIRE(segments_[i].start_seconds > segments_[i - 1].start_seconds,
                     "segments must be strictly increasing in time");
  for (const Segment& s : segments_) DRAGSTER_REQUIRE(s.rate >= 0.0, "rate cannot be negative");
}

double PiecewiseRate::rate_at(double seconds) const {
  double rate = segments_.front().rate;
  for (const Segment& s : segments_) {
    if (s.start_seconds <= seconds) rate = s.rate;
    else break;
  }
  return rate;
}

AlternatingRate::AlternatingRate(double high, double low, double period_seconds)
    : high_(high), low_(low), period_(period_seconds) {
  DRAGSTER_REQUIRE(high >= 0.0 && low >= 0.0, "rates cannot be negative");
  DRAGSTER_REQUIRE(period_seconds > 0.0, "period must be positive");
}

double AlternatingRate::rate_at(double seconds) const {
  const auto phase = static_cast<long long>(std::floor(seconds / period_));
  return phase % 2 == 0 ? high_ : low_;
}

DiurnalRate::DiurnalRate(double mean, double amplitude, double period_seconds)
    : mean_(mean), amplitude_(amplitude), period_(period_seconds) {
  DRAGSTER_REQUIRE(mean >= 0.0, "mean rate cannot be negative");
  DRAGSTER_REQUIRE(amplitude >= 0.0 && amplitude <= 1.0, "amplitude must be in [0,1]");
  DRAGSTER_REQUIRE(period_seconds > 0.0, "period must be positive");
}

double DiurnalRate::rate_at(double seconds) const {
  return mean_ * (1.0 + amplitude_ * std::sin(2.0 * std::numbers::pi * seconds / period_));
}

}  // namespace dragster::streamsim
