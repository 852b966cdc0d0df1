#include "online/dual_state.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace dragster::online {

DualState::DualState(std::size_t size, double gamma0, bool decay)
    : lambda_(size, 0.0), gamma0_(gamma0), decay_(decay) {
  DRAGSTER_REQUIRE(gamma0 > 0.0, "gamma0 must be positive");
}

double DualState::gamma_at(std::size_t t) const noexcept {
  if (!decay_) return gamma0_;
  return gamma0_ / std::sqrt(static_cast<double>(t == 0 ? 1 : t));
}

void DualState::update(std::span<const double> constraints) {
  DRAGSTER_REQUIRE(constraints.size() == lambda_.size(), "constraint size mismatch");
  ++slot_;
  last_non_finite_ = 0;
  const double gamma = gamma_at(slot_);
  for (std::size_t i = 0; i < lambda_.size(); ++i) {
    if (!std::isfinite(constraints[i])) {
      ++non_finite_;
      ++last_non_finite_;
      continue;
    }
    lambda_[i] = std::max(0.0, lambda_[i] + gamma * constraints[i]);
  }
}

double DualState::norm() const {
  double sum = 0.0;
  for (double value : lambda_) sum += value * value;
  return std::sqrt(sum);
}

void DualState::reset() {
  std::fill(lambda_.begin(), lambda_.end(), 0.0);
  slot_ = 0;
  non_finite_ = 0;
  last_non_finite_ = 0;
}

void DualState::save_state(resilience::SnapshotWriter& writer) const {
  writer.field("dual_lambda", std::span<const double>(lambda_));
  writer.field("dual_slot", static_cast<std::uint64_t>(slot_));
  writer.field("dual_gamma0", gamma0_);
  writer.field("dual_decay", static_cast<std::uint64_t>(decay_ ? 1 : 0));
  writer.field("dual_non_finite", static_cast<std::uint64_t>(non_finite_));
  writer.field("dual_last_non_finite", static_cast<std::uint64_t>(last_non_finite_));
}

void DualState::load_state(const resilience::SnapshotReader& reader) {
  DRAGSTER_REQUIRE(reader.get_double("dual_gamma0") == gamma0_,
                   "snapshot dual gamma0 mismatch");
  DRAGSTER_REQUIRE((reader.get_uint("dual_decay") != 0) == decay_,
                   "snapshot dual decay-mode mismatch");
  std::vector<double> lambda = reader.get_doubles("dual_lambda");
  DRAGSTER_REQUIRE(lambda.size() == lambda_.size(), "snapshot dual size mismatch");
  const std::size_t slot = reader.get_uint("dual_slot");
  const std::size_t non_finite = reader.get_uint("dual_non_finite");
  const std::size_t last_non_finite = reader.get_uint("dual_last_non_finite");
  lambda_ = std::move(lambda);
  slot_ = slot;
  non_finite_ = non_finite;
  last_non_finite_ = last_non_finite;
}

}  // namespace dragster::online
