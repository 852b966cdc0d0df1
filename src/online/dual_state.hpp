// Dual-variable bookkeeping for the long-term buffer constraint.
//
// Paper eq. (15): lambda_i(t) = max{0, lambda_i(t-1) + gamma * l_i(y_i(t))}
// with gamma = 1/sqrt(t) for the regret bound.  Each multiplier tracks how
// much operator i has historically under-provisioned; a large lambda pushes
// the saddle-point step to allocate more capacity there.
#pragma once

#include <span>
#include <vector>

#include "resilience/snapshot.hpp"

namespace dragster::online {

class DualState {
 public:
  /// `size` is the node count (multipliers are node-indexed; non-operator
  /// entries stay at zero).  `gamma0` scales the step; with `decay` the
  /// effective step at slot t is gamma0/sqrt(t) as in Theorem 1.
  DualState(std::size_t size, double gamma0, bool decay = true);

  /// Applies eq. (15) with the slot's constraint values l_i(y_i(t)).
  /// Non-finite entries are skipped (treated as inactive) and counted; a
  /// supervisor watching non_finite_observations() can trip a health
  /// invariant instead of the divergence hiding forever.
  void update(std::span<const double> constraints);

  [[nodiscard]] const std::vector<double>& lambda() const noexcept { return lambda_; }
  [[nodiscard]] double gamma_at(std::size_t t) const noexcept;
  [[nodiscard]] std::size_t slot() const noexcept { return slot_; }
  [[nodiscard]] double norm() const;

  /// Total constraint entries skipped as NaN/inf across all updates.
  [[nodiscard]] std::size_t non_finite_observations() const noexcept { return non_finite_; }
  /// Entries skipped in the most recent update() alone.
  [[nodiscard]] std::size_t last_update_non_finite() const noexcept {
    return last_non_finite_;
  }

  void reset();

  /// Snapshot hooks: fields prefixed `dual_` in the writer's current section.
  /// load_state() either restores every field or throws and changes nothing.
  void save_state(resilience::SnapshotWriter& writer) const;
  void load_state(const resilience::SnapshotReader& reader);

 private:
  std::vector<double> lambda_;
  double gamma0_;
  bool decay_;
  std::size_t slot_ = 0;
  std::size_t non_finite_ = 0;
  std::size_t last_non_finite_ = 0;
};

}  // namespace dragster::online
