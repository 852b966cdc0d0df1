// Gaussian-process regression with noisy observations (paper eq. 17).
//
// One instance models one operator's capacity function y_i(x_i); the
// controller appends an observation per slot.  Every input the controller
// produces lies on the finite configuration grid X, and under the paper's
// i.i.d. noise model (c = y + eps, eps ~ N(0, sigma^2)) n samples at one x
// condition the posterior exactly like one sample of their mean with noise
// sigma^2 / n.  So the model keeps one row per distinct input — the input,
// its sample count and the sum of its targets — and factors the m x m matrix
// K + sigma^2 diag(1/count) over the m <= |X| visited inputs.  The cost of an
// update or a prediction is bounded by |X|, not by the number of slots.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "gp/kernel.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "resilience/snapshot.hpp"

namespace dragster::gp {

struct Posterior {
  double mean = 0.0;
  double variance = 0.0;
};

class GaussianProcess {
 public:
  /// `noise_variance` is sigma^2 of the observation model c = y + eps.
  /// `prior_mean` is the constant GP mean m(x); capacity priors are centred
  /// on a rough capacity scale rather than zero so the first UCB steps are
  /// sensible.
  GaussianProcess(std::unique_ptr<Kernel> kernel, double noise_variance, double prior_mean = 0.0);

  GaussianProcess(const GaussianProcess& other);
  GaussianProcess& operator=(const GaussianProcess& other);
  GaussianProcess(GaussianProcess&&) noexcept = default;
  GaussianProcess& operator=(GaussianProcess&&) noexcept = default;

  /// Adds one (x, y) sample to the row of input x (a new row when x was
  /// never seen; rows match on exact coordinates) and refactors the
  /// posterior.  Throws dragster::Error on a non-finite input or target, or
  /// when the row's sum would overflow.
  void add_observation(const std::vector<double>& x, double y);

  /// Posterior mean/variance at a point (paper eq. 17).  With no
  /// observations, returns the prior.
  [[nodiscard]] Posterior predict(std::span<const double> x) const;

  /// predict() at `count` query points packed row-major in `xs`
  /// (count * dimension doubles); out[q] receives the posterior at query q.
  void predict_batch(std::span<const double> xs, std::size_t count,
                     std::span<Posterior> out) const;

  /// Every sample added so far, repeats included.
  [[nodiscard]] std::size_t num_observations() const noexcept;
  /// Rows of the table: the number of distinct inputs observed.
  [[nodiscard]] std::size_t distinct_inputs() const noexcept { return counts_.size(); }
  [[nodiscard]] double noise_variance() const noexcept { return noise_variance_; }
  [[nodiscard]] double prior_mean() const noexcept { return prior_mean_; }
  [[nodiscard]] const Kernel& kernel() const noexcept { return *kernel_; }

  /// Drops all observations but keeps hyperparameters.
  void reset();

  /// Writes the hyperparameters and the table into the writer's current
  /// section (keys prefixed `gp_`): `gp_inputs` row-major, `gp_counts` and
  /// `gp_sums`.  The factor is not serialized; load_state() rebuilds it from
  /// the table exactly as add_observation() does, so the restored posterior
  /// is bit-identical to the saved one.
  void save_state(resilience::SnapshotWriter& writer) const;

  /// Restores from a section written by save_state().  The kernel must
  /// already be configured identically (dimension and hyperparameters are
  /// validated).  Throws dragster::Error on a table whose sizes disagree with
  /// `gp_dim`, a count <= 0, a non-finite input or sum, or a repeated input
  /// row; the GP is left unchanged then.
  void load_state(const resilience::SnapshotReader& reader);

 private:
  [[nodiscard]] std::span<const double> row(std::size_t r) const;
  /// Index of the row whose input equals `x`, or distinct_inputs() if none.
  [[nodiscard]] std::size_t find_row(std::span<const double> x) const;
  /// Factors K + sigma^2 diag(1/count) over the table and solves for alpha.
  void refactor();

  std::unique_ptr<Kernel> kernel_;
  double noise_variance_;
  double prior_mean_;
  std::vector<double> inputs_;  // distinct inputs, row-major, first-seen order
  std::vector<int> counts_;     // samples per row
  std::vector<double> sums_;    // sum of the samples' targets per row
  // draglint:allow(DL009 posterior factor derived from the table via refactor)
  std::optional<linalg::Cholesky> chol_;  // factor of K + sigma^2 diag(1/count)
  // draglint:allow(DL009 posterior weights derived from the table via refactor)
  linalg::Vector alpha_;  // (K + sigma^2 diag(1/count))^{-1} (sum/count - m)
};

/// Paper UCB weight: beta_t = 2 log(|X| t^2 pi^2 delta / 6), delta > 1.
/// Clamped below at a small positive value so early slots still explore.
[[nodiscard]] double ucb_beta(std::size_t num_candidates, std::size_t t, double delta);

}  // namespace dragster::gp
