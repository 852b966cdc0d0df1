#include "gp/gaussian_process.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "common/error.hpp"

namespace dragster::gp {

GaussianProcess::GaussianProcess(std::unique_ptr<Kernel> kernel, double noise_variance,
                                 double prior_mean)
    : kernel_(std::move(kernel)), noise_variance_(noise_variance), prior_mean_(prior_mean) {
  DRAGSTER_REQUIRE(kernel_ != nullptr, "GaussianProcess requires a kernel");
  DRAGSTER_REQUIRE(noise_variance_ > 0.0, "noise variance must be positive");
}

GaussianProcess::GaussianProcess(const GaussianProcess& other)
    : kernel_(other.kernel_->clone()),
      noise_variance_(other.noise_variance_),
      prior_mean_(other.prior_mean_),
      inputs_(other.inputs_),
      counts_(other.counts_),
      sums_(other.sums_),
      chol_(other.chol_),
      alpha_(other.alpha_) {}

GaussianProcess& GaussianProcess::operator=(const GaussianProcess& other) {
  if (this == &other) return *this;
  GaussianProcess copy(other);
  *this = std::move(copy);
  return *this;
}

std::span<const double> GaussianProcess::row(std::size_t r) const {
  const std::size_t d = kernel_->dimension();
  return std::span<const double>(inputs_).subspan(r * d, d);
}

std::size_t GaussianProcess::find_row(std::span<const double> x) const {
  // Inputs are grid coordinates (task counts, cpu candidates), so a repeat
  // is the same configuration exactly when every coordinate compares equal.
  for (std::size_t r = 0; r < counts_.size(); ++r)
    if (std::ranges::equal(row(r), x)) return r;
  return counts_.size();
}

void GaussianProcess::add_observation(const std::vector<double>& x, double y) {
  DRAGSTER_REQUIRE(x.size() == kernel_->dimension(), "observation dimension mismatch");
  for (double v : x) DRAGSTER_REQUIRE(std::isfinite(v), "observation input must be finite");
  DRAGSTER_REQUIRE(std::isfinite(y), "observation target must be finite");

  const std::size_t r = find_row(x);
  if (r == counts_.size()) {
    inputs_.insert(inputs_.end(), x.begin(), x.end());
    counts_.push_back(0);
    sums_.push_back(0.0);
  }
  DRAGSTER_REQUIRE(counts_[r] < std::numeric_limits<int>::max() && std::isfinite(sums_[r] + y),
                   "observation row count or sum would overflow");
  counts_[r] += 1;
  sums_[r] += y;
  refactor();
}

void GaussianProcess::refactor() {
  const std::size_t m = counts_.size();
  linalg::Matrix k(m, m);
  linalg::Vector centered(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < i; ++j) k(i, j) = k(j, i) = (*kernel_)(row(i), row(j));
    const double count = counts_[i];
    k(i, i) = (*kernel_)(row(i), row(i)) + noise_variance_ / count;
    centered[i] = sums_[i] / count - prior_mean_;
  }
  chol_.emplace(k);
  alpha_ = chol_->solve(centered);
}

Posterior GaussianProcess::predict(std::span<const double> x) const {
  DRAGSTER_REQUIRE(x.size() == kernel_->dimension(), "prediction dimension mismatch");
  if (counts_.empty()) return {prior_mean_, kernel_->prior_variance()};

  linalg::Vector k(counts_.size());
  for (std::size_t i = 0; i < k.size(); ++i) k[i] = (*kernel_)(row(i), x);

  Posterior post;
  post.mean = prior_mean_ + linalg::dot(k, alpha_);
  // variance = k(x,x) - k^T (K + s^2 D)^{-1} k, computed via v = L^{-1} k.
  const linalg::Vector v = chol_->solve_lower(k);
  post.variance = (*kernel_)(x, x) - linalg::dot(v, v);
  if (post.variance < 0.0) post.variance = 0.0;  // guard FP round-off
  return post;
}

void GaussianProcess::predict_batch(std::span<const double> xs, std::size_t count,
                                    std::span<Posterior> out) const {
  const std::size_t d = kernel_->dimension();
  DRAGSTER_REQUIRE(xs.size() == count * d, "predict_batch: packed query size mismatch");
  DRAGSTER_REQUIRE(out.size() == count, "predict_batch: output size mismatch");
  for (std::size_t q = 0; q < count; ++q) out[q] = predict(xs.subspan(q * d, d));
}

std::size_t GaussianProcess::num_observations() const noexcept {
  std::size_t total = 0;
  for (int count : counts_) total += static_cast<std::size_t>(count);
  return total;
}

void GaussianProcess::reset() {
  inputs_.clear();
  counts_.clear();
  sums_.clear();
  alpha_.clear();
  chol_.reset();
}

void GaussianProcess::save_state(resilience::SnapshotWriter& writer) const {
  writer.field("gp_dim", static_cast<std::uint64_t>(kernel_->dimension()));
  writer.field("gp_inputs", std::span<const double>(inputs_));
  writer.field("gp_counts", std::span<const int>(counts_));
  writer.field("gp_sums", std::span<const double>(sums_));
  writer.field("gp_noise", noise_variance_);
  writer.field("gp_prior_mean", prior_mean_);
}

void GaussianProcess::load_state(const resilience::SnapshotReader& reader) {
  const std::size_t dim = reader.get_uint("gp_dim");
  DRAGSTER_REQUIRE(dim == kernel_->dimension(), "snapshot GP dimension mismatch");
  DRAGSTER_REQUIRE(reader.get_double("gp_noise") == noise_variance_,
                   "snapshot GP noise variance mismatch");
  DRAGSTER_REQUIRE(reader.get_double("gp_prior_mean") == prior_mean_,
                   "snapshot GP prior mean mismatch");
  GaussianProcess restored(kernel_->clone(), noise_variance_, prior_mean_);
  restored.inputs_ = reader.get_doubles("gp_inputs");
  restored.counts_ = reader.get_ints("gp_counts");
  restored.sums_ = reader.get_doubles("gp_sums");
  const std::size_t rows = restored.counts_.size();
  DRAGSTER_REQUIRE(restored.inputs_.size() == rows * dim && restored.sums_.size() == rows,
                   "snapshot GP table sizes disagree with gp_dim");
  for (std::size_t r = 0; r < rows; ++r) {
    DRAGSTER_REQUIRE(restored.counts_[r] > 0, "snapshot GP row count must be positive");
    DRAGSTER_REQUIRE(std::isfinite(restored.sums_[r]), "snapshot GP row sum must be finite");
    for (double v : restored.row(r))
      DRAGSTER_REQUIRE(std::isfinite(v), "snapshot GP input must be finite");
    DRAGSTER_REQUIRE(restored.find_row(restored.row(r)) == r,
                     "snapshot GP table repeats an input row");
  }
  if (rows > 0) restored.refactor();
  *this = std::move(restored);
}

double ucb_beta(std::size_t num_candidates, std::size_t t, double delta) {
  DRAGSTER_REQUIRE(num_candidates > 0, "need at least one candidate");
  DRAGSTER_REQUIRE(delta > 1.0, "paper requires delta in (1, inf)");
  const double tt = static_cast<double>(t == 0 ? 1 : t);
  const double pi_sq = std::numbers::pi * std::numbers::pi;
  const double beta =
      2.0 * std::log(static_cast<double>(num_candidates) * tt * tt * pi_sq * delta / 6.0);
  return beta > 0.0 ? beta : 1e-3;
}

}  // namespace dragster::gp
