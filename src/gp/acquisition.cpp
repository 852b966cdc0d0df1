#include "gp/acquisition.hpp"

#include "common/error.hpp"

namespace dragster::gp {

std::optional<AcquisitionResult> select_ucb(const GaussianProcess& gp,
                                            std::span<const Candidate> candidates, double beta,
                                            const Feasible& feasible) {
  DRAGSTER_REQUIRE(beta >= 0.0, "beta must be non-negative");
  std::optional<AcquisitionResult> best;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (feasible && !feasible(candidates[i])) continue;
    const Posterior post = gp.predict(candidates[i]);
    const double score = post.mean + beta * post.variance;
    if (!best || score > best->score) best = AcquisitionResult{i, score, post};
  }
  return best;
}

std::vector<Candidate> integer_grid(std::size_t dims, int lo, int hi) {
  DRAGSTER_REQUIRE(dims > 0, "grid needs at least one dimension");
  DRAGSTER_REQUIRE(hi >= lo, "grid range is empty");
  const std::size_t span = static_cast<std::size_t>(hi - lo) + 1;
  std::vector<Candidate> grid;
  std::size_t total = 1;
  for (std::size_t d = 0; d < dims; ++d) {
    DRAGSTER_REQUIRE(total <= 10'000'000 / span, "grid too large to enumerate");
    total *= span;
  }
  grid.reserve(total);
  Candidate current(dims, static_cast<double>(lo));
  for (std::size_t n = 0; n < total; ++n) {
    grid.push_back(current);
    for (std::size_t d = 0; d < dims; ++d) {
      if (current[d] < static_cast<double>(hi)) {
        current[d] += 1.0;
        break;
      }
      current[d] = static_cast<double>(lo);
    }
  }
  return grid;
}

}  // namespace dragster::gp
