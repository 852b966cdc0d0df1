// Acquisition over a finite candidate set.
//
// Remark 1 of the paper: classic GP-UCB maximizes mu + beta * sigma^2 — the
// flat GP-UCB baseline's rule.  Dragster instead *tracks a target capacity*
// (eq. 18), so the chosen configuration has *just enough* capacity for the
// incoming load; DragsterController::select_configs scores that rule inline.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "gp/gaussian_process.hpp"

namespace dragster::gp {

/// A candidate configuration in GP input space.
using Candidate = std::vector<double>;

struct AcquisitionResult {
  std::size_t index = 0;       ///< winning candidate position
  double score = 0.0;          ///< acquisition value of the winner
  Posterior posterior;         ///< GP posterior at the winner
};

/// Optional feasibility filter (e.g. budget projection Pi_X): candidates for
/// which it returns false are skipped.
using Feasible = std::function<bool(const Candidate&)>;

/// Classic GP-UCB:  argmax mu + beta * sigma^2   (paper Remark 1, baseline).
[[nodiscard]] std::optional<AcquisitionResult> select_ucb(const GaussianProcess& gp,
                                                          std::span<const Candidate> candidates,
                                                          double beta,
                                                          const Feasible& feasible = {});

/// Enumerates the d-dimensional integer grid [1, limit]^d as candidates —
/// the paper's search space is "number of tasks from 1 to 10" per dimension.
[[nodiscard]] std::vector<Candidate> integer_grid(std::size_t dims, int lo, int hi);

}  // namespace dragster::gp
