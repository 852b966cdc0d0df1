#include "fleet/budget_arbiter.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace dragster::fleet {

namespace {

/// Additive pressure floor (eps in the header's score) so an
/// all-zero-pressure fleet still splits the surplus by weight instead of
/// granting nothing, and satisfied jobs keep a meaningful surplus share (max
/// tilt toward a pressured job is (eps + 1) / eps, since pressure is
/// squashed to [0, 1) in the score).
constexpr double kPressureEpsilon = 0.25;

}  // namespace

BudgetArbiter::BudgetArbiter(ArbiterOptions options) : options_(options) {}

std::vector<int> BudgetArbiter::split(int budget_pods,
                                      const std::vector<JobDemand>& demands) const {
  const std::size_t n = demands.size();
  std::vector<int> grants(n, 0);
  if (n == 0) return grants;

  long long floors = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const JobDemand& d = demands[i];
    DRAGSTER_REQUIRE(d.weight > 0.0, "job weight must be positive");
    DRAGSTER_REQUIRE(d.floor_pods >= 1 && d.cap_pods >= d.floor_pods,
                     "job demand needs 1 <= floor <= cap");
    DRAGSTER_REQUIRE(d.pressure >= 0.0 && std::isfinite(d.pressure),
                     "job pressure must be finite and non-negative");
    grants[i] = d.floor_pods;
    floors += d.floor_pods;
  }

  if (budget_pods <= 0) {  // unlimited: everyone gets their cap
    for (std::size_t i = 0; i < n; ++i) grants[i] = demands[i].cap_pods;
    return grants;
  }
  DRAGSTER_REQUIRE(floors <= budget_pods,
                   "job floors exceed the fleet budget (admission let too many in)");

  long long surplus = budget_pods - floors;

  // Water-fill `surplus` toward per-job `targets`, proportionally to score:
  // integer largest-remainder shares, clamped to each target; clamping frees
  // part of the surplus which the next round redistributes.  Each round
  // saturates at least one job or exhausts the surplus.
  const auto water_fill = [&](const std::vector<int>& targets, bool use_pressure) {
    while (surplus > 0) {
      double score_total = 0.0;
      std::vector<double> score(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        if (grants[i] >= targets[i]) continue;
        if (!use_pressure) {
          score[i] = demands[i].weight;
        } else {
          // Pressure squashed to [0, 1) so one job with a huge dual cannot
          // starve the rest; the tilt is bounded by (eps + 1) / eps.
          const double squashed = demands[i].pressure / (1.0 + demands[i].pressure);
          score[i] = demands[i].weight * (kPressureEpsilon + squashed);
        }
        score_total += score[i];
      }
      if (score_total <= 0.0) break;  // every job reached its target

      // Integer proportional shares via largest remainder, ties to the lower
      // job index — whole-pod arithmetic end to end.
      std::vector<long long> give(n, 0);
      std::vector<std::pair<double, std::size_t>> remainders;
      long long given = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (score[i] <= 0.0) continue;
        const double ideal = static_cast<double>(surplus) * score[i] / score_total;
        give[i] = static_cast<long long>(std::floor(ideal));
        given += give[i];
        remainders.emplace_back(ideal - static_cast<double>(give[i]), i);
      }
      std::sort(remainders.begin(), remainders.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first > b.first;  // exact remainder ordering; any tie falls through to the index
        return a.second < b.second;
      });
      for (const auto& [rem, i] : remainders) {
        (void)rem;
        if (given >= surplus) break;
        give[i] += 1;
        given += 1;
      }

      bool progress = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (give[i] <= 0) continue;
        const long long headroom = targets[i] - grants[i];
        const long long take = std::min(give[i], headroom);
        grants[i] += static_cast<int>(take);
        surplus -= take;
        progress = progress || take > 0;
      }
      // No whole pod moved this round (every positive share rounded to zero
      // or hit a target): hand leftovers out one pod at a time, index order.
      if (!progress) {
        for (std::size_t i = 0; i < n && surplus > 0; ++i) {
          if (grants[i] >= targets[i] || score[i] <= 0.0) continue;
          grants[i] += 1;
          surplus -= 1;
        }
        break;
      }
    }
  };

  std::vector<int> caps(n);
  for (std::size_t i = 0; i < n; ++i) caps[i] = demands[i].cap_pods;

  // The weight-proportional split of everything — the static arm's answer,
  // and the pressure arm's prior.
  water_fill(caps, /*use_pressure=*/false);
  if (options_.mode == ArbiterMode::kStatic) return grants;

  // Pressure arm: the static share is each job's default entitlement; a
  // job's ratcheted request (0 = no signal yet) deviates from it.  Targets:
  //   * no signal        -> the static share (nobody is starved for being
  //                         quiet — the arms are identical until a dual or
  //                         SLO-debt signal actually fires);
  //   * ratcheted up     -> the job's claimed need, above its share;
  //   * released down    -> a proven-sufficient level below its share,
  //                         donating the difference.
  // Tier 1 water-fills the targets pressure-weighted, so when the claims
  // exceed the budget the shortfall lands on the quiet jobs a little at a
  // time instead of zeroing anyone out; tier 2 spreads any leftover toward
  // the caps by weight alone.
  const std::vector<int> share = grants;
  std::vector<int> targets(n);
  std::vector<int> held(n);
  for (std::size_t i = 0; i < n; ++i) {
    targets[i] = demands[i].request_pods > 0
                     ? std::clamp(demands[i].request_pods, demands[i].floor_pods,
                                  demands[i].cap_pods)
                     : share[i];
    held[i] = std::clamp(demands[i].held_pods, 0, targets[i]);
  }
  for (std::size_t i = 0; i < n; ++i) grants[i] = demands[i].floor_pods;
  surplus = budget_pods - floors;
  // Tier 0 — incumbency: regrant what each job already held (up to its
  // target) before funding anything new.  A rescued job therefore keeps its
  // level until it releases; a fresh claim competes only for unheld pods.
  water_fill(held, /*use_pressure=*/false);
  water_fill(targets, /*use_pressure=*/true);
  water_fill(caps, /*use_pressure=*/false);
  return grants;
}

}  // namespace dragster::fleet
