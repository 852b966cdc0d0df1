#include "baselines/oracle.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "dag/flow_solver.hpp"

namespace dragster::baselines {

Oracle::Oracle(const streamsim::Engine& engine) : engine_(engine), ops_(engine.dag().operators()) {}

double Oracle::evaluate(std::span<const int> tasks, std::span<const double> source_rates) const {
  const dag::StreamDag& dag = engine_.dag();
  std::vector<double> capacity(dag.node_count(), 0.0);
  for (std::size_t i = 0; i < ops_.size(); ++i)
    capacity[ops_[i]] = engine_.true_capacity(ops_[i], tasks[i]);
  const dag::FlowSolver flow(dag);
  return flow.app_throughput(source_rates, capacity);
}

double Oracle::throughput_of(const std::map<dag::NodeId, int>& tasks,
                             std::span<const double> source_rates) const {
  std::vector<int> vec(ops_.size(), 1);
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const auto it = tasks.find(ops_[i]);
    if (it != tasks.end()) vec[i] = it->second;
  }
  return evaluate(vec, source_rates);
}

OracleResult Oracle::optimal(std::span<const double> source_rates,
                             const online::Budget& budget) const {
  const int max_tasks = engine_.options().max_tasks;
  const std::size_t m = ops_.size();
  DRAGSTER_REQUIRE(m > 0, "no operators to optimize");

  const auto cap = budget.max_total_tasks();
  DRAGSTER_REQUIRE(cap >= m, "budget cannot afford one task per operator");

  std::vector<int> best(m, 1);
  double best_value = evaluate(best, source_rates);
  auto total_of = [](std::span<const int> t) {
    int sum = 0;
    for (int v : t) sum += v;
    return sum;
  };

  auto consider = [&](std::span<const int> t, double value) {
    // Max throughput; tie-break on fewer pods (more economical).
    if (value > best_value * (1.0 + 1e-9) ||
        (value > best_value * (1.0 - 1e-9) && total_of(t) < total_of(best))) {
      best.assign(t.begin(), t.end());
      best_value = value;
    }
  };

  double grid_size = 1.0;
  for (std::size_t i = 0; i < m; ++i) grid_size *= static_cast<double>(max_tasks);

  if (grid_size <= kExhaustiveLimit) {
    std::vector<int> current(m, 1);
    for (;;) {
      if (static_cast<std::size_t>(total_of(current)) <= cap)
        consider(current, evaluate(current, source_rates));
      std::size_t d = 0;
      while (d < m) {
        if (current[d] < max_tasks) {
          ++current[d];
          break;
        }
        current[d] = 1;
        ++d;
      }
      if (d == m) break;
    }
  } else {
    // Scaling search.  With the built-in throughput functions the edge flows
    // are positively homogeneous in the offered load, so a target throughput
    // s * f_inf requires each operator to emit s * demand_inf_i.  The
    // cheapest allocation for a scale s is the smallest task count whose
    // capacity covers that demand; total cost is monotone in s, so binary
    // search finds the best affordable scale.  (Marginal-gain greedy fails
    // here: on a chain, one extra task anywhere has zero gain until *every*
    // binding operator is relieved.)
    const dag::StreamDag& dag = engine_.dag();
    std::vector<double> unlimited(dag.node_count(),
                                  std::numeric_limits<double>::infinity());
    const dag::FlowSolver flow(dag);
    const dag::FlowResult ideal = flow.solve(source_rates, unlimited);

    auto alloc_for_scale = [&](double s, std::vector<int>& out) {
      out.assign(m, 1);
      bool achievable = true;
      for (std::size_t i = 0; i < m; ++i) {
        const double needed = s * ideal.node_demand[ops_[i]];
        int n = max_tasks + 1;
        for (int t = 1; t <= max_tasks; ++t) {
          if (engine_.true_capacity(ops_[i], t) >= needed) {
            n = t;
            break;
          }
        }
        if (n > max_tasks) {
          achievable = false;
          n = 1;
          double best_cap = engine_.true_capacity(ops_[i], 1);
          for (int t = 2; t <= max_tasks; ++t) {
            const double c = engine_.true_capacity(ops_[i], t);
            if (c > best_cap) {
              best_cap = c;
              n = t;
            }
          }
        }
        out[i] = n;
      }
      return achievable;
    };

    std::vector<int> current(m, 1);
    double lo = 0.0;
    double hi = 1.0;
    for (int it = 0; it < 48; ++it) {
      const double mid = 0.5 * (lo + hi);
      const bool achievable = alloc_for_scale(mid, current);
      if (achievable && static_cast<std::size_t>(total_of(current)) <= cap) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    alloc_for_scale(lo, current);
    // The capacity-peak fallback inside alloc_for_scale can overshoot the
    // budget when some operator cannot meet its share; project back.
    current = budget.project(std::move(current));
    consider(current, evaluate(current, source_rates));

    // Local search: single +/-1 moves and pairwise transfers until fixpoint.
    bool improved = true;
    while (improved) {
      improved = false;
      std::vector<int> trial = best;
      for (std::size_t i = 0; i < m; ++i) {
        for (int delta : {-1, +1}) {
          const int original = trial[i];
          const int candidate = original + delta;
          if (candidate < 1 || candidate > max_tasks) continue;
          trial[i] = candidate;
          if (static_cast<std::size_t>(total_of(trial)) <= cap) {
            const double value = evaluate(trial, source_rates);
            if (value > best_value * (1.0 + 1e-9)) {
              consider(trial, value);
              improved = true;
            }
          }
          trial[i] = original;
        }
      }
      trial = best;
      for (std::size_t i = 0; i < m && !improved; ++i) {
        for (std::size_t j = 0; j < m && !improved; ++j) {
          if (i == j || trial[i] <= 1 || trial[j] >= max_tasks) continue;
          --trial[i];
          ++trial[j];
          const double value = evaluate(trial, source_rates);
          if (value > best_value * (1.0 + 1e-9)) {
            consider(trial, value);
            improved = true;
          } else {
            ++trial[i];
            --trial[j];
          }
        }
      }
    }
  }

  OracleResult result;
  result.throughput = best_value;
  result.total_tasks = total_of(best);
  double cost = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    result.tasks[ops_[i]] = best[i];
    cost += best[i] * cluster::pod_price_per_hour(engine_.pod_spec(ops_[i]));
  }
  result.cost_rate = cost;
  return result;
}

OracleResult Oracle::optimal_at(double at_seconds, const online::Budget& budget) const {
  std::vector<double> rates(engine_.dag().node_count(), 0.0);
  for (dag::NodeId id : engine_.dag().sources())
    rates[id] = engine_.offered_rate(id, at_seconds);
  return optimal(rates, budget);
}

}  // namespace dragster::baselines
