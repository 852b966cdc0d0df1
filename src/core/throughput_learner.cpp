#include "core/throughput_learner.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace dragster::core {

RlsEstimator::RlsEstimator(std::size_t dim, double forgetting, double initial_covariance)
    : w_(dim, 0.0), forgetting_(forgetting) {
  DRAGSTER_REQUIRE(dim > 0, "RLS needs at least one parameter");
  DRAGSTER_REQUIRE(forgetting > 0.0 && forgetting <= 1.0, "forgetting factor in (0,1]");
  DRAGSTER_REQUIRE(initial_covariance > 0.0, "initial covariance must be positive");
  p_.assign(dim, std::vector<double>(dim, 0.0));
  for (std::size_t i = 0; i < dim; ++i) p_[i][i] = initial_covariance;
}

void RlsEstimator::observe(std::span<const double> x, double y) {
  DRAGSTER_REQUIRE(x.size() == w_.size(), "RLS input dimension mismatch");
  const std::size_t n = w_.size();

  // Standard RLS: gain = P x / (lambda + x^T P x); w += gain (y - w.x).
  std::vector<double> px(n, 0.0);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) px[i] += p_[i][j] * x[j];
  double denom = forgetting_;
  for (std::size_t i = 0; i < n; ++i) denom += x[i] * px[i];
  const double err = y - predict(x);
  for (std::size_t i = 0; i < n; ++i) w_[i] += px[i] / denom * err;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      p_[i][j] = (p_[i][j] - px[i] * px[j] / denom) / forgetting_;
  ++count_;
}

double RlsEstimator::predict(std::span<const double> x) const {
  double sum = 0.0;
  for (std::size_t i = 0; i < w_.size(); ++i) sum += w_[i] * x[i];
  return sum;
}

void RlsEstimator::save_state(resilience::SnapshotWriter& writer,
                              const std::string& prefix) const {
  writer.field(prefix + "w", std::span<const double>(w_));
  std::vector<double> flat;
  flat.reserve(w_.size() * w_.size());
  for (const auto& row : p_) flat.insert(flat.end(), row.begin(), row.end());
  writer.field(prefix + "p", std::span<const double>(flat));
  writer.field(prefix + "count", static_cast<std::uint64_t>(count_));
  writer.field(prefix + "forgetting", forgetting_);
}

void RlsEstimator::load_state(const resilience::SnapshotReader& reader,
                              const std::string& prefix) {
  DRAGSTER_REQUIRE(reader.get_double(prefix + "forgetting") == forgetting_,
                   "snapshot RLS forgetting-factor mismatch");
  std::vector<double> w = reader.get_doubles(prefix + "w");
  const std::vector<double> flat = reader.get_doubles(prefix + "p");
  const std::size_t count = reader.get_uint(prefix + "count");
  const std::size_t n = w_.size();
  DRAGSTER_REQUIRE(w.size() == n && flat.size() == n * n, "snapshot RLS dimension mismatch");
  w_ = std::move(w);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) p_[i][j] = flat[i * n + j];
  count_ = count;
}

using Form = dag::ThroughputFn::Form;

ThroughputLearner::ThroughputLearner(const dag::StreamDag& dag, double forgetting) {
  DRAGSTER_REQUIRE(dag.validated(), "learner requires a validated DAG");
  for (std::size_t e = 0; e < dag.edge_count(); ++e) {
    const dag::Edge& edge = dag.edge(e);
    // Sources emit the offered load through known identity mappings, and a
    // custom form has no parameters to fit.
    if (dag.component(edge.from).kind == dag::ComponentKind::kSource) continue;
    if (edge.fn.form() == Form::kCustom) continue;

    EdgeState state;
    state.edge_index = e;
    state.kind = edge.fn.form();
    const std::size_t arity = edge.fn.arity();
    switch (state.kind) {
      case Form::kLinear:
        state.rls.emplace(arity, forgetting);
        break;
      case Form::kMinWeighted:
        state.branch_weights.assign(arity, 1.0);
        for (std::size_t k = 0; k < arity; ++k) state.branch.emplace_back(1, forgetting);
        break;
      case Form::kTanh: {
        const auto params = edge.fn.params();
        state.tanh_params.assign(params.begin(), params.end());
        break;
      }
      case Form::kCustom:
        break;
    }
    state_.push_back(std::move(state));
  }
}

void ThroughputLearner::observe(const dag::StreamDag& dag, std::span<const double> edge_rate,
                                std::span<const bool> saturated) {
  DRAGSTER_REQUIRE(edge_rate.size() == dag.edge_count(), "edge_rate must be edge-indexed");
  DRAGSTER_REQUIRE(saturated.size() == dag.node_count(), "saturated must be node-indexed");
  last_delta_ = 0.0;

  for (EdgeState& st : state_) {
    const dag::Edge& edge = dag.edge(st.edge_index);
    // Capacity-truncated flows tell us about y, not h: skip them.
    if (saturated[edge.from]) continue;

    const auto& ins = dag.in_edges(edge.from);
    std::vector<double> x(ins.size());
    double x_norm = 0.0;
    for (std::size_t k = 0; k < ins.size(); ++k) {
      x[k] = edge_rate[ins[k]];
      x_norm += x[k] * x[k];
    }
    if (x_norm < 1e-6) continue;  // no excitation this slot
    const double y = edge_rate[st.edge_index];

    switch (st.kind) {
      case Form::kLinear: {
        const double before = st.rls->predict(x);
        st.rls->observe(x, y);
        const double after = st.rls->predict(x);
        const double scale = std::max(1e-9, std::abs(before));
        last_delta_ = std::max(last_delta_, std::abs(after - before) / scale);
        break;
      }
      case Form::kMinWeighted: {
        // Update the branch the current estimate believes is active.
        const std::size_t active = dag::min_weighted_index(st.branch_weights, x);
        const std::vector<double> xv{x[active]};
        st.branch[active].observe(xv, y);
        const double updated = st.branch[active].weights()[0];
        last_delta_ = std::max(last_delta_, std::abs(updated - st.branch_weights[active]) /
                                                std::max(1e-9, st.branch_weights[active]));
        st.branch_weights[active] = updated;
        break;
      }
      case Form::kTanh: {
        // Normalized LMS on k1 * tanh(w . x).
        double dot = 0.0;
        for (std::size_t k = 0; k < x.size(); ++k) dot += st.tanh_params[k + 1] * x[k];
        const double t = std::tanh(dot);
        const double pred = st.tanh_params[0] * t;
        const double err = y - pred;
        std::vector<double> grad(st.tanh_params.size());
        grad[0] = t;
        for (std::size_t k = 0; k < x.size(); ++k)
          grad[k + 1] = st.tanh_params[0] * (1.0 - t * t) * x[k];
        double gnorm = 1e-9;
        for (double g : grad) gnorm += g * g;
        double delta = 0.0;
        for (std::size_t k = 0; k < grad.size(); ++k) {
          double step = 0.5 * err * grad[k] / gnorm;
          // Trust region: at most 20% relative movement per update, or the
          // scale-sensitive w parameter overshoots into tanh saturation
          // where its gradient vanishes and learning stalls.
          const double limit = 0.2 * std::max(1e-9, std::abs(st.tanh_params[k]));
          step = std::clamp(step, -limit, limit);
          delta = std::max(delta, std::abs(step) / std::max(1e-9, std::abs(st.tanh_params[k])));
          st.tanh_params[k] += step;
        }
        last_delta_ = std::max(last_delta_, delta);
        break;
      }
      case Form::kCustom:
        break;
    }
  }
}

void ThroughputLearner::save_state(resilience::SnapshotWriter& writer) const {
  writer.field("tl_edges", static_cast<std::uint64_t>(state_.size()));
  writer.field("tl_last_delta", last_delta_);
  for (std::size_t s = 0; s < state_.size(); ++s) {
    const EdgeState& st = state_[s];
    const std::string prefix = "tl_e" + std::to_string(s) + "_";
    writer.field(prefix + "edge", static_cast<std::uint64_t>(st.edge_index));
    writer.field(prefix + "kind", static_cast<std::uint64_t>(st.kind));
    switch (st.kind) {
      case Form::kLinear:
        st.rls->save_state(writer, prefix + "rls_");
        break;
      case Form::kMinWeighted:
        writer.field(prefix + "bw", std::span<const double>(st.branch_weights));
        for (std::size_t k = 0; k < st.branch.size(); ++k)
          st.branch[k].save_state(writer, prefix + "b" + std::to_string(k) + "_");
        break;
      case Form::kTanh:
        writer.field(prefix + "tanh", std::span<const double>(st.tanh_params));
        break;
      case Form::kCustom:
        break;
    }
  }
}

void ThroughputLearner::load_state(const resilience::SnapshotReader& reader) {
  DRAGSTER_REQUIRE(reader.get_uint("tl_edges") == state_.size(),
                   "snapshot learner edge-count mismatch");
  const double last_delta = reader.get_double("tl_last_delta");
  // Restored into a copy: a later edge's rejection must not leave the
  // earlier edges restored.
  std::vector<EdgeState> state = state_;
  for (std::size_t s = 0; s < state.size(); ++s) {
    EdgeState& st = state[s];
    const std::string prefix = "tl_e" + std::to_string(s) + "_";
    DRAGSTER_REQUIRE(reader.get_uint(prefix + "edge") == st.edge_index,
                     "snapshot learner edge-index mismatch");
    DRAGSTER_REQUIRE(reader.get_uint(prefix + "kind") == static_cast<std::uint64_t>(st.kind),
                     "snapshot learner function-kind mismatch");
    switch (st.kind) {
      case Form::kLinear:
        st.rls->load_state(reader, prefix + "rls_");
        break;
      case Form::kMinWeighted: {
        std::vector<double> bw = reader.get_doubles(prefix + "bw");
        DRAGSTER_REQUIRE(bw.size() == st.branch_weights.size(),
                         "snapshot learner branch-count mismatch");
        st.branch_weights = std::move(bw);
        for (std::size_t k = 0; k < st.branch.size(); ++k)
          st.branch[k].load_state(reader, prefix + "b" + std::to_string(k) + "_");
        break;
      }
      case Form::kTanh: {
        std::vector<double> params = reader.get_doubles(prefix + "tanh");
        DRAGSTER_REQUIRE(params.size() == st.tanh_params.size(),
                         "snapshot learner tanh-parameter mismatch");
        st.tanh_params = std::move(params);
        break;
      }
      case Form::kCustom:
        break;
    }
  }
  state_ = std::move(state);
  last_delta_ = last_delta;
}

void ThroughputLearner::apply(dag::StreamDag& dag) const {
  for (const EdgeState& st : state_) {
    auto params = dag.edge_mutable(st.edge_index).fn.params();
    switch (st.kind) {
      case Form::kLinear: {
        // Before any observation, keep the user's prior instead of zeros.
        if (st.rls->observations() == 0) break;
        const auto& w = st.rls->weights();
        for (std::size_t k = 0; k < params.size() && k < w.size(); ++k)
          params[k] = std::max(0.0, w[k]);
        break;
      }
      case Form::kMinWeighted:
        for (std::size_t k = 0; k < params.size() && k < st.branch_weights.size(); ++k)
          params[k] = std::max(0.0, st.branch_weights[k]);
        break;
      case Form::kTanh:
        for (std::size_t k = 0; k < params.size() && k < st.tanh_params.size(); ++k)
          params[k] = std::max(1e-9, st.tanh_params[k]);
        break;
      case Form::kCustom:
        break;
    }
  }
}

}  // namespace dragster::core
