// Tests for online throughput-function learning (Theorem 2): RLS recovery
// of linear selectivities, min-weighted branch learning, tanh fitting, and
// the shrinking-error property the theorem requires.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/throughput_learner.hpp"
#include "dag/throughput_fn.hpp"

namespace dragster::core {
namespace {

TEST(Rls, RecoversExactLinearMap) {
  RlsEstimator rls(2);
  common::Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> x{rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)};
    rls.observe(x, 3.0 * x[0] + 0.5 * x[1]);
  }
  EXPECT_NEAR(rls.weights()[0], 3.0, 1e-6);
  EXPECT_NEAR(rls.weights()[1], 0.5, 1e-6);
}

TEST(Rls, HandlesNoise) {
  RlsEstimator rls(1, 1.0);
  common::Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const std::vector<double> x{rng.uniform(1.0, 10.0)};
    rls.observe(x, 2.0 * x[0] + rng.normal(0.0, 0.5));
  }
  EXPECT_NEAR(rls.weights()[0], 2.0, 0.05);
}

TEST(Rls, ForgettingTracksDrift) {
  RlsEstimator rls(1, 0.9);
  common::Rng rng(7);
  for (int i = 0; i < 100; ++i) rls.observe(std::vector{rng.uniform(1.0, 5.0)}, 1.0 * 3.0);
  // Weight drifted target: y = 5 x now.
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> x{rng.uniform(1.0, 5.0)};
    rls.observe(x, 5.0 * x[0]);
  }
  EXPECT_NEAR(rls.weights()[0], 5.0, 0.1);
}

TEST(Rls, RejectsDimensionMismatch) {
  RlsEstimator rls(2);
  EXPECT_THROW(rls.observe(std::vector{1.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(RlsEstimator(0), std::invalid_argument);
}

// A learnable chain: src -> a (sel 2.0 truth) -> b (sel 0.4 truth) -> sink.
struct LearnFixture {
  dag::StreamDag truth;
  dag::StreamDag model;  // wrong priors: all selectivities 1.0
  dag::NodeId src, a, b;

  LearnFixture() {
    build(truth, 2.0, 0.4);
    build(model, 1.0, 1.0);
  }

  void build(dag::StreamDag& dag, double sa, double sb) {
    src = dag.add_source("src");
    a = dag.add_operator("a");
    b = dag.add_operator("b");
    const auto sink = dag.add_sink("sink");
    dag.add_edge(src, a, dag::selectivity_fn(1.0));
    dag.add_edge(a, b, dag::selectivity_fn(sa));
    dag.add_edge(b, sink, dag::selectivity_fn(sb));
    dag.validate();
  }

  // Simulated unconstrained edge flows for a given source rate.
  std::vector<double> flows(double rate) const {
    return {rate, 2.0 * rate, 0.4 * 2.0 * rate};
  }
};

TEST(ThroughputLearner, LearnsChainSelectivities) {
  LearnFixture fx;
  ThroughputLearner learner(fx.model);
  EXPECT_EQ(learner.learnable_edges(), 2u);  // source edge excluded

  common::Rng rng(11);
  std::unique_ptr<bool[]> saturated(new bool[fx.model.node_count()]());
  for (int t = 0; t < 30; ++t) {
    const double rate = rng.uniform(50.0, 150.0);
    const auto flows = fx.flows(rate);
    learner.observe(fx.model, flows,
                    std::span<const bool>(saturated.get(), fx.model.node_count()));
  }
  learner.apply(fx.model);
  EXPECT_NEAR(fx.model.edge(1).fn.params()[0], 2.0, 1e-3);
  EXPECT_NEAR(fx.model.edge(2).fn.params()[0], 0.4, 1e-3);
}

TEST(ThroughputLearner, SkipsSaturatedOperators) {
  LearnFixture fx;
  ThroughputLearner learner(fx.model);
  std::unique_ptr<bool[]> saturated(new bool[fx.model.node_count()]());
  saturated[fx.a] = true;  // a's output is capacity-truncated: not h
  // Feed flows that would imply a *wrong* selectivity for a.
  const std::vector<double> flows{100.0, 50.0 /* truncated */, 20.0};
  for (int t = 0; t < 10; ++t)
    learner.observe(fx.model, flows,
                    std::span<const bool>(saturated.get(), fx.model.node_count()));
  learner.apply(fx.model);
  EXPECT_DOUBLE_EQ(fx.model.edge(1).fn.params()[0], 1.0);  // untouched prior
  EXPECT_NEAR(fx.model.edge(2).fn.params()[0], 0.4, 1e-3); // b learned from its input 50
}

TEST(ThroughputLearner, UpdateDeltaShrinks) {
  // Theorem 2 needs prediction error (hence parameter movement) shrinking
  // over time; with persistent excitation RLS gains decay like 1/t.
  LearnFixture fx;
  ThroughputLearner learner(fx.model);
  common::Rng rng(13);
  std::unique_ptr<bool[]> saturated(new bool[fx.model.node_count()]());
  double early = 0.0, late = 0.0;
  for (int t = 0; t < 60; ++t) {
    const auto flows = fx.flows(rng.uniform(50.0, 150.0));
    learner.observe(fx.model, flows,
                    std::span<const bool>(saturated.get(), fx.model.node_count()));
    if (t == 1) early = learner.last_update_delta();
    if (t == 59) late = learner.last_update_delta();
  }
  EXPECT_LT(late, 0.01 * std::max(early, 1e-6) + 1e-9);
}

TEST(ThroughputLearner, LearnsMinWeightedActiveBranch) {
  dag::StreamDag model;
  const auto s1 = model.add_source("s1");
  const auto s2 = model.add_source("s2");
  const auto join = model.add_operator("join");
  const auto sink = model.add_sink("sink");
  model.add_edge(s1, join, dag::identity_fn());
  model.add_edge(s2, join, dag::identity_fn());
  model.add_edge(join, sink, dag::MinWeightedFn({1.0, 1.0}));
  model.validate();

  ThroughputLearner learner(model);
  std::unique_ptr<bool[]> saturated(new bool[model.node_count()]());
  // Ground truth: min(1.0 * e1, 0.5 * e2); choose inputs where branch 2 binds.
  common::Rng rng(17);
  for (int t = 0; t < 60; ++t) {
    const double e1 = rng.uniform(100.0, 120.0);
    const double e2 = rng.uniform(30.0, 60.0);  // 0.5*e2 in [15,30] < e1
    const std::vector<double> flows{e1, e2, 0.5 * e2};
    learner.observe(model, flows, std::span<const bool>(saturated.get(), model.node_count()));
  }
  learner.apply(model);
  EXPECT_NEAR(model.edge(2).fn.params()[1], 0.5, 0.02);
}

TEST(ThroughputLearner, FitsTanhParameters) {
  dag::StreamDag model;
  const auto src = model.add_source("src");
  const auto op = model.add_operator("op");
  const auto sink = model.add_sink("sink");
  model.add_edge(src, op, dag::identity_fn());
  model.add_edge(op, sink, dag::TanhFn(80.0, {0.02}));
  model.validate();

  // Truth: 100 * tanh(0.01 e); start from the wrong (80, 0.02) prior.
  ThroughputLearner learner(model);
  std::unique_ptr<bool[]> saturated(new bool[model.node_count()]());
  common::Rng rng(19);
  for (int t = 0; t < 4000; ++t) {
    const double e = rng.uniform(10.0, 300.0);
    const std::vector<double> flows{e, 100.0 * std::tanh(0.01 * e)};
    learner.observe(model, flows, std::span<const bool>(saturated.get(), model.node_count()));
  }
  learner.apply(model);
  // Check the *function* is learned (parameters may trade off).
  for (double e : {20.0, 80.0, 200.0}) {
    const double predicted = model.edge(1).fn.eval(std::vector{e});
    EXPECT_NEAR(predicted, 100.0 * std::tanh(0.01 * e), 8.0) << "e=" << e;
  }
}

TEST(ThroughputLearner, IgnoresZeroExcitation) {
  LearnFixture fx;
  ThroughputLearner learner(fx.model);
  std::unique_ptr<bool[]> saturated(new bool[fx.model.node_count()]());
  const std::vector<double> flows{0.0, 0.0, 0.0};
  learner.observe(fx.model, flows,
                  std::span<const bool>(saturated.get(), fx.model.node_count()));
  EXPECT_DOUBLE_EQ(learner.last_update_delta(), 0.0);
}

}  // namespace
}  // namespace dragster::core
