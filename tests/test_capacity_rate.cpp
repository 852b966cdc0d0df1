// Tests for the ground-truth capacity surfaces (USL) and offered-load
// schedules.
#include <gtest/gtest.h>

#include "streamsim/capacity_model.hpp"
#include "streamsim/rate_schedule.hpp"

namespace dragster::streamsim {
namespace {

TEST(CapacityModel, SingleTaskEqualsBaseRate) {
  CapacityModel model(UslParams{.per_task_rate = 10'000.0});
  EXPECT_NEAR(model.capacity(1), 10'000.0, 1e-9);
}

TEST(CapacityModel, LinearWithoutPenalties) {
  UslParams p;
  p.per_task_rate = 1000.0;
  p.contention = 0.0;
  p.coherence = 0.0;
  CapacityModel model(p);
  EXPECT_NEAR(model.capacity(8), 8000.0, 1e-9);
}

TEST(CapacityModel, ContentionGivesDiminishingReturns) {
  UslParams p;
  p.per_task_rate = 1000.0;
  p.contention = 0.2;
  p.coherence = 0.0;
  CapacityModel model(p);
  const double gain_12 = model.capacity(2) - model.capacity(1);
  const double gain_89 = model.capacity(9) - model.capacity(8);
  EXPECT_GT(gain_12, gain_89);
  EXPECT_GT(gain_89, 0.0);  // still monotone without coherence
}

TEST(CapacityModel, CoherenceCausesRetrogradeScaling) {
  UslParams p;
  p.per_task_rate = 1000.0;
  p.contention = 0.05;
  p.coherence = 0.06;  // peak near sqrt(0.95/0.06) ~ 4
  CapacityModel model(p);
  const int peak = model.best_tasks(10);
  EXPECT_GE(peak, 3);
  EXPECT_LE(peak, 5);
  EXPECT_LT(model.capacity(10), model.capacity(peak));
}

TEST(CapacityModel, UslFormulaExactValue) {
  UslParams p;
  p.per_task_rate = 100.0;
  p.contention = 0.1;
  p.coherence = 0.01;
  CapacityModel model(p);
  // y(4) = 100 * 4 / (1 + 0.1*3 + 0.01*4*3) = 400 / 1.42
  EXPECT_NEAR(model.capacity(4), 400.0 / 1.42, 1e-9);
}

TEST(CapacityModel, CpuScalesSubLinearly) {
  UslParams p;
  p.cpu_exponent = 0.5;
  CapacityModel model(p);
  const double one_core = model.capacity(1, cluster::PodSpec{1.0, 8.0});
  const double four_cores = model.capacity(1, cluster::PodSpec{4.0, 8.0});
  EXPECT_NEAR(four_cores, 2.0 * one_core, 1e-9);  // 4^0.5 = 2
}

TEST(CapacityModel, MemoryCapsThroughput) {
  UslParams p;
  p.per_task_rate = 100'000.0;
  p.memory_gb_per_10k = 1.0;  // 2 GB pod -> 20k tuples/s per task
  CapacityModel model(p);
  EXPECT_NEAR(model.capacity(1, cluster::PodSpec{1.0, 2.0}), 20'000.0, 1e-9);
  // More memory raises the ceiling.
  EXPECT_GT(model.capacity(1, cluster::PodSpec{1.0, 8.0}),
            model.capacity(1, cluster::PodSpec{1.0, 2.0}));
}

TEST(CapacityModel, RejectsInvalidParams) {
  UslParams bad;
  bad.per_task_rate = 0.0;
  EXPECT_THROW(CapacityModel{bad}, std::invalid_argument);
  UslParams neg;
  neg.contention = -0.1;
  EXPECT_THROW(CapacityModel{neg}, std::invalid_argument);
  CapacityModel ok{UslParams{}};
  EXPECT_THROW((void)ok.capacity(0), std::invalid_argument);
}

class UslMonotoneBeforePeak : public ::testing::TestWithParam<double> {};

TEST_P(UslMonotoneBeforePeak, CapacityIncreasesUpToBestTasks) {
  UslParams p;
  p.contention = 0.08;
  p.coherence = GetParam();
  CapacityModel model(p);
  const int peak = model.best_tasks(10);
  for (int n = 2; n <= peak; ++n)
    EXPECT_GT(model.capacity(n), model.capacity(n - 1)) << "n=" << n << " kappa=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(CoherenceSweep, UslMonotoneBeforePeak,
                         ::testing::Values(0.0, 0.005, 0.02, 0.05, 0.1));

TEST(RateSchedule, ConstantIsConstant) {
  ConstantRate rate(123.0);
  EXPECT_DOUBLE_EQ(rate.rate_at(0.0), 123.0);
  EXPECT_DOUBLE_EQ(rate.rate_at(1e9), 123.0);
}

TEST(RateSchedule, PiecewiseSelectsSegment) {
  PiecewiseRate rate({{0.0, 10.0}, {100.0, 20.0}, {200.0, 5.0}});
  EXPECT_DOUBLE_EQ(rate.rate_at(0.0), 10.0);
  EXPECT_DOUBLE_EQ(rate.rate_at(99.9), 10.0);
  EXPECT_DOUBLE_EQ(rate.rate_at(100.0), 20.0);
  EXPECT_DOUBLE_EQ(rate.rate_at(500.0), 5.0);
}

TEST(RateSchedule, PiecewiseRejectsBadSegments) {
  EXPECT_THROW(PiecewiseRate({}), std::invalid_argument);
  EXPECT_THROW(PiecewiseRate({{10.0, 1.0}}), std::invalid_argument);  // gap before t=0
  EXPECT_THROW(PiecewiseRate({{0.0, 1.0}, {0.0, 2.0}}), std::invalid_argument);
}

TEST(RateSchedule, AlternatingFlipsEveryPeriod) {
  AlternatingRate rate(100.0, 40.0, 200.0);
  EXPECT_DOUBLE_EQ(rate.rate_at(0.0), 100.0);
  EXPECT_DOUBLE_EQ(rate.rate_at(199.0), 100.0);
  EXPECT_DOUBLE_EQ(rate.rate_at(200.0), 40.0);
  EXPECT_DOUBLE_EQ(rate.rate_at(401.0), 100.0);
}

TEST(RateSchedule, DiurnalOscillatesAroundMean) {
  DiurnalRate rate(100.0, 0.5, 86'400.0);
  EXPECT_NEAR(rate.rate_at(0.0), 100.0, 1e-9);
  EXPECT_NEAR(rate.rate_at(86'400.0 / 4.0), 150.0, 1e-6);
  EXPECT_NEAR(rate.rate_at(3.0 * 86'400.0 / 4.0), 50.0, 1e-6);
}

}  // namespace
}  // namespace dragster::streamsim
