#include "baselines/flat_gp_ucb.hpp"

#include <cmath>

namespace dragster::baselines {

namespace {

constexpr double kDelta = 2.0;             ///< UCB confidence parameter
constexpr double kGpNoiseRel = 0.08;       ///< observation noise, relative
constexpr double kGpLengthscale = 2.5;     ///< kernel lengthscale in task units
constexpr double kMaxEnumerated = 20'000;  ///< full grid up to this size
constexpr std::uint64_t kSeed = 7;         ///< candidate sampling stream

}  // namespace

FlatGpUcbController::FlatGpUcbController(FlatGpUcbOptions options)
    : options_(options), rng_(kSeed) {}

void FlatGpUcbController::initialize(const streamsim::JobMonitor& monitor,
                                     streamsim::ScalingActuator& actuator) {
  (void)actuator;
  ops_ = monitor.dag().operators();
  gp_.reset();
  scale_ = 0.0;
  slot_ = 0;
}

void FlatGpUcbController::on_slot(const streamsim::JobMonitor& monitor,
                                  streamsim::ScalingActuator& actuator) {
  const streamsim::SlotReport& report = monitor.last_report();
  ++slot_;

  // Observe the throughput of the configuration that just ran.
  std::vector<double> x;
  x.reserve(ops_.size());
  double total_tasks = 0.0;
  for (dag::NodeId id : ops_) {
    x.push_back(static_cast<double>(monitor.tasks(id)));
    total_tasks += x.back();
  }
  // Exclude checkpoint pauses from the signal the GP fits.
  const double effective =
      report.tuples_processed / std::max(1.0, report.duration_s - report.pause_s);
  if (effective > 0.0) {
    if (!gp_.has_value()) {
      scale_ = effective;
      const std::vector<double> lengthscales(ops_.size(), kGpLengthscale);
      gp_.emplace(gp::SquaredExponentialKernel(2.25, lengthscales), kGpNoiseRel * kGpNoiseRel,
                  /*prior_mean=*/1.0);
    }
    gp_->add_observation(x, effective / scale_);
  }
  if (!gp_.has_value()) return;

  // Candidate set: full grid when affordable, random sample otherwise.
  const int max_tasks = monitor.max_tasks();
  double grid_size = 1.0;
  for (std::size_t i = 0; i < ops_.size(); ++i) grid_size *= static_cast<double>(max_tasks);

  std::vector<gp::Candidate> candidates;
  if (grid_size <= kMaxEnumerated) {
    candidates = gp::integer_grid(ops_.size(), 1, max_tasks);
  } else {
    candidates.reserve(options_.sample_size);
    for (std::size_t s = 0; s < options_.sample_size; ++s) {
      gp::Candidate c(ops_.size());
      for (double& v : c) v = static_cast<double>(rng_.uniform_int(1, max_tasks));
      candidates.push_back(std::move(c));
    }
  }

  const auto cap = options_.budget.max_total_tasks();
  const auto feasible = [&](const gp::Candidate& c) {
    if (!options_.budget.limited()) return true;
    double sum = 0.0;
    for (double v : c) sum += v;
    return static_cast<std::size_t>(sum) <= cap;
  };

  const double beta =
      gp::ucb_beta(static_cast<std::size_t>(std::min(grid_size, 1e12)), slot_, kDelta);
  const auto chosen = gp::select_ucb(*gp_, candidates, beta, feasible);
  if (!chosen.has_value()) return;

  const gp::Candidate& best = candidates[chosen->index];
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const int tasks = static_cast<int>(best[i]);
    if (tasks != monitor.tasks(ops_[i])) actuator.set_tasks(ops_[i], tasks);
  }
}

}  // namespace dragster::baselines
