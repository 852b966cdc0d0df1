// Parameter and design-choice ablations on WordCount (high rate):
//   * UCB exploration weight beta (scaled 0.1x / 1x / 3x),
//   * dual step gamma0,
//   * cloud-noise level sigma,
//   * kernel choice (squared-exponential vs Matern-5/2, via lengthscale),
//   * the extra baselines from related work: DS2 and flat BO4CO-style GP-UCB.
// Each cell reports convergence time and final percent-of-optimal.
//
//   ./ablation_sensitivity [--slots 25] [--seed 12]
#include "baselines/dhalion.hpp"
#include "baselines/ds2.hpp"
#include "baselines/flat_gp_ucb.hpp"
#include "bench_util.hpp"

namespace {

using namespace dragster;

struct Outcome {
  std::optional<double> converge_min;
  double final_pct = 0.0;
  double cost = 0.0;
};

Outcome evaluate(core::Controller& controller, std::size_t slots, std::uint64_t seed,
                 double capacity_noise) {
  const workloads::WorkloadSpec spec = workloads::wordcount();
  streamsim::EngineOptions options;
  options.capacity_noise = capacity_noise;
  streamsim::Engine engine = spec.make_engine(true, options, seed);
  experiments::ScenarioOptions scenario;
  scenario.slots = slots;
  const auto run = experiments::run_scenario(engine, controller, scenario, spec.name);
  Outcome out;
  out.converge_min = experiments::convergence_minutes(run.slots, 0, slots, 10.0);
  const auto& last = run.slots.back();
  out.final_pct = 100.0 * last.effective_rate / last.oracle_throughput;
  out.cost = run.total_cost;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const common::Flags flags(argc, argv);
  const auto slots = static_cast<std::size_t>(flags.get("slots", std::int64_t{25}));
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", std::int64_t{12}));
  flags.reject_unused();

  bench::print_header("Ablations: hyperparameter sensitivity and extra baselines", seed);

  common::Table table({"variant", "converge (min)", "final % of optimum", "cost ($)"});
  auto row = [&](const std::string& label, core::Controller& controller,
                 double noise = 0.05) {
    const Outcome o = evaluate(controller, slots, seed, noise);
    table.add_row({label, bench::fmt_min(o.converge_min), common::Table::num(o.final_pct, 1),
                   common::Table::num(o.cost, 2)});
  };

  {
    core::DragsterController base{core::DragsterOptions{}};
    row("Dragster(saddle) default", base);
  }
  for (double beta_scale : {0.1, 3.0}) {
    core::DragsterOptions options;
    options.beta_scale = beta_scale;
    core::DragsterController controller(options);
    row("beta_t x " + common::Table::num(beta_scale, 1), controller);
  }
  for (double gamma0 : {0.2, 5.0}) {
    core::DragsterOptions options;
    options.gamma0 = gamma0;
    core::DragsterController controller(options);
    row("gamma0 = " + common::Table::num(gamma0, 1), controller);
  }
  for (double lengthscale : {1.0, 5.0}) {
    core::DragsterOptions options;
    options.gp_lengthscale = lengthscale;
    core::DragsterController controller(options);
    row("GP lengthscale = " + common::Table::num(lengthscale, 1), controller);
  }
  {
    core::DragsterOptions options;
    options.use_matern_kernel = true;
    core::DragsterController controller(options);
    row("Matern-5/2 kernel", controller);
  }
  for (double noise : {0.0, 0.15}) {
    core::DragsterController controller{core::DragsterOptions{}};
    row("cloud noise sigma = " + common::Table::num(noise, 2), controller, noise);
  }
  {
    core::DragsterOptions options;
    options.method = core::PrimalMethod::kOnlineGradient;
    core::DragsterController controller(options);
    row("Dragster(ogd)", controller);
  }
  {
    baselines::DhalionController dhalion;
    row("Dhalion", dhalion);
  }
  {
    baselines::Ds2Controller ds2;
    row("DS2 (linear scaling)", ds2);
  }
  {
    baselines::FlatGpUcbController bo;
    row("BO4CO (flat GP-UCB, no DAG)", bo);
  }

  std::printf("%s", table.to_string().c_str());
  std::printf(
      "\nshape to verify: the default is robust; tiny beta under-explores and huge\n"
      "beta over-explores (slower settling); DS2 over-provisions on the retrograde\n"
      "map; DAG-blind BO4CO needs far more evaluations than per-operator Dragster.\n");
  return 0;
}
