// dragbench: the repository benchmark program.
//
//   dragbench --workload fleet-steady|single-long|fleet-chaos --seed N
//             --seconds S --trace 0|1
//
// Runs episodes of one workload from one seed, serially, with the TaskPool
// pinned to one thread, until S seconds have passed (at least two episodes,
// so same-seed determinism is always checked).  With --trace 0 it reports
// the end-to-end metrics; with --trace 1 it first runs untraced episodes for
// half of the time (the checksum and speed reference), then traced ones,
// and reports the per-layer metrics.  Human-readable lines come first; the
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// where attempted/failed count job-slots.  Exit code 0 unless the arguments
// are malformed or a metric could not be computed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "parallel/task_pool.hpp"
#include "timing.hpp"
#include "workloads.hpp"

namespace {

using namespace dragbench;

/// Hard cap on a run's replaying, well inside the 180 s a run may take.
constexpr double kMaxSeconds = 120.0;
/// Pooled slot samples the untraced pass keeps: p90 needs 10 above it.
constexpr std::size_t kTailSamples = 110;
/// The noise filter's share: timings come from the fastest twentieth of the
/// replays of each slot (and of the set-ups), whatever their number.
constexpr double kFastFraction = 0.05;

struct Args {
  Workload workload = Workload::kFleetSteady;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "dragbench: %s\nusage: dragbench --workload fleet-steady|single-long|fleet-chaos "
               "--seed N --seconds S --trace 0|1\n",
               problem.c_str());
  std::exit(2);
}

std::uint64_t parse_count(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || end == nullptr || *end != '\0')
    usage(flag + " needs a non-negative integer, got '" + text + "'");
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      const auto workload = parse_workload(value);
      if (!workload) usage("unknown workload '" + value + "'");
      args.workload = *workload;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = parse_count(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_count(flag, value));
      if (args.seconds < 1.0) usage("--seconds must be at least 1");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      usage("unknown flag '" + flag + "'");
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

/// Cores this process can actually keep busy: the same spin loop on one
/// thread, then on one thread per hardware thread at once.
double effective_cores(unsigned threads) {
  const auto spin = [] {
    volatile double x = 1.0;
    for (int k = 0; k < 20'000'000; ++k) x = x * 1.0000001 + 1e-9;
    return x;
  };
  const Clock::time_point a = Clock::now();
  (void)spin();
  const double one = ms_between(a, Clock::now());
  std::vector<std::thread> workers;
  const Clock::time_point b = Clock::now();
  for (unsigned k = 0; k < threads; ++k) workers.emplace_back([&] { (void)spin(); });
  for (std::thread& worker : workers) worker.join();
  const double all = ms_between(b, Clock::now());
  return static_cast<double>(threads) * one / all;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// Sums every sample of one counter family in a Prometheus exposition.
double exposition_sum(const std::string& text, const std::string& family) {
  double sum = 0.0;
  std::size_t at = 0;
  while (at < text.size()) {
    const std::size_t eol = std::min(text.find('\n', at), text.size());
    const std::string line = text.substr(at, eol - at);
    at = eol + 1;
    if (line.rfind(family, 0) != 0) continue;
    const char next = line.size() > family.size() ? line[family.size()] : '\0';
    if (next != '{' && next != ' ') continue;
    sum += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
  }
  return sum;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// `count` evenly spaced quantiles of the fastest `kFastFraction` of
/// `values`, by linear interpolation, so the filter keeps the same share of
/// the samples however many there are.  One quantile is the median of that
/// fastest share.
std::vector<double> fastest_share(std::vector<double> values, std::size_t count) {
  DRAGSTER_REQUIRE(!values.empty(), "no samples to filter");
  std::sort(values.begin(), values.end());
  const double last = static_cast<double>(values.size() - 1);
  std::vector<double> out;
  for (std::size_t i = 0; i < count; ++i) {
    const double pos = kFastFraction * (static_cast<double>(i) + 0.5) /
                       static_cast<double>(count) * last;
    const auto lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    out.push_back(lo + 1 < values.size() ? values[lo] + frac * (values[lo + 1] - values[lo])
                                         : values[lo]);
  }
  return out;
}

/// Noise-filtered slot profile.  Every episode of a run replays the same
/// seed, so slot k does identical work in each replay, and the machine's slow
/// phases only scale time up.  A slot's time is modelled as its shape (its
/// share of an episode, the median over replays) times the machine's speed;
/// the speed is read from the fastest share of all slot samples, so a fast
/// phase that covered any slots sets it.  Each slot index keeps `per_slot`
/// samples, its shape times quantiles of that fastest share, and those are
/// pooled (see NOTES.md for why and for the spread this removes).
struct Profile {
  std::vector<std::vector<double>> kept_ms;  ///< per timed slot index
  std::vector<std::size_t> job_slots;        ///< job-slots that slot ran
  [[nodiscard]] std::vector<double> pooled(std::size_t from, std::size_t to) const {
    std::vector<double> out;
    for (std::size_t k = from; k < to && k < kept_ms.size(); ++k) append(out, kept_ms[k]);
    return out;
  }
  [[nodiscard]] std::vector<double> pooled() const { return pooled(0, kept_ms.size()); }
};

/// Samples kept per slot index: enough for more than 100 pooled slots, the
/// support a p90 needs.
std::size_t samples_per_slot(std::size_t timed_slots) {
  return (kTailSamples + timed_slots - 1) / timed_slots;
}

Profile fastest_replays(const std::vector<Episode>& episodes) {
  // Only complete episodes: one that threw is already failed and checked.
  std::size_t n = 0;
  for (const Episode& e : episodes) n = std::max(n, e.slot_ms.size());
  std::vector<const Episode*> complete;
  for (const Episode& e : episodes)
    if (n > 0 && e.slot_ms.size() == n) complete.push_back(&e);
  Profile profile;
  if (complete.empty()) return profile;

  std::vector<double> totals;
  for (const Episode* e : complete) {
    totals.push_back(0.0);
    for (double v : e->slot_ms) totals.back() += v;
  }
  std::vector<double> shape(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::vector<double> shares;
    for (std::size_t r = 0; r < complete.size(); ++r)
      shares.push_back(complete[r]->slot_ms[k] / totals[r]);
    shape[k] = median(shares);
  }
  std::vector<double> speed;  // ms per unit of shape, one per slot sample
  for (const Episode* e : complete)
    for (std::size_t k = 0; k < n; ++k) speed.push_back(e->slot_ms[k] / shape[k]);
  const std::vector<double> fast = fastest_share(std::move(speed), samples_per_slot(n));
  for (std::size_t k = 0; k < n; ++k) {
    profile.kept_ms.emplace_back();
    for (double s : fast) profile.kept_ms.back().push_back(s * shape[k]);
    profile.job_slots.push_back(complete.front()->slot_jobs[k]);
  }
  return profile;
}

double job_slots_per_s(const Profile& profile) {
  double ms = 0.0;
  double job_slots = 0.0;
  for (std::size_t k = 0; k < profile.kept_ms.size(); ++k) {
    for (double v : profile.kept_ms[k]) ms += v;
    job_slots += static_cast<double>(profile.job_slots[k] * profile.kept_ms[k].size());
  }
  return ratio(job_slots, ms / 1e3);
}

/// Median slot time of the last horizon quarter over that of the first.
double quarter_growth(const Profile& profile) {
  const std::size_t n = profile.kept_ms.size();
  if (n < 4) return 0.0;
  return median(profile.pooled(n - n / 4, n)) / median(profile.pooled(0, n / 4));
}

double on_slot_quarter_ms(const ProbeTotals& probes, std::size_t horizon, bool last) {
  const std::size_t from = last ? horizon - horizon / 4 : 0;
  const std::size_t to = last ? horizon : horizon / 4;
  double sum = 0.0;
  double count = 0.0;
  for (std::size_t k = from; k < to && k < probes.on_slot_sum_by_slot.size(); ++k) {
    sum += probes.on_slot_sum_by_slot[k];
    count += static_cast<double>(probes.on_slot_count_by_slot[k]);
  }
  return ratio(sum, count);
}

double median_or_zero(const std::vector<double>& values) {
  return values.empty() ? 0.0 : median(values);
}

}  // namespace

int main(int argc, char** argv) try {
  const Args args = parse_args(argc, argv);
  dragster::parallel::TaskPool::set_global_threads(1);

  // -- hardware and build block ----------------------------------------------
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::string build_type = DRAGBENCH_BUILD_TYPE;
  const bool release = build_type == "Release";
  const double cores = effective_cores(hw);
  std::printf("dragbench workload=%s seed=%llu seconds=%.0f trace=%d\n",
              workload_name(args.workload), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf(
      "hardware: {\"hardware_concurrency\": %u, \"effective_cores\": %.2f, \"compiler\": \"%s\", "
      "\"build_type\": \"%s\", \"kernel_simd\": \"%s\", \"task_pool_threads\": %zu, "
      "\"valid\": %s}\n",
      hw, cores, DRAGBENCH_COMPILER, build_type.c_str(), DRAGBENCH_KERNEL_SIMD,
      dragster::parallel::TaskPool::global().threads(), release ? "true" : "false");
  if (!release) std::printf("build: INVALID (not a Release build)\n");

  // -- episodes ---------------------------------------------------------------
  std::vector<Episode> plain;   // untraced
  std::vector<Episode> traced;  // all through one Tracing: its totals add up
  Tracing tracing;
  const Clock::time_point start = Clock::now();
  const auto elapsed_s = [&] { return ms_between(start, Clock::now()) / 1e3; };
  // The untraced pass replays at least twice (the same-seed checksum check).
  const std::size_t min_replays = args.trace ? 1 : 2;
  const double plain_seconds = args.trace ? args.seconds / 2.0 : args.seconds;
  // Between untraced episodes, set-up alone is repeated for about a tenth of
  // the episode's time (4 to 64 times), so the fastest twentieth of the
  // set-ups that setup_s reads still holds several samples.
  double first_episode_rss_mb = 0.0;
  std::vector<double> setup_s;
  while ((plain.size() < min_replays || elapsed_s() < plain_seconds) &&
         elapsed_s() < kMaxSeconds) {
    const Clock::time_point begin = Clock::now();
    plain.push_back(run_episode(args.workload, args.seed, nullptr));
    if (plain.size() == 1) first_episode_rss_mb = peak_rss_mb();
    setup_s.push_back(plain.back().setup_s);
    const double budget_s = 0.1 * ms_between(begin, Clock::now()) / 1e3;
    double spent_s = 0.0;
    for (int k = 0; k < 64 && (k < 4 || spent_s < budget_s); ++k) {
      setup_s.push_back(run_setup(args.workload, args.seed));
      spent_s += setup_s.back();
    }
  }
  if (args.trace) {
    while (traced.empty() || elapsed_s() < args.seconds)
      traced.push_back(run_episode(args.workload, args.seed, &tracing));
  }

  // -- checks -----------------------------------------------------------------
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, bool> checks{{"limits_respected", true},
                                     {"nodes_within_capacity", true},
                                     {"tasks_within_budget", true},
                                     {"tasks_within_bounds", true},
                                     {"metrics_finite", true},
                                     {"same_seed_checksum", true}};
  if (args.trace) checks["traced_decorated_checksum"] = true;
  const std::uint64_t reference = plain.front().checksum;
  const auto tally = [&](const std::vector<Episode>& episodes, const char* determinism) {
    for (const Episode& e : episodes) {
      attempted += e.attempted;
      std::size_t bad = e.failed;
      for (const std::string& name : e.failures) checks[name] = false;
      if (e.failures.empty() && e.checksum != reference) {
        checks[determinism] = false;
        bad = e.attempted;
      }
      failed += std::min(bad, e.attempted);
    }
  };
  tally(plain, "same_seed_checksum");
  tally(traced, "traced_decorated_checksum");
  bool all_pass = release;
  for (const auto& [name, ok] : checks) {
    std::printf("check %-28s %s\n", name.c_str(), ok ? "PASS" : "FAIL");
    all_pass = all_pass && ok;
  }
  const bool correct = all_pass && failed == 0 && attempted > 0;
  std::printf("episodes: %zu untraced, %zu traced; checksum %016llx\n", plain.size(),
              traced.size(), static_cast<unsigned long long>(reference));
  std::printf("failed_frac: %.6f (%zu of %zu job-slots)\n",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)), failed,
              attempted);

  // -- metrics ----------------------------------------------------------------
  std::vector<Metric> metrics;
  const Episode& first = plain.front();
  if (!args.trace) {
    const Profile profile = fastest_replays(plain);
    const std::vector<double> slot_ms = profile.pooled();
    std::printf("timed slots: %zu per episode; fastest twentieth of %zu replays: %zu samples; "
                "%zu set-ups\n",
                profile.kept_ms.size(), plain.size(), slot_ms.size(), setup_s.size());
    metrics = {
        {"job_slots_per_s", job_slots_per_s(profile), "1/s"},
        {"slot_ms_p50", median(slot_ms), "ms"},
        {"slot_ms_p90", tail_percentile(slot_ms, 0.9), "ms"},
        {"setup_s", fastest_share(setup_s, 1).front(), "s"},
        {"peak_rss_mb", first_episode_rss_mb, "MB"},
        {"slo_miss_frac",
         ratio(static_cast<double>(first.slo_misses), static_cast<double>(first.job_slots)),
         "ratio"},
        {"oracle_ratio", ratio(first.throughput_sum, first.oracle_sum), "ratio"},
        {"cost_per_gtuple", ratio(first.cost, first.tuples / 1e9), "USD/1e9tuples"},
    };
  } else {
    const ProbeTotals& probes = tracing.probes;
    const StampingSink::Totals& stamps = tracing.sink.totals();
    const std::size_t horizon = horizon_slots(args.workload);
    const Episode& t = traced.front();
    // Registry counters add up over the traced episodes, which are replays.
    const std::string exposition = tracing.registry.expose();
    const auto per_episode = [&](const char* family) {
      return exposition_sum(exposition, family) / static_cast<double>(traced.size());
    };
    const bool fleet = args.workload != Workload::kSingleLong;
    std::vector<double> admit_ms;
    for (const Episode& e : plain) admit_ms.push_back(e.first_slot_ms);
    const auto share = [&](Layer layer) {
      return ratio(stamps.layer_ms[static_cast<std::size_t>(layer)], stamps.armed_ms);
    };
    std::printf("stamped: %zu events over %.1f ms (other %.4f)\n", stamps.events,
                stamps.armed_ms, share(Layer::kOther));
    metrics = {
        {"streamsim.pre_ms", median_or_zero(probes.pre_ms), "ms"},
        {"core.on_slot_ms.q1", on_slot_quarter_ms(probes, horizon, false), "ms"},
        {"core.on_slot_ms.q4", on_slot_quarter_ms(probes, horizon, true), "ms"},
        {"experiments.post_ms", median_or_zero(probes.post_ms), "ms"},
        {"online.saddle_solve_us", mean(probes.saddle_us), "us"},
        {"gp.predict_batch_us", mean(probes.predict_us), "us"},
        {"gp.add_observation_us", mean(probes.add_obs_us), "us"},
        {"gp.observations", static_cast<double>(probes.gp_observations), "count"},
        {"baselines.oracle_ms", mean(probes.oracle_ms), "ms"},
        {"fleet.admit_ms", fleet ? median(admit_ms) : 0.0, "ms"},
        {"fleet.slot_growth_q4_q1", fleet ? quarter_growth(fastest_replays(plain)) : 0.0,
         "ratio"},
    };
    for (Layer layer : {Layer::kStreamsim, Layer::kCore, Layer::kExperiments, Layer::kFleet,
                        Layer::kResilience, Layer::kActuation, Layer::kTransport,
                        Layer::kFaults})
      metrics.push_back({std::string(layer_name(layer)) + ".share", share(layer), "ratio"});
    const auto count = [](std::size_t v) { return static_cast<double>(v); };
    const std::vector<Metric> counts{
        {"resilience.snapshots", count(t.snapshots), "count"},
        {"resilience.replayed_frames", count(t.replayed_frames), "count"},
        {"actuation.epochs_issued", count(t.epochs_issued), "count"},
        {"actuation.applied_ratio",
         ratio(count(t.epochs_applied), count(t.epochs_issued)), "ratio"},
        {"transport.command_retries", per_episode("transport_command_retries_total"), "count"},
        {"transport.commands_exhausted", per_episode("transport_commands_exhausted_total"),
         "count"},
        {"fleet.sheds", count(t.sheds), "count"},
        {"fleet.restores", count(t.restores), "count"},
        {"faults.applied", count(t.faults_applied), "count"},
        {"obs.overhead_frac",
         1.0 - ratio(job_slots_per_s(fastest_replays(traced)),
                     job_slots_per_s(fastest_replays(plain))),
         "ratio"},
    };
    metrics.insert(metrics.end(), counts.begin(), counts.end());
  }

  for (const Metric& m : metrics)
    std::printf("metric %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    json += (k ? ", \"" : "\"") + metrics[k].name + "\": {\"value\": " +
            json_number(metrics[k].value) + ", \"unit\": \"" + metrics[k].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
} catch (const std::exception& error) {
  std::fflush(stdout);
  std::fprintf(stderr, "dragbench: %s\n", error.what());
  return 1;
}
