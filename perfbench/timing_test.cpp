// Tests of the benchmark's own timing code.  Build and run with
//
//   cmake -S perfbench -B .bench_build/perfbench -DCMAKE_BUILD_TYPE=Release
//   cmake --build .bench_build/perfbench --target dragbench_tests
//   .bench_build/perfbench/dragbench_tests
//
// Exit code 0 when every check holds; each failure is printed.
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/dragster_controller.hpp"
#include "experiments/scenario.hpp"
#include "obs/registry.hpp"
#include "resilience/supervisor.hpp"
#include "timing.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace dragster;
using namespace dragbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::printf("FAIL: %s\n", what.c_str());
}

template <typename Fn>
bool throws_error(Fn&& fn) {
  try {
    fn();
  } catch (const dragster::Error&) {
    return true;
  }
  return false;
}

constexpr std::size_t kSlots = 40;

/// WordCount under Dragster(saddle) for kSlots slots; optionally decorated
/// and traced.  Returns the RunResult checksum.
std::uint64_t wordcount_run(bool decorate, StampingSink* sink, std::vector<double>* step_ms,
                            std::size_t* on_slot_calls) {
  const workloads::WorkloadSpec spec = workloads::wordcount();
  streamsim::Engine engine = spec.make_engine(true, streamsim::EngineOptions{}, 11);
  core::DragsterOptions options;
  options.budget = online::Budget(1.6, 0.10);
  core::DragsterController controller(options);
  TimedController timed(controller);
  core::Controller& driven = decorate ? static_cast<core::Controller&>(timed) : controller;
  obs::Registry registry;
  if (sink != nullptr) registry.set_trace(sink);
  experiments::ScenarioOptions scenario;
  scenario.slots = kSlots;
  scenario.budget = options.budget;
  experiments::ScenarioRunner runner(engine, driven, scenario, spec.name, nullptr, nullptr,
                                     sink != nullptr ? &registry : nullptr);
  // The slot time comes from clock reads of its own, outside the sink's
  // begin/end stamps, so the sink's total is checked against an independent
  // measurement.
  for (std::size_t t = 0; t < kSlots; ++t) {
    const Clock::time_point outer_begin = Clock::now();
    if (sink != nullptr) sink->begin(Clock::now());
    runner.step();
    if (sink != nullptr) sink->end(Clock::now(), Layer::kExperiments);
    if (step_ms != nullptr) step_ms->push_back(ms_between(outer_begin, Clock::now()));
  }
  if (on_slot_calls != nullptr) *on_slot_calls = timed.on_slot_ms().size();
  return checksum(runner.finish());
}

void decorator_is_behaviour_neutral() {
  std::size_t calls = 0;
  const std::uint64_t bare = wordcount_run(false, nullptr, nullptr, nullptr);
  const std::uint64_t decorated = wordcount_run(true, nullptr, nullptr, &calls);
  expect(bare == decorated, "decorated run checksum equals the bare run");
  expect(calls == kSlots, "decorator stamped every on_slot call");
  StampingSink sink;
  const std::uint64_t traced = wordcount_run(true, &sink, nullptr, nullptr);
  expect(bare == traced, "traced and decorated run checksum equals the bare run");
}

void decorator_refuses_a_supervisor() {
  resilience::ControllerSupervisor supervisor(
      std::make_unique<core::DragsterController>(core::DragsterOptions{}),
      resilience::SupervisorOptions{});
  expect(throws_error([&] { TimedController timed(supervisor); }),
         "TimedController refuses to wrap a ControllerSupervisor");
}

void stamped_shares_sum_to_slot_time() {
  StampingSink sink;
  std::vector<double> step_ms;
  (void)wordcount_run(true, &sink, &step_ms, nullptr);
  const StampingSink::Totals& totals = sink.totals();
  const double slots = std::accumulate(step_ms.begin(), step_ms.end(), 0.0);
  const double layers = std::accumulate(totals.layer_ms.begin(), totals.layer_ms.end(), 0.0);
  expect(std::abs(layers - slots) <= 0.01 * slots,
         "layer times sum to the traced slot time within 1% (" + std::to_string(layers) +
             " vs " + std::to_string(slots) + " ms)");
  expect(totals.events > 0, "the sink saw trace events");
  expect(totals.layer_ms[static_cast<std::size_t>(Layer::kOther)] == 0.0,
         "every WordCount event maps to a named layer");
  for (Layer layer : {Layer::kStreamsim, Layer::kCore, Layer::kExperiments})
    expect(totals.layer_ms[static_cast<std::size_t>(layer)] > 0.0,
           std::string("layer ") + layer_name(layer) + " was charged time");
}

/// Known events at known times: each interval lands in the layer of the
/// event that closes it, and the tail in the caller's layer.
void stamped_intervals_land_in_their_layers() {
  const auto busy_ms = [](double ms) {
    const Clock::time_point from = Clock::now();
    while (ms_between(from, Clock::now()) < ms) {
    }
  };
  StampingSink sink;
  const Clock::time_point begin = Clock::now();
  sink.begin(begin);
  busy_ms(2.0);
  sink.write(R"({"type":"engine_slot","slot":0})");
  busy_ms(3.0);
  sink.write(R"({"type":"decision","slot":0})");
  busy_ms(1.0);
  const Clock::time_point end = Clock::now();
  sink.end(end, Layer::kFleet);
  const auto ms = [&](Layer layer) { return sink.totals().layer_ms[static_cast<std::size_t>(layer)]; };
  expect(ms(Layer::kStreamsim) >= 2.0, "the engine_slot interval is charged to streamsim");
  expect(ms(Layer::kCore) >= 3.0, "the decision interval is charged to core");
  expect(ms(Layer::kFleet) >= 1.0, "the tail is charged to the caller's layer");
  expect(ms(Layer::kExperiments) == 0.0 && ms(Layer::kOther) == 0.0,
         "no other layer is charged");
  expect(sink.totals().events == 2, "the sink counted both events");
  expect(std::abs(sink.totals().armed_ms - ms_between(begin, end)) < 1e-9,
         "the armed time is the begin-to-end interval");
}

void stamping_sink_ignores_events_while_disarmed() {
  StampingSink sink;
  sink.write(R"({"type":"engine_slot","slot":0})");
  expect(sink.totals().events == 0, "a disarmed sink counts no events");
}

void layer_mapping() {
  expect(layer_of("engine_op") == Layer::kStreamsim, "engine_op -> streamsim");
  expect(layer_of("decision") == Layer::kCore, "decision -> core");
  expect(layer_of("scenario_slot") == Layer::kExperiments, "scenario_slot -> experiments");
  expect(layer_of("fleet_chaos_slot") == Layer::kFleet, "fleet_chaos_slot -> fleet");
  expect(layer_of("restore") == Layer::kResilience, "restore -> resilience");
  expect(layer_of("epoch_issued") == Layer::kActuation, "epoch_issued -> actuation");
  expect(layer_of("transport_retry") == Layer::kTransport, "transport_retry -> transport");
  expect(layer_of("fault_injected") == Layer::kFaults, "fault_injected -> faults");
  expect(layer_of("something_new") == Layer::kOther, "unknown -> other");
}

void percentiles() {
  std::vector<double> hundred(100);
  std::iota(hundred.begin(), hundred.end(), 1.0);
  expect(std::abs(tail_percentile(hundred, 0.9) - 90.1) < 1e-9, "p90 of 1..100 is 90.1");
  expect(median(hundred) == 50.5, "median of 1..100 is 50.5");
  std::vector<double> short_tail(hundred.begin(), hundred.begin() + 99);
  expect(throws_error([&] { (void)tail_percentile(short_tail, 0.9); }),
         "p90 of 99 samples (9 above it) is an error");
  expect(throws_error([&] { (void)tail_percentile({1.0, 2.0, 3.0}, 0.5); }),
         "a median of 3 samples through tail_percentile is an error");
  expect(throws_error([] { (void)median({}); }), "median of nothing is an error");
}

void checksum_sensitivity() {
  Fnv1a a;
  Fnv1a b;
  a.add(1.0);
  b.add(1.0 + 1e-15);
  expect(a.value() != b.value(), "FNV-1a sees the last bit of a double");
  Fnv1a c;
  c.add(1.0);
  expect(a.value() == c.value(), "FNV-1a is deterministic");
}

}  // namespace

int main() {
  decorator_is_behaviour_neutral();
  decorator_refuses_a_supervisor();
  stamped_shares_sum_to_slot_time();
  stamped_intervals_land_in_their_layers();
  stamping_sink_ignores_events_while_disarmed();
  layer_mapping();
  percentiles();
  checksum_sensitivity();
  std::printf("%s (%d failures)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
