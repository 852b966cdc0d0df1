// Shared timing helpers for the repository benchmark (dragbench).
//
// Everything here measures the program from the outside: a forwarding
// core::Controller decorator that stamps on_slot, a TraceSink that stamps
// wall time on the trace events the library already emits, tail-aware
// percentiles, an FNV-1a checksum over run results, and peak RSS.  Nothing
// here is linked into the library; the library itself carries no clock.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/controller.hpp"
#include "experiments/scenario.hpp"
#include "fleet/fleet_result.hpp"
#include "obs/trace.hpp"

namespace dragbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double ms_between(Clock::time_point begin, Clock::time_point end);

/// Forwarding decorator: every call goes unchanged to the wrapped controller;
/// on_slot is stamped on entry and exit.  Refuses to wrap a
/// resilience::ControllerSupervisor, because ScenarioRunner finds the
/// supervisor by dynamic_cast and a wrapped one would turn `ctrlcrash` into
/// an amnesiac restart.
class TimedController final : public dragster::core::Controller {
 public:
  explicit TimedController(dragster::core::Controller& inner);

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void set_observability(dragster::obs::Registry* registry) override {
    inner_.set_observability(registry);
  }
  void initialize(const dragster::streamsim::JobMonitor& monitor,
                  dragster::streamsim::ScalingActuator& actuator) override {
    inner_.initialize(monitor, actuator);
  }
  void on_slot(const dragster::streamsim::JobMonitor& monitor,
               dragster::streamsim::ScalingActuator& actuator) override;
  void set_budget(const dragster::online::Budget& budget) override { inner_.set_budget(budget); }
  [[nodiscard]] double budget_pressure() const override { return inner_.budget_pressure(); }

  /// Stamps of the most recent on_slot call.
  [[nodiscard]] Clock::time_point entered() const noexcept { return entered_; }
  [[nodiscard]] Clock::time_point exited() const noexcept { return exited_; }
  /// Wall time of every on_slot call so far, in call order.
  [[nodiscard]] const std::vector<double>& on_slot_ms() const noexcept { return on_slot_ms_; }

 private:
  dragster::core::Controller& inner_;
  Clock::time_point entered_{};
  Clock::time_point exited_{};
  std::vector<double> on_slot_ms_;
};

/// Layers the stamping sink charges time to, named after the src/ modules
/// whose trace events close each interval.
enum class Layer : std::size_t {
  kStreamsim,
  kCore,
  kExperiments,
  kFleet,
  kResilience,
  kActuation,
  kTransport,
  kFaults,
  kOther,
};
inline constexpr std::size_t kLayerCount = 9;
[[nodiscard]] const char* layer_name(Layer layer);
/// The layer an event type belongs to; unknown types map to kOther.
[[nodiscard]] Layer layer_of(std::string_view event_type);

/// TraceSink that keeps no text: while armed, each event stamps the wall
/// clock and the interval since the previous stamp is charged to the event's
/// layer.  end() charges the tail interval to the caller's layer, so the
/// layer totals sum to the armed wall time exactly.
class StampingSink final : public dragster::obs::TraceSink {
 public:
  struct Totals {
    std::array<double, kLayerCount> layer_ms{};  ///< indexed by Layer
    double armed_ms = 0.0;
    std::size_t events = 0;
  };

  void write(std::string_view line) override;

  /// Arms the sink at `at`, the entry stamp of the timed call.
  void begin(Clock::time_point at);
  /// Disarms at `at`, the exit stamp, charging the tail to `closing`.
  void end(Clock::time_point at, Layer closing);

  [[nodiscard]] const Totals& totals() const noexcept { return totals_; }

 private:
  void charge(Layer layer, Clock::time_point now);

  bool armed_ = false;
  Clock::time_point last_{};
  Clock::time_point armed_at_{};
  Totals totals_;
};

/// Median by linear interpolation; throws dragster::Error on no samples.
[[nodiscard]] double median(std::vector<double> values);
/// q-quantile (0 < q < 1) by linear interpolation.  A tail quantile needs
/// support: throws dragster::Error when fewer than 10 samples rank above it,
/// so p90 needs at least 100 samples.
[[nodiscard]] double tail_percentile(std::vector<double> values, double q);
[[nodiscard]] double mean(const std::vector<double>& values);

/// 64-bit FNV-1a over the exact bits of what it is fed.
class Fnv1a {
 public:
  void add(std::uint64_t value);
  void add(double value);
  void add(std::string_view text);
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  void byte(unsigned char b) noexcept;

  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Checksums over every simulated quantity of a run (no wall clock).
void add_to(Fnv1a& hash, const dragster::experiments::RunResult& run);
[[nodiscard]] std::uint64_t checksum(const dragster::experiments::RunResult& run);
[[nodiscard]] std::uint64_t checksum(const dragster::fleet::FleetResult& result);

/// Peak resident set of this process image so far, in MB (VmHWM, else
/// getrusage).
[[nodiscard]] double peak_rss_mb();

}  // namespace dragbench
