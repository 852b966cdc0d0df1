// Deterministic metrics registry with Prometheus text exposition.
//
// The registry is the single handle the rest of the system threads around
// (`obs::Registry*`, null = observability off, zero overhead).  It owns
//   * metric families — counters, gauges, histograms — addressed by
//     (name, labels), with stable references returned to instrumented code;
//   * an optional TraceSink every instrumented component shares.
//
// Exposition follows the Prometheus text format (# HELP / # TYPE headers,
// `name{label="v"} value` samples, cumulative `le` histogram buckets).  All
// iteration orders are std::map orders and all numbers go through
// obs::format_double, so expose() is byte-deterministic for a given metric
// state — the bench-smoke CI job parses it alongside the BENCH_*.json files.
//
// Not thread-safe by design: the simulator is single-threaded per run, and
// each concurrent bench::sweep_indexed cell gets its own registry (or none).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace dragster::obs {

using Labels = std::map<std::string, std::string>;

/// Monotonically increasing sample (resets only with the registry).
class Counter {
 public:
  void inc(double amount = 1.0) { value_ += amount; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Last-write-wins sample.
class Gauge {
 public:
  void set(double value) noexcept { value_ = value; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram (upper bounds, strictly increasing; an implicit
/// +Inf bucket catches the overflow).
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value);

  [[nodiscard]] const std::vector<double>& upper_bounds() const noexcept { return bounds_; }
  /// Per-bucket (non-cumulative) counts; back() is the +Inf bucket.
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts() const noexcept {
    return counts_;
  }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;  ///< bounds_.size() + 1 entries
  double sum_ = 0.0;
  std::uint64_t count_ = 0;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns the (name, labels) child, creating it on first use.  A name
  /// registers exactly one metric type and one help string; conflicting
  /// re-registration throws dragster::Error.  Names must match
  /// [a-zA-Z_:][a-zA-Z0-9_:]*, label names [a-zA-Z_][a-zA-Z0-9_]*.
  [[nodiscard]] Counter& counter(const std::string& name, const std::string& help,
                                 const Labels& labels = {});
  [[nodiscard]] Gauge& gauge(const std::string& name, const std::string& help,
                             const Labels& labels = {});
  /// All children of one histogram family share the first-registered bounds.
  [[nodiscard]] Histogram& histogram(const std::string& name, const std::string& help,
                                     const std::vector<double>& upper_bounds,
                                     const Labels& labels = {});

  /// Prometheus text exposition of every registered family, families in name
  /// order and children in serialized-label order.
  [[nodiscard]] std::string expose() const;

  // -- trace plumbing -------------------------------------------------------
  /// The sink is borrowed, not owned; it must outlive the registry's users.
  void set_trace(TraceSink* sink) noexcept {
    trace_ = sink;
    if (trace_ != nullptr) apply_scope_to_trace();
  }
  [[nodiscard]] TraceSink* trace() const noexcept { return trace_; }

  // -- scope labels (multi-tenant attribution) ------------------------------
  /// Labels merged into every metric lookup and stamped onto every trace
  /// event until the next set_scope (explicit labels win on collision).  The
  /// fleet scheduler brackets each job's step with set_scope({{"job", name}})
  /// / set_scope({}); the empty default leaves single-job output unchanged.
  void set_scope(const Labels& scope);
  [[nodiscard]] const Labels& scope() const noexcept { return scope_; }

 private:
  template <typename Metric>
  struct Family {
    std::string help;
    std::map<std::string, std::unique_ptr<Metric>> children;  ///< by label string
  };

  void claim_name(const std::string& name, char type, const std::string& help);
  [[nodiscard]] Labels scoped(const Labels& labels) const;
  void apply_scope_to_trace();

  Labels scope_;
  std::map<std::string, Family<Counter>> counters_;
  std::map<std::string, Family<Gauge>> gauges_;
  std::map<std::string, Family<Histogram>> histograms_;
  std::map<std::string, char> types_;  ///< name -> 'c' / 'g' / 'h'
  TraceSink* trace_ = nullptr;
};

}  // namespace dragster::obs
