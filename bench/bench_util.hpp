// Shared plumbing for the reproduction benches: the compared scheme names,
// common flags, and small formatting helpers.  Each bench binary regenerates one
// table or figure of the paper (see DESIGN.md's experiment index).
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "core/dragster_controller.hpp"
#include "experiments/scenario.hpp"
#include "obs/registry.hpp"
#include "parallel/task_pool.hpp"
#include "workloads/workloads.hpp"

namespace dragster::bench {

/// Applies the `--threads N` knob to the process-wide TaskPool (absent flag:
/// leave the DRAGSTER_THREADS / serial default untouched).  Call once, before
/// the first sweep.
inline void configure_threads(const common::Flags& flags) {
  const std::int64_t threads = flags.get("threads", static_cast<std::int64_t>(-1));
  if (threads >= 0) parallel::TaskPool::set_global_threads(static_cast<std::size_t>(threads));
}

/// Index-ordered seed/arm sweep.  Every cell commits to its own slot BEFORE
/// any aggregation happens, so aggregate stats fold in cell-index order no
/// matter which thread finished first — accumulating into shared sums from
/// inside the loop body would tie the result bytes to completion order the
/// moment the sweep fans out.  Serial pools run the cells inline in index
/// order, bit-identical to the plain loop this replaces.
template <typename Result, typename Fn>
[[nodiscard]] std::vector<Result> sweep_indexed(std::size_t cells, Fn&& fn) {
  parallel::TaskPool& pool = parallel::TaskPool::global();
  if (pool.threads() > 1 && !parallel::TaskPool::in_worker())
    return pool.map<Result>(cells, std::forward<Fn>(fn));
  std::vector<Result> out(cells);
  for (std::size_t i = 0; i < cells; ++i) out[i] = fn(i);
  return out;
}

/// Optional telemetry for any figure binary: `--trace-jsonl run.jsonl`
/// streams the structured per-slot trace, `--metrics metrics.prom` dumps the
/// Prometheus exposition at destruction.  With neither flag registry() is
/// null and the run is telemetry-free, exactly as before.  Pass registry()
/// as the `obs` argument of run_scenario; runs must be sequential (the
/// registry is not thread-safe — do not share it across sweep_indexed cells).
/// The constructor only reads the two flags; the first registry() call opens
/// the trace, so a binary rejects unknown flags before touching any file.
class Observability {
 public:
  explicit Observability(const common::Flags& flags)
      : metrics_path_(flags.get("metrics", std::string())),
        trace_path_(flags.get("trace-jsonl", std::string())) {}

  ~Observability() {
    if (registry_ == nullptr || metrics_path_.empty()) return;
    if (std::FILE* out = std::fopen(metrics_path_.c_str(), "w")) {
      const std::string text = registry_->expose();
      std::fwrite(text.data(), 1, text.size(), out);
      std::fclose(out);
      std::printf("metrics written to %s\n", metrics_path_.c_str());
    }
  }

  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  [[nodiscard]] obs::Registry* registry() {
    if (registry_ != nullptr || (trace_path_.empty() && metrics_path_.empty()))
      return registry_.get();
    registry_ = std::make_unique<obs::Registry>();
    if (!trace_path_.empty()) {
      trace_ = std::make_unique<obs::FileTraceSink>(trace_path_);
      registry_->set_trace(trace_.get());
    }
    return registry_.get();
  }

 private:
  std::string metrics_path_;
  std::string trace_path_;
  std::unique_ptr<obs::FileTraceSink> trace_;
  std::unique_ptr<obs::Registry> registry_;
};

inline const std::vector<std::string>& scheme_names() {
  static const std::vector<std::string> names{"Dhalion", "Dragster(saddle)", "Dragster(ogd)"};
  return names;
}

inline std::string fmt_min(const std::optional<double>& minutes) {
  return minutes ? common::Table::num(*minutes, 0) : "-";
}

inline void print_header(const char* what, std::uint64_t seed) {
  std::printf("=== %s (seed %llu) ===\n", what, static_cast<unsigned long long>(seed));
}

}  // namespace dragster::bench
