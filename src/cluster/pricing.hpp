// Pod resource specifications and cloud pricing.
//
// The paper's TaskManager pods are fixed 1 CPU / 2 GB slots; heterogeneous
// pods (the vertical-scaling ablation) bill CPU and memory separately like
// the major clouds do.
#pragma once

namespace dragster::cluster {

struct PodSpec {
  double cpu_cores = 1.0;
  double memory_gb = 2.0;

  [[nodiscard]] bool operator==(const PodSpec&) const = default;
};

/// $0.06 per core-hour plus $0.02 per GB-hour: the paper's standard slot
/// (1 CPU, 2 GB) costs $0.10/hour, so the tight budget of $1.6/hour buys 16
/// pods.
[[nodiscard]] constexpr double pod_price_per_hour(const PodSpec& spec) noexcept {
  return 0.06 * spec.cpu_cores + 0.02 * spec.memory_gb;
}

}  // namespace dragster::cluster
