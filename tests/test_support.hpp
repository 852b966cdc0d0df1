// Shared by the flow-solver, saddle-point and engine tests: a branching DAG
// and the bit patterns of a double vector, for bit-for-bit comparisons.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "dag/stream_dag.hpp"
#include "dag/throughput_fn.hpp"

namespace dragster::dag {

// A fan-out with a split alpha, a Tanh edge and a MinWeighted join:
//   src -> a;  a -> b (alpha 0.3), a -> c (alpha 0.7);  b -> d (tanh);
//   d -> j, c -> j;  j -> sink (min_weighted over [d, c]).
// `custom_edge` adds c -> sink through a CustomFn, e / (1 + e / 4000)
// (c's two out-edges then split its capacity equally).
struct BranchFixture {
  StreamDag dag;
  NodeId src, a, b, c, d, j, sink;

  explicit BranchFixture(bool custom_edge = false) {
    src = dag.add_source("src");
    a = dag.add_operator("a");
    b = dag.add_operator("b");
    c = dag.add_operator("c");
    d = dag.add_operator("d");
    j = dag.add_operator("j");
    sink = dag.add_sink("sink");
    dag.add_edge(src, a, identity_fn());
    dag.add_edge(a, b, selectivity_fn(1.0), 0.3);
    dag.add_edge(a, c, selectivity_fn(2.0), 0.7);
    dag.add_edge(b, d, TanhFn(400.0, {1.0 / 300.0}));
    dag.add_edge(d, j, identity_fn());
    dag.add_edge(c, j, selectivity_fn(0.5));
    dag.add_edge(j, sink, MinWeightedFn({1.0, 0.8}));
    if (custom_edge) {
      const CustomFn saturating(
          1, [](std::span<const double> e) { return e[0] / (1.0 + e[0] / 4000.0); },
          [](std::span<const double> e, double adjoint, std::span<double> adjoints) {
            const double q = 1.0 + e[0] / 4000.0;
            adjoints[0] += adjoint / (q * q);
          });
      dag.add_edge(c, sink, saturating);
    }
    dag.validate();
  }
};

inline std::vector<std::uint64_t> bits(const std::vector<double>& values) {
  std::vector<std::uint64_t> out;
  out.reserve(values.size());
  for (double v : values) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

}  // namespace dragster::dag
