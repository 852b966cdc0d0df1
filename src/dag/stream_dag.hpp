// Stream-processing application model: a DAG of sources, operators, sinks.
//
// Mirrors the paper's Section 4.1: N sources emit offered load; M operators
// transform it through per-edge throughput functions h_{i,j} with capacity
// split weights alpha_{i,j} (sum over successors = 1); one sink (a virtual
// sink is synthesized when several components have no successor).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dag/throughput_fn.hpp"

namespace dragster::dag {

using NodeId = std::size_t;

enum class ComponentKind { kSource, kOperator, kSink };

struct Component {
  std::string name;
  ComponentKind kind = ComponentKind::kOperator;
};

struct Edge {
  NodeId from = 0;
  NodeId to = 0;
  ThroughputFn fn;     ///< h_{from,to}; consumes `from`'s inputs
  double alpha = 1.0;  ///< capacity split weight alpha_{from,to}
};

class StreamDag {
 public:
  NodeId add_source(std::string name);
  NodeId add_operator(std::string name);
  NodeId add_sink(std::string name);

  /// Adds edge from->to carrying throughput function `fn`.  `alpha` defaults
  /// to "rebalance equally among successors" (fixed up in validate()); an
  /// explicit alpha must lie in [0, 1].
  void add_edge(NodeId from, NodeId to, ThroughputFn fn,
                std::optional<double> alpha = std::nullopt);

  /// Checks the structure: acyclic, edges reference valid nodes, sources
  /// have no predecessors, sinks no successors, at least one source and one
  /// sink, throughput-function arity matches in-degree.  Normalizes missing
  /// alpha weights to equal split and verifies each node's alphas sum to 1.
  /// Synthesizes a virtual sink when several terminal components exist.
  /// Must be called once after construction; throws on violations.
  void validate();

  [[nodiscard]] bool validated() const noexcept { return validated_; }

  [[nodiscard]] std::size_t node_count() const noexcept { return components_.size(); }
  [[nodiscard]] std::size_t edge_count() const noexcept { return edges_.size(); }
  [[nodiscard]] const Component& component(NodeId id) const { return components_.at(id); }
  [[nodiscard]] const Edge& edge(std::size_t index) const { return edges_.at(index); }
  [[nodiscard]] Edge& edge_mutable(std::size_t index) { return edges_.at(index); }

  /// Edge indexes entering / leaving a node, in insertion order.  The input
  /// vector fed to h_{i,j} is ordered by `in_edges(i)`.
  [[nodiscard]] const std::vector<std::size_t>& in_edges(NodeId id) const {
    return in_edges_.at(id);
  }
  [[nodiscard]] const std::vector<std::size_t>& out_edges(NodeId id) const {
    return out_edges_.at(id);
  }

  /// All nodes of a kind, ascending id.
  [[nodiscard]] std::vector<NodeId> nodes_of_kind(ComponentKind kind) const;

  /// Sources / operators, ascending id (valid after validate(), which builds
  /// both lists once the virtual sink has turned explicit sinks into
  /// operators).
  [[nodiscard]] const std::vector<NodeId>& sources() const;
  [[nodiscard]] const std::vector<NodeId>& operators() const;

  /// The unique sink (valid after validate()).
  [[nodiscard]] NodeId sink() const;

  /// Topological order over all nodes (valid after validate()).
  [[nodiscard]] const std::vector<NodeId>& topo_order() const;

  /// Looks up a component id by name.
  [[nodiscard]] std::optional<NodeId> find(const std::string& name) const;

 private:
  NodeId add_component(std::string name, ComponentKind kind);
  void compute_topo_order();

  std::vector<Component> components_;
  std::vector<Edge> edges_;
  std::vector<std::vector<std::size_t>> in_edges_;
  std::vector<std::vector<std::size_t>> out_edges_;
  std::vector<NodeId> topo_;
  std::vector<NodeId> sources_;    ///< set by validate()
  std::vector<NodeId> operators_;  ///< set by validate()
  NodeId sink_ = 0;  ///< set by validate()
  bool validated_ = false;
};

}  // namespace dragster::dag
