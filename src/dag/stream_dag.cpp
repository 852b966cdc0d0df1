#include "dag/stream_dag.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/error.hpp"

namespace dragster::dag {

NodeId StreamDag::add_component(std::string name, ComponentKind kind) {
  DRAGSTER_REQUIRE(!validated_, "cannot modify a validated DAG");
  DRAGSTER_REQUIRE(!find(name).has_value(), "duplicate component name: " + name);
  components_.push_back(Component{std::move(name), kind});
  in_edges_.emplace_back();
  out_edges_.emplace_back();
  return components_.size() - 1;
}

NodeId StreamDag::add_source(std::string name) {
  return add_component(std::move(name), ComponentKind::kSource);
}

NodeId StreamDag::add_operator(std::string name) {
  return add_component(std::move(name), ComponentKind::kOperator);
}

NodeId StreamDag::add_sink(std::string name) {
  return add_component(std::move(name), ComponentKind::kSink);
}

void StreamDag::add_edge(NodeId from, NodeId to, ThroughputFn fn, std::optional<double> alpha) {
  DRAGSTER_REQUIRE(!validated_, "cannot modify a validated DAG");
  DRAGSTER_REQUIRE(from < components_.size() && to < components_.size(),
                   "edge references unknown node");
  DRAGSTER_REQUIRE(from != to, "self-loops are not allowed");
  DRAGSTER_REQUIRE(components_[to].kind != ComponentKind::kSource,
                   "sources cannot receive edges");
  DRAGSTER_REQUIRE(components_[from].kind != ComponentKind::kSink, "sinks cannot emit edges");
  // Negative alphas are the internal "unset" marker, so an explicit one must
  // be rejected here; the comparisons also reject NaN.
  DRAGSTER_REQUIRE(!alpha || (*alpha >= 0.0 && *alpha <= 1.0),
                   "alpha must lie in [0, 1] on edge " + components_[from].name + " -> " +
                       components_[to].name);
  const std::size_t index = edges_.size();
  edges_.push_back(Edge{from, to, std::move(fn), alpha.value_or(-1.0)});
  out_edges_[from].push_back(index);
  in_edges_[to].push_back(index);
}

void StreamDag::validate() {
  DRAGSTER_REQUIRE(!validated_, "DAG already validated");
  DRAGSTER_REQUIRE(!components_.empty(), "empty DAG");

  // Sources exist and have no predecessors.
  bool has_source = false;
  for (NodeId id = 0; id < components_.size(); ++id) {
    if (components_[id].kind == ComponentKind::kSource) {
      has_source = true;
      DRAGSTER_REQUIRE(in_edges_[id].empty(), "source has incoming edges");
      DRAGSTER_REQUIRE(!out_edges_[id].empty(), "source emits nothing");
    }
  }
  DRAGSTER_REQUIRE(has_source, "DAG needs at least one source");

  // Synthesize a virtual sink if needed: collect terminal non-sink nodes and
  // explicit sinks; if more than one terminal overall, funnel into one sink.
  std::vector<NodeId> terminals;
  for (NodeId id = 0; id < components_.size(); ++id) {
    if (out_edges_[id].empty()) terminals.push_back(id);
  }
  DRAGSTER_REQUIRE(!terminals.empty(), "DAG has a cycle touching every terminal");
  if (terminals.size() == 1 && components_[terminals[0]].kind == ComponentKind::kSink) {
    sink_ = terminals[0];
  } else if (terminals.size() == 1 && components_[terminals[0]].kind == ComponentKind::kOperator) {
    // Lone terminal operator: append a sink behind it.
    sink_ = add_component("__virtual_sink", ComponentKind::kSink);
    add_edge(terminals[0], sink_, identity_fn(), 1.0);
  } else {
    sink_ = add_component("__virtual_sink", ComponentKind::kSink);
    for (NodeId t : terminals) {
      if (t == sink_) continue;
      DRAGSTER_REQUIRE(components_[t].kind != ComponentKind::kSource,
                       "source directly feeding the sink is not a streaming app");
      // Existing explicit sinks become pass-through operators feeding the
      // virtual sink so "the throughput of the sink is the application
      // throughput" still holds with one sink.
      if (components_[t].kind == ComponentKind::kSink)
        components_[t].kind = ComponentKind::kOperator;
      add_edge(t, sink_, identity_fn(), 1.0);
    }
  }

  // Arity of each edge function must match the emitting node's in-degree
  // (h_{i,j} consumes operator i's input vector).  Sources consume their
  // offered load, modeled as a single pseudo-input.
  for (const Edge& e : edges_) {
    const std::size_t expected =
        components_[e.from].kind == ComponentKind::kSource ? 1 : in_edges_[e.from].size();
    DRAGSTER_REQUIRE(e.fn.arity() == expected,
                     "throughput function arity does not match in-degree at " +
                         components_[e.from].name);
  }

  // Normalize alpha: edges created without an explicit weight share equally
  // in the *remaining* mass after explicit weights.
  for (NodeId id = 0; id < components_.size(); ++id) {
    const auto& outs = out_edges_[id];
    if (outs.empty()) continue;
    double explicit_sum = 0.0;
    std::size_t implicit_count = 0;
    for (std::size_t eidx : outs) {
      if (edges_[eidx].alpha < 0.0)
        ++implicit_count;
      else
        explicit_sum += edges_[eidx].alpha;
    }
    DRAGSTER_REQUIRE(explicit_sum <= 1.0 + 1e-9, "alpha weights exceed 1 at " + components_[id].name);
    if (implicit_count > 0) {
      const double share = (1.0 - explicit_sum) / static_cast<double>(implicit_count);
      for (std::size_t eidx : outs)
        if (edges_[eidx].alpha < 0.0) edges_[eidx].alpha = share;
    } else {
      DRAGSTER_REQUIRE(std::abs(explicit_sum - 1.0) < 1e-9,
                       "alpha weights must sum to 1 at " + components_[id].name);
    }
  }

  compute_topo_order();
  sources_ = nodes_of_kind(ComponentKind::kSource);
  operators_ = nodes_of_kind(ComponentKind::kOperator);
  validated_ = true;
}

void StreamDag::compute_topo_order() {
  std::vector<std::size_t> indegree(components_.size());
  for (NodeId id = 0; id < components_.size(); ++id) indegree[id] = in_edges_[id].size();
  std::queue<NodeId> ready;
  for (NodeId id = 0; id < components_.size(); ++id)
    if (indegree[id] == 0) ready.push(id);
  topo_.clear();
  while (!ready.empty()) {
    const NodeId id = ready.front();
    ready.pop();
    topo_.push_back(id);
    for (std::size_t eidx : out_edges_[id]) {
      if (--indegree[edges_[eidx].to] == 0) ready.push(edges_[eidx].to);
    }
  }
  DRAGSTER_REQUIRE(topo_.size() == components_.size(), "DAG contains a cycle");
}

std::vector<NodeId> StreamDag::nodes_of_kind(ComponentKind kind) const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < components_.size(); ++id)
    if (components_[id].kind == kind) out.push_back(id);
  return out;
}

const std::vector<NodeId>& StreamDag::sources() const {
  DRAGSTER_REQUIRE(validated_, "call validate() first");
  return sources_;
}

const std::vector<NodeId>& StreamDag::operators() const {
  DRAGSTER_REQUIRE(validated_, "call validate() first");
  return operators_;
}

NodeId StreamDag::sink() const {
  DRAGSTER_REQUIRE(validated_, "call validate() first");
  return sink_;
}

const std::vector<NodeId>& StreamDag::topo_order() const {
  DRAGSTER_REQUIRE(validated_, "call validate() first");
  return topo_;
}

std::optional<NodeId> StreamDag::find(const std::string& name) const {
  for (NodeId id = 0; id < components_.size(); ++id)
    if (components_[id].name == name) return id;
  return std::nullopt;
}

}  // namespace dragster::dag
