#include "cluster/cluster.hpp"

#include "common/error.hpp"

namespace dragster::cluster {

void Cluster::add_deployment(const std::string& name, int replicas, PodSpec spec,
                             const std::string& job) {
  DRAGSTER_REQUIRE(!deployments_.count(name), "duplicate deployment: " + name);
  DRAGSTER_REQUIRE(replicas >= 1, "deployment needs at least one replica");
  Deployment& d = deployments_[name] = Deployment{name, replicas, spec, 0, job, {}};
  reconcile_placement(d);
}

Deployment& Cluster::deployment_mutable(const std::string& name) {
  const auto it = deployments_.find(name);
  DRAGSTER_REQUIRE(it != deployments_.end(), "unknown deployment: " + name);
  return it->second;
}

void Cluster::scale_replicas(const std::string& name, int replicas) {
  DRAGSTER_REQUIRE(replicas >= 1, "deployment needs at least one replica");
  Deployment& d = deployment_mutable(name);
  d.replicas = replicas;
  reconcile_placement(d);
}

void Cluster::resize_pods(const std::string& name, PodSpec spec) {
  DRAGSTER_REQUIRE(spec.cpu_cores > 0.0 && spec.memory_gb > 0.0, "pod spec must be positive");
  deployment_mutable(name).spec = spec;
}

const Deployment& Cluster::deployment(const std::string& name) const {
  const auto it = deployments_.find(name);
  DRAGSTER_REQUIRE(it != deployments_.end(), "unknown deployment: " + name);
  return it->second;
}

std::vector<std::string> Cluster::deployment_names() const {
  std::vector<std::string> names;
  names.reserve(deployments_.size());
  for (const auto& [name, d] : deployments_) {
    (void)d;
    names.push_back(name);
  }
  return names;
}

int Cluster::total_pods() const noexcept {
  int total = 0;
  for (const auto& [name, d] : deployments_) {
    (void)name;
    total += d.replicas;
  }
  return total;
}

bool Cluster::try_admit(int extra_pods, double extra_cost_rate) const noexcept {
  if (admission_outage_) return false;
  if (limits_.max_total_pods > 0 &&
      total_pods() + total_pending() + extra_pods > limits_.max_total_pods)
    return false;
  if (limits_.max_cost_rate_per_hour > 0.0 &&
      cost_rate_per_hour() + extra_cost_rate > limits_.max_cost_rate_per_hour * (1.0 + 1e-9))
    return false;
  return true;
}

void Cluster::set_job_quota(const std::string& job, AdmissionLimits quota) {
  DRAGSTER_REQUIRE(!job.empty(), "job quota needs a job name");
  quotas_[job] = quota;
}

AdmissionLimits Cluster::job_quota(const std::string& job) const {
  const auto it = quotas_.find(job);
  return it == quotas_.end() ? AdmissionLimits{} : it->second;
}

std::size_t Cluster::remove_job(const std::string& job) {
  DRAGSTER_REQUIRE(!job.empty(), "cannot remove the unowned job");
  std::size_t removed = 0;
  for (auto it = deployments_.begin(); it != deployments_.end();) {
    if (it->second.job == job) {
      // Eviction frees everything the job held in this same call: its node
      // placements (freeing per-node slots) and — because the whole
      // Deployment record goes, pending count included — its in-flight
      // Pending pods stop counting against anyone's admission headroom.
      release_placement(it->second);
      it = deployments_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  quotas_.erase(job);
  return removed;
}

void Cluster::set_pending(const std::string& name, int pending) {
  DRAGSTER_REQUIRE(pending >= 0, "pending pod count cannot be negative");
  deployment_mutable(name).pending = pending;
}

int Cluster::pending_pods(const std::string& name) const {
  return deployment(name).pending;
}

int Cluster::total_pending() const noexcept {
  int total = 0;
  for (const auto& [name, d] : deployments_) {
    (void)name;
    total += d.pending;
  }
  return total;
}

void Cluster::configure_nodes(int count, int pods_per_node) {
  DRAGSTER_REQUIRE(nodes_.empty(), "configure_nodes may be called at most once");
  DRAGSTER_REQUIRE(count >= 1, "a node pool needs at least one node");
  DRAGSTER_REQUIRE(pods_per_node >= 1, "a node needs capacity for at least one pod");
  nodes_.assign(static_cast<std::size_t>(count), Node{pods_per_node, 0, false, false});
  for (auto& [name, d] : deployments_) {
    (void)name;
    reconcile_placement(d);
  }
}

const Node& Cluster::node(int index) const {
  DRAGSTER_REQUIRE(index >= 0 && index < node_count(), "node index out of range");
  return nodes_[static_cast<std::size_t>(index)];
}

int Cluster::usable_capacity() const noexcept {
  int capacity = 0;
  for (const Node& n : nodes_)
    if (!n.failed && !n.cordoned) capacity += n.capacity;
  return capacity;
}

int Cluster::unscheduled_pods() const noexcept {
  int total = 0;
  for (const auto& [name, d] : deployments_) {
    (void)name;
    for (int node : d.placement)
      if (node == kUnscheduled) ++total;
  }
  return total;
}

bool Cluster::nodes_within_capacity() const noexcept {
  for (const Node& n : nodes_)
    if (n.used > n.capacity) return false;
  return true;
}

int Cluster::pick_node() const noexcept {
  int best = kUnscheduled;
  for (int k = 0; k < node_count(); ++k) {
    const Node& n = nodes_[static_cast<std::size_t>(k)];
    if (n.failed || n.cordoned || n.used >= n.capacity) continue;
    if (best == kUnscheduled || n.used < nodes_[static_cast<std::size_t>(best)].used) best = k;
  }
  return best;
}

void Cluster::reconcile_placement(Deployment& d) {
  if (nodes_.empty()) return;
  const auto target = static_cast<std::size_t>(d.replicas);
  // Shrink newest-placed-first: the LIFO order is deterministic and keeps
  // long-lived pods (and therefore node loads) stable under duty-cycling.
  while (d.placement.size() > target) {
    const int node = d.placement.back();
    d.placement.pop_back();
    if (node != kUnscheduled) nodes_[static_cast<std::size_t>(node)].used -= 1;
  }
  while (d.placement.size() < target) {
    const int node = pick_node();
    if (node != kUnscheduled) nodes_[static_cast<std::size_t>(node)].used += 1;
    d.placement.push_back(node);
  }
}

void Cluster::release_placement(Deployment& d) {
  for (int node : d.placement)
    if (node != kUnscheduled) nodes_[static_cast<std::size_t>(node)].used -= 1;
  d.placement.clear();
}

std::vector<NodeEviction> Cluster::strip_node(int index) {
  std::vector<NodeEviction> evicted;
  for (auto& [name, d] : deployments_) {
    int lost = 0;
    for (auto it = d.placement.begin(); it != d.placement.end();) {
      if (*it == index) {
        it = d.placement.erase(it);
        ++lost;
      } else {
        ++it;
      }
    }
    if (lost > 0) evicted.push_back(NodeEviction{name, d.job, lost});
  }
  nodes_[static_cast<std::size_t>(index)].used = 0;
  return evicted;
}

std::vector<NodeEviction> Cluster::fail_node(int index) {
  DRAGSTER_REQUIRE(index >= 0 && index < node_count(), "node index out of range");
  Node& n = nodes_[static_cast<std::size_t>(index)];
  DRAGSTER_REQUIRE(!n.failed, "node already failed");
  n.failed = true;
  return strip_node(index);
}

std::vector<NodeEviction> Cluster::drain_node(int index) {
  DRAGSTER_REQUIRE(index >= 0 && index < node_count(), "node index out of range");
  Node& n = nodes_[static_cast<std::size_t>(index)];
  DRAGSTER_REQUIRE(!n.failed, "cannot drain a failed node");
  DRAGSTER_REQUIRE(!n.cordoned, "node already cordoned");
  n.cordoned = true;
  return strip_node(index);
}

void Cluster::uncordon_node(int index) {
  DRAGSTER_REQUIRE(index >= 0 && index < node_count(), "node index out of range");
  Node& n = nodes_[static_cast<std::size_t>(index)];
  DRAGSTER_REQUIRE(!n.failed, "cannot uncordon a failed node");
  n.cordoned = false;
}

void Cluster::place_unscheduled() {
  if (nodes_.empty()) return;
  for (auto& [name, d] : deployments_) {
    (void)name;
    for (int& node : d.placement) {
      if (node != kUnscheduled) continue;
      const int fresh = pick_node();
      if (fresh == kUnscheduled) return;  // still full; later pods fare no better
      nodes_[static_cast<std::size_t>(fresh)].used += 1;
      node = fresh;
    }
  }
}

double Cluster::cost_rate_per_hour() const noexcept {
  double rate = 0.0;
  for (const auto& [name, d] : deployments_) {
    (void)name;
    rate += static_cast<double>(d.replicas) * pod_price_per_hour(d.spec);
  }
  return rate;
}

void Cluster::accrue(double seconds) {
  DRAGSTER_REQUIRE(seconds >= 0.0, "cannot accrue negative time");
  accrued_cost_ += cost_rate_per_hour() * seconds / 3600.0;
}

}  // namespace dragster::cluster
