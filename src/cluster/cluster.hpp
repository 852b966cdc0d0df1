// Kubernetes-analogue pod ledger.
//
// Each stream operator maps to a "deployment" of TaskManager pods (one task
// slot per pod).  The ledger applies horizontal (replica count) and vertical
// (pod spec) scaling actions, enforces an optional hard cap on spend rate,
// and accrues cost over simulated time — the substrate for the paper's
// cost-per-billion-tuples numbers.
//
// Fault-domain model (optional): configure_nodes() turns the flat ledger
// into N nodes of fixed pod capacity.  Every pod is then placed on a node
// deterministically — least-loaded node first, lowest index on ties — and
// the placement is tracked per deployment, so fail_node()/drain_node() can
// answer "which pods of which jobs were co-located there" in one call.
// Pods that cannot be placed (every usable node full) are tracked as
// unscheduled rather than overcommitting a node; place_unscheduled() retries
// them once capacity frees up.  With no nodes configured every placement
// path is a no-op and the ledger behaves exactly as before.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cluster/pricing.hpp"

namespace dragster::cluster {

struct Deployment {
  std::string name;
  int replicas = 1;
  PodSpec spec;
  /// Pods requested but not yet Running (the actuation layer's ledger).
  /// Pending pods count against the admission cap but do not bill: the cloud
  /// charges for scheduled capacity, and capacity follows `replicas`.
  int pending = 0;
  /// Owning job for multi-tenant attribution; empty for single-job clusters.
  std::string job;
  /// Node index per placed pod when the fault-domain model is on
  /// (configure_nodes); kUnscheduled marks pods no usable node could hold.
  /// Empty when the node model is off.
  std::vector<int> placement;
};

/// One fault domain: a machine holding up to `capacity` pods.  Failed nodes
/// never host pods again (the machine is gone); cordoned nodes keep nothing
/// and accept nothing until uncordoned (a drain window).
struct Node {
  int capacity = 0;
  int used = 0;
  bool failed = false;
  bool cordoned = false;
};

/// Pods a node failure or drain tore away, per deployment — returned in
/// deployment-name order so callers propagate the loss deterministically.
struct NodeEviction {
  std::string deployment;
  std::string job;
  int pods = 0;
};

/// Cluster-wide admission caps checked before new pods are scheduled.
/// Zero means unlimited — the default keeps every pre-actuation call site
/// behaving as before.
struct AdmissionLimits {
  int max_total_pods = 0;
  double max_cost_rate_per_hour = 0.0;
};

class Cluster {
 public:
  /// Registers a deployment (one per operator).  Names must be unique.
  /// `job` attributes the deployment to a tenant; empty means unowned
  /// (single-job clusters never need to care).
  void add_deployment(const std::string& name, int replicas, PodSpec spec = {},
                      const std::string& job = {});

  /// Horizontal scaling (HPA analogue).  Replicas must be >= 1.
  void scale_replicas(const std::string& name, int replicas);

  /// Vertical scaling (VPA analogue).
  void resize_pods(const std::string& name, PodSpec spec);

  [[nodiscard]] const Deployment& deployment(const std::string& name) const;
  [[nodiscard]] std::vector<std::string> deployment_names() const;

  [[nodiscard]] int total_pods() const noexcept;

  // -- admission gate & pending-pod ledger (K8s scheduler analogue) ---------

  void set_admission_limits(AdmissionLimits limits) noexcept { limits_ = limits; }

  /// While an outage is active every try_admit() is rejected — the
  /// `schedfail` fault seam (API server down / quota freeze).
  void set_admission_outage(bool active) noexcept { admission_outage_ = active; }

  /// Whether `extra_pods` new pods at `extra_cost_rate` $/h would clear the
  /// outage flag, the pod-count cap (running + pending + extra), and the
  /// spend-rate cap.  Pure check; nothing is reserved.
  [[nodiscard]] bool try_admit(int extra_pods, double extra_cost_rate) const noexcept;

  // -- multi-tenant attribution ---------------------------------------------

  /// Per-job admission quota (same zero-means-unlimited convention).  The
  /// fleet records each job's grant here; the grant itself is enforced
  /// through the job's budget.
  void set_job_quota(const std::string& job, AdmissionLimits quota);
  [[nodiscard]] AdmissionLimits job_quota(const std::string& job) const;

  /// Removes every deployment owned by `job` (eviction).  Returns the number
  /// of deployments removed; the job's quota entry is dropped too.
  std::size_t remove_job(const std::string& job);

  /// Records how many requested pods of a deployment are still Pending.
  void set_pending(const std::string& name, int pending);
  [[nodiscard]] int pending_pods(const std::string& name) const;
  [[nodiscard]] int total_pending() const noexcept;

  // -- fault-domain (node) model --------------------------------------------
  //
  // Off by default: placement stays empty and every method below is either a
  // no-op or trivially true, so pre-existing call sites are bit-identical.

  /// Switches the ledger into node mode: `count` nodes of `pods_per_node`
  /// capacity each.  Existing pods are placed immediately (deployment-name
  /// order, least-loaded node, lowest index on ties).  Call at most once.
  void configure_nodes(int count, int pods_per_node);
  [[nodiscard]] bool nodes_enabled() const noexcept { return !nodes_.empty(); }
  [[nodiscard]] int node_count() const noexcept { return static_cast<int>(nodes_.size()); }
  [[nodiscard]] const Node& node(int index) const;

  /// Pod capacity summed over nodes that are neither failed nor cordoned —
  /// the most the cluster can actually host right now.
  [[nodiscard]] int usable_capacity() const noexcept;
  /// Pods whose deployment wants them Running but no usable node had room.
  [[nodiscard]] int unscheduled_pods() const noexcept;
  /// True while no node holds more pods than its capacity (structurally
  /// guaranteed by placement; exposed for the property-test invariant).
  [[nodiscard]] bool nodes_within_capacity() const noexcept;

  /// Permanently kills node `index`: every pod placed there is torn away and
  /// reported per deployment (name order) so the caller can propagate the
  /// loss to each affected job in one slot.  Deployment replica counts are
  /// left to the caller's next scale_replicas() — the ledger only forgets
  /// the placements.
  std::vector<NodeEviction> fail_node(int index);
  /// Cordons node `index` (no new placements) and evicts its current pods,
  /// reported like fail_node().  uncordon_node() reopens it.
  std::vector<NodeEviction> drain_node(int index);
  void uncordon_node(int index);

  /// Retries unscheduled pods (deployment-name order) against freed
  /// capacity.  Call after a drain window closes or quotas shrink elsewhere.
  void place_unscheduled();

  /// Current spend rate in $/hour across all deployments.
  [[nodiscard]] double cost_rate_per_hour() const noexcept;

  /// Accrues `seconds` of wall-clock at the current spend rate.
  void accrue(double seconds);

  [[nodiscard]] double accrued_cost() const noexcept { return accrued_cost_; }

 private:
  Deployment& deployment_mutable(const std::string& name);
  /// Least-loaded usable node (lowest index on ties); kUnscheduled if full.
  [[nodiscard]] int pick_node() const noexcept;
  /// Brings `d.placement` in line with `d.replicas`: grows by placing on
  /// pick_node(), shrinks newest-placed-first (LIFO).  No-op without nodes.
  void reconcile_placement(Deployment& d);
  void release_placement(Deployment& d);
  /// Tears pods off node `index` (failed or drained) and reports them.
  std::vector<NodeEviction> strip_node(int index);

  static constexpr int kUnscheduled = -1;

  std::map<std::string, Deployment> deployments_;
  std::map<std::string, AdmissionLimits> quotas_;
  AdmissionLimits limits_;
  bool admission_outage_ = false;
  double accrued_cost_ = 0.0;
  std::vector<Node> nodes_;  ///< empty = node model off
};

}  // namespace dragster::cluster
