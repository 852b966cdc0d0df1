// Tests for the Kubernetes-analogue pod ledger and pricing.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/pricing.hpp"

namespace dragster::cluster {
namespace {

TEST(Pricing, StandardSlotCostsTenCents) {
  EXPECT_NEAR(pod_price_per_hour(PodSpec{1.0, 2.0}), 0.10, 1e-12);
}

TEST(Pricing, ScalesWithResources) {
  EXPECT_NEAR(pod_price_per_hour(PodSpec{2.0, 4.0}), 0.20, 1e-12);
  EXPECT_NEAR(pod_price_per_hour(PodSpec{0.5, 1.0}), 0.05, 1e-12);
}

TEST(Cluster, TracksDeploymentsAndPods) {
  Cluster cluster;
  cluster.add_deployment("map", 3);
  cluster.add_deployment("shuffle", 2);
  EXPECT_EQ(cluster.total_pods(), 5);
  EXPECT_EQ(cluster.deployment("map").replicas, 3);
  EXPECT_EQ(cluster.deployment_names().size(), 2u);
}

TEST(Cluster, HorizontalScaling) {
  Cluster cluster;
  cluster.add_deployment("op", 1);
  cluster.scale_replicas("op", 7);
  EXPECT_EQ(cluster.deployment("op").replicas, 7);
  EXPECT_THROW(cluster.scale_replicas("op", 0), std::invalid_argument);
  EXPECT_THROW(cluster.scale_replicas("ghost", 2), std::invalid_argument);
}

TEST(Cluster, VerticalScalingChangesPrice) {
  Cluster cluster;
  cluster.add_deployment("op", 2);
  const double before = cluster.cost_rate_per_hour();
  cluster.resize_pods("op", PodSpec{2.0, 4.0});
  EXPECT_NEAR(cluster.cost_rate_per_hour(), 2.0 * before, 1e-12);
}

TEST(Cluster, CostAccrualIsProportionalToTime) {
  Cluster cluster;
  cluster.add_deployment("op", 10);  // 10 pods * $0.10 = $1/h
  cluster.accrue(1800.0);            // half an hour
  EXPECT_NEAR(cluster.accrued_cost(), 0.50, 1e-9);
  cluster.accrue(1800.0);
  EXPECT_NEAR(cluster.accrued_cost(), 1.00, 1e-9);
}

TEST(Cluster, RejectsDuplicatesAndNegativeTime) {
  Cluster cluster;
  cluster.add_deployment("op", 1);
  EXPECT_THROW(cluster.add_deployment("op", 1), std::invalid_argument);
  EXPECT_THROW(cluster.accrue(-1.0), std::invalid_argument);
}

TEST(Cluster, RemoveJobEvictsAllItsDeployments) {
  Cluster cluster;
  cluster.add_deployment("a/map", 3, PodSpec{}, "a");
  cluster.add_deployment("a/sink", 2, PodSpec{}, "a");
  cluster.add_deployment("b/map", 1, PodSpec{}, "b");
  cluster.set_job_quota("a", AdmissionLimits{8, 0.0});
  EXPECT_EQ(cluster.remove_job("a"), 2u);
  EXPECT_EQ(cluster.total_pods(), 1);
  EXPECT_EQ(cluster.job_quota("a").max_total_pods, 0);  // the quota entry went too
  EXPECT_EQ(cluster.deployment_names().size(), 1u);
  EXPECT_THROW(cluster.remove_job(""), std::invalid_argument);
}

TEST(Cluster, NodePlacementIsLeastLoadedLowestIndex) {
  Cluster cluster;
  cluster.configure_nodes(2, 2);
  cluster.add_deployment("a", 1);  // node 0 (all empty, lowest index)
  cluster.add_deployment("b", 1);  // node 1 (least loaded)
  cluster.add_deployment("c", 1);  // tie at 1 used each -> node 0
  EXPECT_EQ(cluster.deployment("a").placement, (std::vector<int>{0}));
  EXPECT_EQ(cluster.deployment("b").placement, (std::vector<int>{1}));
  EXPECT_EQ(cluster.deployment("c").placement, (std::vector<int>{0}));
  cluster.scale_replicas("a", 2);  // node 1 is the only one with room
  EXPECT_EQ(cluster.deployment("a").placement, (std::vector<int>{0, 1}));
  // Pool full: the next pod is tracked unscheduled, never overcommitted.
  cluster.scale_replicas("c", 2);
  EXPECT_EQ(cluster.unscheduled_pods(), 1);
  EXPECT_TRUE(cluster.nodes_within_capacity());
  // LIFO shrink frees the newest placement; the retry then lands there.
  cluster.scale_replicas("a", 1);
  cluster.place_unscheduled();
  EXPECT_EQ(cluster.unscheduled_pods(), 0);
  EXPECT_EQ(cluster.deployment("c").placement, (std::vector<int>{0, 1}));
}

TEST(Cluster, ConfigureNodesPlacesExistingPodsAndIsOneShot) {
  Cluster cluster;
  cluster.add_deployment("x", 2);
  cluster.add_deployment("y", 1);
  EXPECT_FALSE(cluster.nodes_enabled());
  EXPECT_TRUE(cluster.deployment("x").placement.empty());  // node model off
  cluster.configure_nodes(3, 1);
  EXPECT_TRUE(cluster.nodes_enabled());
  // Existing pods placed in deployment-name order, least-loaded first.
  EXPECT_EQ(cluster.deployment("x").placement, (std::vector<int>{0, 1}));
  EXPECT_EQ(cluster.deployment("y").placement, (std::vector<int>{2}));
  EXPECT_EQ(cluster.usable_capacity(), 3);
  EXPECT_THROW(cluster.configure_nodes(3, 1), std::invalid_argument);
}

TEST(Cluster, FailNodeReportsColocatedPodsAcrossJobs) {
  Cluster cluster;
  cluster.configure_nodes(1, 8);
  cluster.add_deployment("a/op", 2, PodSpec{}, "a");
  cluster.add_deployment("b/op", 2, PodSpec{}, "b");
  const std::vector<NodeEviction> evicted = cluster.fail_node(0);
  ASSERT_EQ(evicted.size(), 2u);  // deployment-name order
  EXPECT_EQ(evicted[0].deployment, "a/op");
  EXPECT_EQ(evicted[0].job, "a");
  EXPECT_EQ(evicted[0].pods, 2);
  EXPECT_EQ(evicted[1].deployment, "b/op");
  EXPECT_EQ(evicted[1].job, "b");
  EXPECT_EQ(evicted[1].pods, 2);
  EXPECT_EQ(cluster.node(0).used, 0);
  EXPECT_EQ(cluster.usable_capacity(), 0);
  EXPECT_THROW(cluster.fail_node(0), std::invalid_argument);  // already dead
  // With every node gone the re-grown pods stay unscheduled.
  cluster.scale_replicas("a/op", 2);
  EXPECT_EQ(cluster.unscheduled_pods(), 2);
  EXPECT_TRUE(cluster.nodes_within_capacity());
}

TEST(Cluster, DrainCordonsUntilUncordoned) {
  Cluster cluster;
  cluster.configure_nodes(2, 2);
  cluster.add_deployment("op", 2);  // one pod per node
  const std::vector<NodeEviction> evicted = cluster.drain_node(0);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].pods, 1);
  EXPECT_TRUE(cluster.node(0).cordoned);
  EXPECT_EQ(cluster.usable_capacity(), 2);
  EXPECT_THROW(cluster.drain_node(0), std::invalid_argument);  // already cordoned
  // Re-grown pods avoid the cordoned node; overflow waits unscheduled.
  cluster.scale_replicas("op", 3);
  EXPECT_EQ(cluster.deployment("op").placement, (std::vector<int>{1, 1, -1}));
  cluster.uncordon_node(0);
  cluster.place_unscheduled();
  EXPECT_EQ(cluster.deployment("op").placement, (std::vector<int>{1, 1, 0}));
  EXPECT_EQ(cluster.unscheduled_pods(), 0);
}

TEST(Cluster, RemoveJobReleasesPendingAndPlacementsInTheSameCall) {
  // Regression for the eviction audit: an evicted job's Pending pods must
  // stop counting against admission headroom, and its node slots must free,
  // in the same remove_job call — not a slot later.
  Cluster cluster;
  cluster.configure_nodes(1, 4);
  cluster.set_admission_limits(AdmissionLimits{4, 0.0});
  cluster.add_deployment("a/op", 2, PodSpec{}, "a");
  cluster.set_pending("a/op", 2);
  EXPECT_FALSE(cluster.try_admit(1, 0.0));  // 2 running + 2 pending fill the cap
  EXPECT_EQ(cluster.node(0).used, 2);
  EXPECT_EQ(cluster.remove_job("a"), 1u);
  EXPECT_EQ(cluster.total_pending(), 0);
  EXPECT_EQ(cluster.node(0).used, 0);
  EXPECT_TRUE(cluster.try_admit(4, 0.0));  // full headroom back immediately
}

}  // namespace
}  // namespace dragster::cluster
