#include <gtest/gtest.h>

#include "src/cluster/datacenter.h"
#include "src/experiments/cluster_scaling.h"
#include "src/experiments/storage_cosim.h"
#include "src/util/rng.h"

namespace harvest {
namespace {

Cluster BaseCluster(uint64_t seed) {
  Rng rng(seed);
  BuildOptions options;
  options.trace_slots = kSlotsPerDay * 2;
  options.reimage_months = 1;
  options.scale = 0.12;
  options.per_server_traces = false;
  return BuildCluster(DatacenterByName("DC-9"), options, rng);
}

constexpr int64_t kAccesses = 20000;

// One Fig-16 cell on `cluster` as-is (callers scale it first): kAccesses
// uniform accesses over two days, no reimages, every replica behind the 66%
// primary-utilization wall.
StorageCosimResult RunAvailability(const Cluster& cluster, PlacementKind placement,
                                   int replication, uint64_t seed) {
  StorageTimelineOptions timeline_options;
  timeline_options.uniform_accesses = kAccesses;
  timeline_options.access_horizon_seconds = kSlotsPerDay * 2 * kSlotSeconds;
  timeline_options.access_seed = DerivedStreamSeed(seed, "accesses");

  StorageCosimOptions options;
  options.placement = placement;
  options.replication = replication;
  options.num_blocks = 5000;
  options.primary_aware_access = true;
  options.writer_seed = seed;
  options.policy_seed = DerivedStreamSeed(seed, PlacementKindName(placement));
  return RunStorageCosim(cluster, BuildStorageTimeline(cluster, timeline_options), options);
}

TEST(AvailabilityTest, LowUtilizationHasNoFailures) {
  Cluster cluster = ScaleClusterUtilization(BaseCluster(1), ScalingMethod::kLinear, 0.15);
  StorageCosimResult result = RunAvailability(cluster, PlacementKind::kHistory, 3, 1);
  EXPECT_EQ(result.stats.failed_accesses, 0);
  EXPECT_NEAR(cluster.AverageUtilization(), 0.15, 0.03);
}

TEST(AvailabilityTest, SaturatedClusterFailsMostAccesses) {
  Cluster cluster = ScaleClusterUtilization(BaseCluster(2), ScalingMethod::kLinear, 0.9);
  StorageCosimResult result = RunAvailability(cluster, PlacementKind::kHistory, 3, 2);
  // Nearly everything sits above the 66% wall.
  EXPECT_GT(result.failed_access_percent, 40.0);
}

TEST(AvailabilityTest, FailureRateMonotoneInUtilization) {
  Cluster base = BaseCluster(3);
  double previous = -1.0;
  for (double target : {0.3, 0.5, 0.7}) {
    Cluster cluster = ScaleClusterUtilization(base, ScalingMethod::kLinear, target);
    StorageCosimResult result = RunAvailability(cluster, PlacementKind::kStock, 3, 3);
    EXPECT_GE(result.failed_access_percent, previous - 0.2);  // small noise slack
    previous = result.failed_access_percent;
  }
}

TEST(AvailabilityTest, HistoryBeatsStockAtModerateUtilization) {
  // The Fig 16 claim: at utilizations around 45-55%, HDFS-H's placement
  // diversity keeps accesses available while stock placement fails.
  Cluster cluster = ScaleClusterUtilization(BaseCluster(4), ScalingMethod::kLinear, 0.5);
  double stock = RunAvailability(cluster, PlacementKind::kStock, 3, 4).failed_access_percent;
  double history = RunAvailability(cluster, PlacementKind::kHistory, 3, 4).failed_access_percent;
  EXPECT_LE(history, stock);
}

TEST(AvailabilityTest, MoreReplicasImproveAvailability) {
  Cluster cluster = ScaleClusterUtilization(BaseCluster(5), ScalingMethod::kLinear, 0.55);
  for (PlacementKind placement : {PlacementKind::kStock, PlacementKind::kHistory}) {
    double three = RunAvailability(cluster, placement, 3, 5).failed_access_percent;
    double four = RunAvailability(cluster, placement, 4, 5).failed_access_percent;
    EXPECT_LE(four, three + 0.1) << PlacementKindName(placement);
  }
}

TEST(AvailabilityTest, DeterministicForSeed) {
  Cluster cluster = ScaleClusterUtilization(BaseCluster(6), ScalingMethod::kLinear, 0.5);
  StorageCosimResult a = RunAvailability(cluster, PlacementKind::kHistory, 3, 6);
  StorageCosimResult b = RunAvailability(cluster, PlacementKind::kHistory, 3, 6);
  EXPECT_EQ(a.stats.failed_accesses, b.stats.failed_accesses);
}

TEST(AvailabilityTest, AccountsAllAccesses) {
  Cluster cluster = BaseCluster(7);
  StorageCosimResult result = RunAvailability(cluster, PlacementKind::kStock, 3, 7);
  EXPECT_EQ(result.stats.accesses, kAccesses);
  EXPECT_GE(result.stats.failed_accesses, 0);
  EXPECT_LE(result.stats.failed_accesses, result.stats.accesses);
}

// Property: root scaling delays the *onset* of unavailability relative to
// linear scaling (the paper: HDFS-H exhibits no unavailability up to a
// higher utilization under root scaling, because linear scaling saturates
// peaks through the 66% wall earlier). The comparison only holds near the
// onset -- at high averages root concentrates servers near the wall.
class ScalingComparisonTest : public ::testing::TestWithParam<double> {};

TEST_P(ScalingComparisonTest, RootDelaysUnavailabilityOnset) {
  double target = GetParam();
  Cluster base = BaseCluster(8);
  Cluster linear = ScaleClusterUtilization(base, ScalingMethod::kLinear, target);
  Cluster root = ScaleClusterUtilization(base, ScalingMethod::kRoot, target);
  double linear_failed =
      RunAvailability(linear, PlacementKind::kHistory, 3, 8).failed_access_percent;
  double root_failed = RunAvailability(root, PlacementKind::kHistory, 3, 8).failed_access_percent;
  EXPECT_LE(root_failed, linear_failed + 0.5);
}

INSTANTIATE_TEST_SUITE_P(Targets, ScalingComparisonTest, ::testing::Values(0.35, 0.45));

}  // namespace
}  // namespace harvest
