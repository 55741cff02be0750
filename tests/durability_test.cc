#include <gtest/gtest.h>

#include "src/cluster/datacenter.h"
#include "src/experiments/storage_cosim.h"
#include "src/trace/reimage.h"
#include "src/util/rng.h"

namespace harvest {
namespace {

Cluster ReimagingCluster(uint64_t seed, int months) {
  Rng rng(seed);
  BuildOptions options;
  options.trace_slots = kSlotsPerDay;  // utilization is irrelevant here
  options.reimage_months = months;
  options.scale = 0.12;
  options.per_server_traces = false;
  return BuildCluster(DatacenterByName("DC-7"), options, rng);
}

StorageCosimOptions FastOptions(PlacementKind placement, int replication, uint64_t seed) {
  StorageCosimOptions options;
  options.placement = placement;
  options.replication = replication;
  options.num_blocks = 20000;
  options.writer_seed = seed;
  options.policy_seed = DerivedStreamSeed(seed, PlacementKindName(placement));
  return options;
}

// One Fig-15 cell: six months of the cluster's reimages, no client accesses.
StorageCosimResult RunDurability(const Cluster& cluster, const StorageCosimOptions& options) {
  StorageTimelineOptions timeline_options;
  timeline_options.reimage_horizon_seconds = 6.0 * kSecondsPerMonth;
  return RunStorageCosim(cluster, BuildStorageTimeline(cluster, timeline_options), options);
}

TEST(DurabilityTest, PlacementKindNames) {
  EXPECT_STREQ(PlacementKindName(PlacementKind::kStock), "HDFS-Stock");
  EXPECT_STREQ(PlacementKindName(PlacementKind::kHistory), "HDFS-H");
  EXPECT_STREQ(PlacementKindName(PlacementKind::kRandom), "HDFS-Random");
  EXPECT_STREQ(PlacementKindName(PlacementKind::kGreedy), "HDFS-Greedy");
  EXPECT_STREQ(PlacementKindName(PlacementKind::kSoft), "HDFS-H(soft)");
}

TEST(DurabilityTest, RunsAndAccountsBlocks) {
  Cluster cluster = ReimagingCluster(1, 6);
  StorageCosimResult result = RunDurability(cluster, FastOptions(PlacementKind::kHistory, 3, 1));
  EXPECT_EQ(result.stats.blocks_created, 20000);
  EXPECT_GT(result.reimage_events, 0);
  EXPECT_GE(result.lost_percent, 0.0);
  EXPECT_LE(result.lost_percent, 100.0);
  // Replicas were destroyed and the NN healed at least some of them.
  EXPECT_GT(result.stats.replicas_destroyed, 0);
  EXPECT_GT(result.stats.rereplications_completed, 0);
}

TEST(DurabilityTest, HistoryBeatsStockAtThreeWayReplication) {
  // The headline claim of Fig 15. A single 6-month run on a small fleet is
  // noisy, so compare cumulative losses across three seeds.
  int64_t stock_lost = 0;
  int64_t history_lost = 0;
  for (uint64_t seed : {1u, 2u, 3u}) {
    Cluster cluster = ReimagingCluster(seed * 100, 6);
    stock_lost +=
        RunDurability(cluster, FastOptions(PlacementKind::kStock, 3, seed)).stats.blocks_lost;
    history_lost +=
        RunDurability(cluster, FastOptions(PlacementKind::kHistory, 3, seed)).stats.blocks_lost;
  }
  EXPECT_LT(history_lost, stock_lost);
}

TEST(DurabilityTest, FourWayReplicationLosesNoMoreThanThreeWay) {
  Cluster cluster = ReimagingCluster(7, 6);
  StorageCosimResult three = RunDurability(cluster, FastOptions(PlacementKind::kStock, 3, 7));
  StorageCosimResult four = RunDurability(cluster, FastOptions(PlacementKind::kStock, 4, 7));
  EXPECT_LE(four.stats.blocks_lost, three.stats.blocks_lost);
}

TEST(DurabilityTest, HistoryFourWayEliminatesLoss) {
  // Fig 15: under four-way replication HDFS-H eliminates data loss.
  Cluster cluster = ReimagingCluster(9, 6);
  StorageCosimResult result = RunDurability(cluster, FastOptions(PlacementKind::kHistory, 4, 9));
  EXPECT_EQ(result.stats.blocks_lost, 0);
}

TEST(DurabilityTest, SlowerRereplicationLosesMoreBlocks) {
  Cluster cluster = ReimagingCluster(11, 6);
  StorageCosimOptions fast = FastOptions(PlacementKind::kStock, 3, 11);
  StorageCosimOptions slow = fast;
  slow.rereplication_blocks_per_hour = 0.2;  // ~5 hours per block
  slow.detection_delay_seconds = 3600.0 * 6;
  StorageCosimResult fast_result = RunDurability(cluster, fast);
  StorageCosimResult slow_result = RunDurability(cluster, slow);
  EXPECT_GE(slow_result.stats.blocks_lost, fast_result.stats.blocks_lost);
}

TEST(DurabilityTest, DeterministicForSeed) {
  Cluster cluster = ReimagingCluster(13, 6);
  StorageCosimOptions options = FastOptions(PlacementKind::kHistory, 3, 13);
  StorageCosimResult a = RunDurability(cluster, options);
  StorageCosimResult b = RunDurability(cluster, options);
  EXPECT_EQ(a.stats.blocks_lost, b.stats.blocks_lost);
  EXPECT_EQ(a.stats.rereplications_completed, b.stats.rereplications_completed);
}

// Property: loss percentage never increases with replication level, for both
// placement policies.
class ReplicationMonotoneTest
    : public ::testing::TestWithParam<PlacementKind> {};

TEST_P(ReplicationMonotoneTest, MoreReplicasNeverLoseMore) {
  Cluster cluster = ReimagingCluster(17, 6);
  double previous = 1e18;
  for (int replication : {2, 3, 4}) {
    StorageCosimResult result = RunDurability(cluster, FastOptions(GetParam(), replication, 17));
    EXPECT_LE(result.lost_percent, previous + 1e-9);
    previous = result.lost_percent;
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, ReplicationMonotoneTest,
                         ::testing::Values(PlacementKind::kStock, PlacementKind::kHistory));

}  // namespace
}  // namespace harvest
