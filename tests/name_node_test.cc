#include "src/storage/name_node.h"

#include <gtest/gtest.h>
#include <set>
#include <span>

namespace harvest {
namespace {

// Six tenants, three servers each; tenant i idles at (0.1 * i) utilization so
// busy thresholds and diversity are both exercised.
Cluster SixTenantCluster(int servers_per_tenant = 3, int64_t blocks = 100) {
  Cluster cluster;
  for (int t = 0; t < 6; ++t) {
    PrimaryTenant tenant;
    tenant.environment = t;
    tenant.name = "t" + std::to_string(t);
    tenant.reimage_rate = 0.1 + 0.2 * t;
    tenant.average_utilization =
        UtilizationTrace(std::vector<double>(10, std::min(0.95, 0.1 * t)));
    TenantId id = cluster.AddTenant(std::move(tenant));
    auto trace =
        std::make_shared<const UtilizationTrace>(cluster.tenant(id).average_utilization);
    for (int s = 0; s < servers_per_tenant; ++s) {
      Server server;
      server.tenant = id;
      server.rack = t;
      server.utilization = trace;
      server.harvestable_blocks = blocks;
      cluster.AddServer(std::move(server));
    }
  }
  return cluster;
}

NameNode MakeNameNode(const Cluster& cluster, Rng& rng, int replication = 3,
                      bool primary_aware = true) {
  NameNodeOptions options;
  options.replication = replication;
  options.primary_aware_access = primary_aware;
  return NameNode(&cluster, std::make_unique<StockPlacement>(&cluster), options, &rng);
}

TEST(NameNodeTest, CreateBlockPlacesDesiredReplicas) {
  Cluster cluster = SixTenantCluster();
  Rng rng(1);
  NameNode nn = MakeNameNode(cluster, rng);
  BlockId block = nn.CreateBlock(0, 0.0);
  ASSERT_GE(block, 0);
  EXPECT_EQ(nn.LiveReplicas(block), 3);
  // Replicas are distinct servers.
  const auto& replicas = nn.ReplicaServers(block);
  std::set<ServerId> unique(replicas.begin(), replicas.end());
  EXPECT_EQ(unique.size(), replicas.size());
  EXPECT_EQ(nn.stats().blocks_created, 1);
}

TEST(NameNodeTest, AccessServedFromIdleReplica) {
  Cluster cluster = SixTenantCluster();
  Rng rng(2);
  NameNode nn = MakeNameNode(cluster, rng);
  BlockId block = nn.CreateBlock(0, 0.0);  // tenant 0 idles at 0.0 util
  EXPECT_EQ(nn.Access(block, 0.0), AccessResult::kServed);
  EXPECT_EQ(nn.stats().failed_accesses, 0);
}

TEST(NameNodeTest, BusyReplicasDenyUnderPrimaryAwareness) {
  // A dedicated cluster where every server is busy (> 66%).
  Cluster cluster;
  PrimaryTenant tenant;
  tenant.environment = 0;
  tenant.name = "hot";
  tenant.average_utilization = UtilizationTrace(std::vector<double>(4, 0.9));
  TenantId id = cluster.AddTenant(std::move(tenant));
  auto trace = std::make_shared<const UtilizationTrace>(cluster.tenant(id).average_utilization);
  for (int s = 0; s < 5; ++s) {
    Server server;
    server.tenant = id;
    server.rack = s;
    server.utilization = trace;
    server.harvestable_blocks = 10;
    cluster.AddServer(std::move(server));
  }
  Rng rng(3);
  NameNode aware = MakeNameNode(cluster, rng, 3, /*primary_aware=*/true);
  BlockId block = aware.CreateBlock(0, 0.0);
  EXPECT_EQ(aware.Access(block, 0.0), AccessResult::kFailed);
  EXPECT_EQ(aware.stats().failed_accesses, 1);

  Rng rng2(3);
  NameNode stock = MakeNameNode(cluster, rng2, 3, /*primary_aware=*/false);
  BlockId block2 = stock.CreateBlock(0, 0.0);
  EXPECT_EQ(stock.Access(block2, 0.0), AccessResult::kServedInterfering);
  EXPECT_EQ(stock.stats().failed_accesses, 0);
  EXPECT_EQ(stock.stats().interfering_accesses, 1);
}

TEST(NameNodeTest, ReimageDestroysReplicasAndHeals) {
  Cluster cluster = SixTenantCluster();
  Rng rng(4);
  NameNode nn = MakeNameNode(cluster, rng);
  BlockId block = nn.CreateBlock(0, 0.0);
  // A copy: the live view shrinks as the test wipes its servers.
  const std::span<const ServerId> live = nn.ReplicaServers(block);
  std::vector<ServerId> replicas(live.begin(), live.end());
  nn.OnReimage(replicas[0], 100.0);
  EXPECT_EQ(nn.LiveReplicas(block), 2);
  EXPECT_EQ(nn.stats().replicas_destroyed, 1);
  // Healing completes after detection delay + one throttle interval.
  nn.ProcessRereplication(100.0 + 300.0 + 121.0);
  EXPECT_EQ(nn.LiveReplicas(block), 3);
  EXPECT_EQ(nn.stats().rereplications_completed, 1);
  EXPECT_FALSE(nn.Lost(block));
}

TEST(NameNodeTest, RereplicationRespectsThrottleQueue) {
  Cluster cluster = SixTenantCluster(3, 1000);
  Rng rng(5);
  NameNode nn = MakeNameNode(cluster, rng);
  // Many blocks share source servers; healing N blocks takes ~N intervals.
  std::vector<BlockId> blocks;
  for (int b = 0; b < 30; ++b) {
    blocks.push_back(nn.CreateBlock(0, 0.0));
  }
  // Wipe one server that holds many replicas.
  nn.OnReimage(0, 10.0);
  int64_t destroyed = nn.stats().replicas_destroyed;
  ASSERT_GT(destroyed, 5);
  // Shortly after the detection delay only a few have healed.
  nn.ProcessRereplication(10.0 + 300.0 + 130.0);
  EXPECT_LT(nn.stats().rereplications_completed, destroyed);
  // Eventually all heal (sources exist: replication was 3).
  nn.ProcessRereplication(10.0 + 300.0 + 3600.0 * 24);
  EXPECT_EQ(nn.stats().rereplications_completed, destroyed);
  EXPECT_EQ(nn.stats().blocks_lost, 0);
}

TEST(NameNodeTest, BlockLostWhenAllReplicasDestroyedQuickly) {
  Cluster cluster = SixTenantCluster();
  Rng rng(6);
  NameNode nn = MakeNameNode(cluster, rng);
  BlockId block = nn.CreateBlock(0, 0.0);
  // A copy: the live view shrinks as the test wipes its servers.
  const std::span<const ServerId> live = nn.ReplicaServers(block);
  std::vector<ServerId> replicas(live.begin(), live.end());
  ASSERT_EQ(replicas.size(), 3u);
  // Wipe all three replica holders within the detection window.
  nn.OnReimage(replicas[0], 100.0);
  nn.OnReimage(replicas[1], 101.0);
  nn.OnReimage(replicas[2], 102.0);
  EXPECT_TRUE(nn.Lost(block));
  EXPECT_EQ(nn.stats().blocks_lost, 1);
  EXPECT_EQ(nn.Access(block, 200.0), AccessResult::kMissing);
  // Later re-replication passes never resurrect it.
  nn.ProcessRereplication(1e9);
  EXPECT_TRUE(nn.Lost(block));
}

TEST(NameNodeTest, SlowSecondWipeAllowsHealing) {
  Cluster cluster = SixTenantCluster();
  Rng rng(7);
  NameNode nn = MakeNameNode(cluster, rng);
  BlockId block = nn.CreateBlock(0, 0.0);
  // A copy: the live view shrinks as the test wipes its servers.
  const std::span<const ServerId> live = nn.ReplicaServers(block);
  std::vector<ServerId> replicas(live.begin(), live.end());
  nn.OnReimage(replicas[0], 100.0);
  // Healing has plenty of time before the next wipe.
  nn.ProcessRereplication(100.0 + 300.0 + 200.0);
  ASSERT_EQ(nn.LiveReplicas(block), 3);
  nn.OnReimage(replicas[1], 2.0e5);
  nn.OnReimage(replicas[2], 4.0e5);
  nn.ProcessRereplication(1.0e6);
  EXPECT_FALSE(nn.Lost(block));
  EXPECT_EQ(nn.LiveReplicas(block), 3);
}

TEST(NameNodeTest, SpaceLimitsBlockCreation) {
  Cluster cluster = SixTenantCluster(1, 2);  // 6 servers, 2 blocks each
  Rng rng(8);
  NameNode nn = MakeNameNode(cluster, rng, 3);
  // Capacity = 12 replica slots. Like real HDFS, the NN accepts blocks with
  // fewer replicas than desired when the cluster cannot meet the factor, so
  // up to 6 blocks (>= 1 replica each) can exist; once space runs out,
  // creation fails outright.
  int created = 0;
  int64_t replicas_placed = 0;
  for (int b = 0; b < 20; ++b) {
    BlockId id = nn.CreateBlock(static_cast<ServerId>(b % 6), 0.0);
    if (id >= 0) {
      ++created;
      replicas_placed += nn.LiveReplicas(id);
      EXPECT_GE(nn.LiveReplicas(id), 1);
      EXPECT_LE(nn.LiveReplicas(id), 3);
    }
  }
  EXPECT_GE(created, 4);
  EXPECT_LE(created, 6);
  EXPECT_LE(replicas_placed, 12);
  // The namespace is full now.
  EXPECT_LT(nn.CreateBlock(0, 0.0), 0);
}

TEST(NameNodeTest, FourWayReplicationSurvivesTripleWipe) {
  Cluster cluster = SixTenantCluster();
  Rng rng(9);
  NameNode nn = MakeNameNode(cluster, rng, 4);
  BlockId block = nn.CreateBlock(0, 0.0);
  // A copy: the live view shrinks as the test wipes its servers.
  const std::span<const ServerId> live = nn.ReplicaServers(block);
  std::vector<ServerId> replicas(live.begin(), live.end());
  ASSERT_EQ(replicas.size(), 4u);
  nn.OnReimage(replicas[0], 100.0);
  nn.OnReimage(replicas[1], 101.0);
  nn.OnReimage(replicas[2], 102.0);
  EXPECT_FALSE(nn.Lost(block));
  nn.ProcessRereplication(1e7);
  EXPECT_EQ(nn.LiveReplicas(block), 4);
}

TEST(NameNodeTest, StatsAccumulateAcrossOperations) {
  Cluster cluster = SixTenantCluster();
  Rng rng(10);
  NameNode nn = MakeNameNode(cluster, rng);
  for (int b = 0; b < 20; ++b) {
    nn.CreateBlock(static_cast<ServerId>(b % cluster.num_servers()), 0.0);
  }
  for (int a = 0; a < 50; ++a) {
    nn.Access(static_cast<BlockId>(a % 20), 0.0);
  }
  EXPECT_EQ(nn.stats().blocks_created, 20);
  EXPECT_EQ(nn.stats().accesses, 50);
  EXPECT_DOUBLE_EQ(nn.stats().LossFraction(), 0.0);
}

}  // namespace
}  // namespace harvest
