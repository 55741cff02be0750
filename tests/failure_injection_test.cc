// Failure-injection tests: adversarial sequences against the NameNode's
// replica bookkeeping and the scheduler's kill path -- repeated wipes of the
// same server, wipes during re-replication, sources dying mid-copy, and
// whole-fleet wipes. The invariants: no double-counted replicas, loss is
// monotone and final, and the system keeps making progress afterward.

#include <gtest/gtest.h>
#include <memory>
#include <span>

#include "src/cluster/datacenter.h"
#include "src/storage/name_node.h"

namespace harvest {
namespace {

Cluster WideCluster(int tenants, int servers_per_tenant, int64_t blocks_each) {
  Cluster cluster;
  for (int t = 0; t < tenants; ++t) {
    PrimaryTenant tenant;
    tenant.environment = t;
    tenant.name = "t" + std::to_string(t);
    tenant.reimage_rate = 0.1 + 0.1 * t;
    tenant.average_utilization = UtilizationTrace(std::vector<double>(10, 0.2));
    TenantId id = cluster.AddTenant(std::move(tenant));
    auto trace =
        std::make_shared<const UtilizationTrace>(cluster.tenant(id).average_utilization);
    for (int s = 0; s < servers_per_tenant; ++s) {
      Server server;
      server.tenant = id;
      server.rack = t;
      server.utilization = trace;
      server.harvestable_blocks = blocks_each;
      cluster.AddServer(std::move(server));
    }
  }
  return cluster;
}

NameNode MakeNode(const Cluster& cluster, Rng& rng, int replication = 3) {
  NameNodeOptions options;
  options.replication = replication;
  return NameNode(&cluster, std::make_unique<HistoryPlacement>(&cluster), options, &rng);
}

TEST(FailureInjectionTest, RepeatedWipesOfTheSameServer) {
  Cluster cluster = WideCluster(8, 3, 200);
  Rng rng(1);
  NameNode nn = MakeNode(cluster, rng);
  std::vector<BlockId> blocks;
  for (int b = 0; b < 50; ++b) {
    blocks.push_back(nn.CreateBlock(static_cast<ServerId>(b % cluster.num_servers()), 0.0));
  }
  // Wipe server 0 five times in a row, letting healing finish in between.
  double t = 1000.0;
  for (int round = 0; round < 5; ++round) {
    nn.OnReimage(0, t);
    t += 3600.0 * 24;
    nn.ProcessRereplication(t);
  }
  // Nothing lost: every wipe had two surviving replicas and a day to heal.
  EXPECT_EQ(nn.stats().blocks_lost, 0);
  for (BlockId block : blocks) {
    EXPECT_EQ(nn.LiveReplicas(block), 3) << "block " << block;
  }
}

TEST(FailureInjectionTest, WipeDuringRereplicationRequeuesFromSurvivor) {
  Cluster cluster = WideCluster(8, 3, 200);
  Rng rng(2);
  NameNode nn = MakeNode(cluster, rng);
  BlockId block = nn.CreateBlock(0, 0.0);
  // A copy: the live view shrinks as the test wipes its servers.
  const std::span<const ServerId> live = nn.ReplicaServers(block);
  std::vector<ServerId> replicas(live.begin(), live.end());
  ASSERT_EQ(replicas.size(), 3u);
  // First wipe starts a re-replication; before it completes, wipe the chosen
  // source too (we cannot observe which source was picked, so wipe both
  // survivors in turn with the third wipe far in the future).
  nn.OnReimage(replicas[0], 100.0);
  nn.OnReimage(replicas[1], 150.0);  // within the detection window
  // One replica left; the copy chain must restart from it.
  EXPECT_EQ(nn.LiveReplicas(block), 1);
  EXPECT_FALSE(nn.Lost(block));
  nn.ProcessRereplication(100.0 + 3600.0 * 24);
  EXPECT_EQ(nn.LiveReplicas(block), 3);
  EXPECT_EQ(nn.stats().blocks_lost, 0);
}

TEST(FailureInjectionTest, WholeFleetWipeLosesEverythingExactlyOnce) {
  Cluster cluster = WideCluster(6, 2, 100);
  Rng rng(3);
  NameNode nn = MakeNode(cluster, rng);
  const int num_blocks = 40;
  for (int b = 0; b < num_blocks; ++b) {
    nn.CreateBlock(static_cast<ServerId>(b % cluster.num_servers()), 0.0);
  }
  // Every server dies within one detection window.
  for (size_t s = 0; s < cluster.num_servers(); ++s) {
    nn.OnReimage(static_cast<ServerId>(s), 100.0 + static_cast<double>(s));
  }
  nn.ProcessRereplication(1e9);
  EXPECT_EQ(nn.stats().blocks_lost, num_blocks);
  // Loss is final: later wipes do not change the count.
  nn.OnReimage(0, 2e9);
  EXPECT_EQ(nn.stats().blocks_lost, num_blocks);
}

TEST(FailureInjectionTest, SystemRecoversAfterMassLoss) {
  Cluster cluster = WideCluster(6, 2, 100);
  Rng rng(4);
  NameNode nn = MakeNode(cluster, rng);
  for (int b = 0; b < 20; ++b) {
    nn.CreateBlock(static_cast<ServerId>(b % cluster.num_servers()), 0.0);
  }
  for (size_t s = 0; s < cluster.num_servers(); ++s) {
    nn.OnReimage(static_cast<ServerId>(s), 100.0);
  }
  nn.ProcessRereplication(1e9);
  // New blocks can still be created after the disaster (space was wiped
  // clean, so there is room).
  BlockId fresh = nn.CreateBlock(0, 2e9);
  ASSERT_GE(fresh, 0);
  EXPECT_EQ(nn.LiveReplicas(fresh), 3);
  EXPECT_EQ(nn.Access(fresh, 2e9), AccessResult::kServed);
}

TEST(FailureInjectionTest, InterleavedWipesAndCreates) {
  Cluster cluster = WideCluster(10, 4, 500);
  Rng rng(5);
  NameNode nn = MakeNode(cluster, rng);
  Rng chaos(99);
  double t = 0.0;
  int64_t created = 0;
  for (int step = 0; step < 2000; ++step) {
    t += chaos.Exponential(1.0 / 600.0);
    if (chaos.Bernoulli(0.8)) {
      ServerId writer = static_cast<ServerId>(chaos.NextBounded(cluster.num_servers()));
      if (nn.CreateBlock(writer, t) >= 0) {
        ++created;
      }
    } else {
      ServerId victim = static_cast<ServerId>(chaos.NextBounded(cluster.num_servers()));
      nn.OnReimage(victim, t);
    }
  }
  nn.ProcessRereplication(t + 30 * 24 * 3600.0);
  EXPECT_EQ(nn.stats().blocks_created, created);
  // Consistency: every non-lost block has at least one live replica, and
  // lost + live partition the namespace.
  for (BlockId b = 0; b < nn.num_blocks(); ++b) {
    if (nn.Lost(b)) {
      EXPECT_EQ(nn.LiveReplicas(b), 0);
    } else {
      EXPECT_GE(nn.LiveReplicas(b), 1);
      EXPECT_LE(nn.LiveReplicas(b), 3);
    }
  }
}

TEST(FailureInjectionTest, ZeroDetectionDelayHealsFastest) {
  Cluster cluster = WideCluster(8, 3, 300);
  for (double delay : {0.0, 600.0}) {
    Rng rng(6);
    NameNodeOptions options;
    options.replication = 3;
    options.detection_delay_seconds = delay;
    NameNode nn(&cluster, std::make_unique<HistoryPlacement>(&cluster), options, &rng);
    BlockId block = nn.CreateBlock(0, 0.0);
    // A copy: the live view shrinks as the test wipes its servers.
    const std::span<const ServerId> live = nn.ReplicaServers(block);
    std::vector<ServerId> replicas(live.begin(), live.end());
    nn.OnReimage(replicas[0], 100.0);
    // With zero delay the copy completes after one throttle interval.
    nn.ProcessRereplication(100.0 + delay + 125.0);
    EXPECT_EQ(nn.LiveReplicas(block), 3) << "delay " << delay;
  }
}

}  // namespace
}  // namespace harvest
