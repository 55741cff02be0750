#include "src/core/replica_placement.h"

#include <gtest/gtest.h>
#include <set>

#include "src/cluster/datacenter.h"

namespace harvest {
namespace {

// A 9-tenant cluster with one tenant per grid cell (3 reimage rates x 3 peak
// utilizations), 4 servers each -- the simplest fully-diverse topology.
Cluster NineCellCluster() {
  Cluster cluster;
  int tenant_index = 0;
  for (int col = 0; col < 3; ++col) {
    for (int row = 0; row < 3; ++row) {
      PrimaryTenant tenant;
      tenant.environment = tenant_index;
      tenant.name = "t" + std::to_string(tenant_index);
      tenant.reimage_rate = 0.1 + 0.5 * col;
      std::vector<double> series(100, 0.2 + 0.25 * row);
      tenant.average_utilization = UtilizationTrace(std::move(series));
      TenantId id = cluster.AddTenant(std::move(tenant));
      auto trace =
          std::make_shared<const UtilizationTrace>(cluster.tenant(id).average_utilization);
      for (int s = 0; s < 4; ++s) {
        Server server;
        server.tenant = id;
        server.rack = tenant_index;
        server.utilization = trace;
        server.harvestable_blocks = 1000;
        cluster.AddServer(std::move(server));
      }
      ++tenant_index;
    }
  }
  return cluster;
}

auto AlwaysHasSpace() {
  return [](ServerId) { return true; };
}

TEST(ReplicaPlacementTest, FirstReplicaIsTheWriter) {
  Cluster cluster = NineCellCluster();
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  ReplicaPlacer placer(&cluster, &grid);
  Rng rng(1);
  std::vector<ServerId> replicas = placer.Place(5, 3, AlwaysHasSpace(), rng);
  ASSERT_EQ(replicas.size(), 3u);
  EXPECT_EQ(replicas[0], 5);
}

TEST(ReplicaPlacementTest, WriterFullFallsBackToItsTenant) {
  Cluster cluster = NineCellCluster();
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  ReplicaPlacer placer(&cluster, &grid);
  Rng rng(2);
  auto writer_full = [](ServerId s) { return s != 5; };
  std::vector<ServerId> replicas = placer.Place(5, 3, writer_full, rng);
  ASSERT_EQ(replicas.size(), 3u);
  EXPECT_NE(replicas[0], 5);
  EXPECT_EQ(cluster.server(replicas[0]).tenant, cluster.server(5).tenant);
}

TEST(ReplicaPlacementTest, NoRepeatedRowOrColumnWithinRound) {
  Cluster cluster = NineCellCluster();
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  ReplicaPlacer placer(&cluster, &grid);
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    ServerId writer = static_cast<ServerId>(rng.NextBounded(cluster.num_servers()));
    std::vector<ServerId> replicas = placer.Place(writer, 3, AlwaysHasSpace(), rng);
    ASSERT_EQ(replicas.size(), 3u);
    std::set<int> rows;
    std::set<int> cols;
    for (ServerId s : replicas) {
      auto [row, col] = grid.CellOfTenant(cluster.server(s).tenant);
      EXPECT_TRUE(rows.insert(row).second) << "row repeated in trial " << trial;
      EXPECT_TRUE(cols.insert(col).second) << "column repeated in trial " << trial;
    }
  }
}

TEST(ReplicaPlacementTest, NoTwoReplicasInOneEnvironment) {
  Cluster cluster = NineCellCluster();
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  ReplicaPlacer placer(&cluster, &grid);
  Rng rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    ServerId writer = static_cast<ServerId>(rng.NextBounded(cluster.num_servers()));
    for (int replication : {3, 4, 5}) {
      std::vector<ServerId> replicas = placer.Place(writer, replication, AlwaysHasSpace(), rng);
      std::set<EnvironmentId> environments;
      for (ServerId s : replicas) {
        EnvironmentId env = cluster.tenant(cluster.server(s).tenant).environment;
        EXPECT_TRUE(environments.insert(env).second)
            << "environment repeated (replication " << replication << ")";
      }
    }
  }
}

TEST(ReplicaPlacementTest, FourthReplicaResetsRowColumnHistory) {
  // With 9 cells and the constraint reset every 3 replicas, 5 replicas are
  // placeable even though only 3 disjoint row/column cells exist per round.
  Cluster cluster = NineCellCluster();
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  ReplicaPlacer placer(&cluster, &grid);
  Rng rng(5);
  std::vector<ServerId> replicas = placer.Place(0, 5, AlwaysHasSpace(), rng);
  EXPECT_EQ(replicas.size(), 5u);
  // All five servers distinct.
  std::set<ServerId> unique(replicas.begin(), replicas.end());
  EXPECT_EQ(unique.size(), replicas.size());
}

TEST(ReplicaPlacementTest, HardConstraintsReturnPartialPlacement) {
  Cluster cluster = NineCellCluster();
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  ReplicaPlacer placer(&cluster, &grid);
  Rng rng(6);
  // Only the writer's tenant has space: diversity is impossible.
  TenantId writer_tenant = cluster.server(0).tenant;
  auto only_writer_tenant = [&cluster, writer_tenant](ServerId s) {
    return cluster.server(s).tenant == writer_tenant;
  };
  std::vector<ServerId> replicas = placer.Place(0, 3, only_writer_tenant, rng);
  EXPECT_EQ(replicas.size(), 1u);  // writer only; no fallback under hard mode
}

TEST(ReplicaPlacementTest, SoftConstraintsFillWhenDiversityImpossible) {
  Cluster cluster = NineCellCluster();
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  ReplicaPlacer::Options options;
  options.soft_constraints = true;
  ReplicaPlacer placer(&cluster, &grid, options);
  Rng rng(7);
  TenantId writer_tenant = cluster.server(0).tenant;
  auto only_writer_tenant = [&cluster, writer_tenant](ServerId s) {
    return cluster.server(s).tenant == writer_tenant;
  };
  std::vector<ServerId> replicas = placer.Place(0, 3, only_writer_tenant, rng);
  // Soft mode trades diversity for space (the paper's initial production
  // configuration) and fills all three replicas inside one tenant.
  EXPECT_EQ(replicas.size(), 3u);
}

TEST(ReplicaPlacementTest, GreedyModeConcentratesOnBestTenants) {
  Cluster cluster = NineCellCluster();
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  ReplicaPlacer::Options options;
  options.greedy_best_first = true;
  ReplicaPlacer placer(&cluster, &grid, options);
  Rng rng(8);
  // The greedy strawman always lands non-writer replicas on the lowest
  // (reimage, peak) tenants.
  std::vector<int> tenant_hits(cluster.num_tenants(), 0);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<ServerId> replicas = placer.Place(20, 3, AlwaysHasSpace(), rng);
    for (size_t i = 1; i < replicas.size(); ++i) {
      ++tenant_hits[static_cast<size_t>(cluster.server(replicas[i]).tenant)];
    }
  }
  // Tenant 0 has the lowest reimage rate and peak: it is hit every time.
  EXPECT_GE(tenant_hits[0], 100);
}

TEST(ReplicaPlacementTest, RespectsSpaceFilter) {
  Cluster cluster = NineCellCluster();
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  ReplicaPlacer placer(&cluster, &grid);
  Rng rng(9);
  std::set<ServerId> full = {1, 2, 3, 7, 11, 13};
  auto has_space = [&full](ServerId s) { return full.find(s) == full.end(); };
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<ServerId> replicas = placer.Place(0, 3, has_space, rng);
    for (ServerId s : replicas) {
      EXPECT_EQ(full.count(s), 0u);
    }
  }
}

// Property: on a realistic fleet, replication from 1 to 5 always yields
// distinct servers and never repeats environments within a block.
class ReplicationLevelTest : public ::testing::TestWithParam<int> {};

TEST_P(ReplicationLevelTest, DistinctServersAndEnvironments) {
  Rng rng(10);
  BuildOptions options;
  options.trace_slots = kSlotsPerDay;
  options.reimage_months = 1;
  options.scale = 0.15;
  options.per_server_traces = false;
  Cluster cluster = BuildCluster(DatacenterByName("DC-9"), options, rng);
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  ReplicaPlacer placer(&cluster, &grid);
  const int replication = GetParam();
  for (int trial = 0; trial < 40; ++trial) {
    ServerId writer = static_cast<ServerId>(rng.NextBounded(cluster.num_servers()));
    std::vector<ServerId> replicas = placer.Place(writer, replication, AlwaysHasSpace(), rng);
    EXPECT_EQ(replicas.size(), static_cast<size_t>(replication));
    std::set<ServerId> servers(replicas.begin(), replicas.end());
    EXPECT_EQ(servers.size(), replicas.size());
    std::set<EnvironmentId> envs;
    for (ServerId s : replicas) {
      envs.insert(cluster.tenant(cluster.server(s).tenant).environment);
    }
    EXPECT_EQ(envs.size(), replicas.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, ReplicationLevelTest, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace harvest
