// Tests for RM-H's history-based placement aids: the NodeManager's
// previous-day forecast (goal G3) and the placement policies' re-replication
// destination selection (PlaceAdditional).

#include <gtest/gtest.h>
#include <memory>
#include <set>

#include "src/cluster/datacenter.h"
#include "src/core/replica_placement.h"
#include "src/scheduler/node_manager.h"
#include "src/storage/placement.h"

namespace harvest {
namespace {

// A two-day trace: day 0 low (20%), day 1 ramps to high (70%) in the second
// half. The forecast for day-1 times looks at day-0 samples and vice versa.
Server RampServer() {
  std::vector<double> samples(kSlotsPerDay * 2, 0.2);
  for (size_t i = kSlotsPerDay + kSlotsPerDay / 2; i < 2 * kSlotsPerDay; ++i) {
    samples[i] = 0.7;
  }
  Server server;
  server.id = 0;
  server.tenant = 0;
  server.capacity = kDefaultServerCapacity;
  server.utilization = std::make_shared<const UtilizationTrace>(std::move(samples));
  return server;
}

TEST(ForecastTest, PreviousDayWindowPredictsRamp) {
  Server server = RampServer();
  NodeManager nm(&server, kDefaultReserve, SchedulerMode::kHistory);
  // At the start of day 2 (wraps to day 0 pattern), the previous day is
  // day 1: a short window sees day-1 morning (20% -> 3 cores), a half-day
  // window reaches the day-1 afternoon ramp (70% -> 9 cores).
  double t = 2.0 * kSlotsPerDay * kSlotSeconds;  // maps to day 0, history = day 1
  EXPECT_LE(nm.ForecastPrimaryCores(t, 600.0), 3);
  EXPECT_EQ(nm.ForecastPrimaryCores(t, 12.0 * 3600.0 + 600.0), 9);
}

TEST(ForecastTest, AvailableForTaskDiscountsForecast) {
  Server server = RampServer();
  NodeManager nm(&server, kDefaultReserve, SchedulerMode::kHistory);
  double t = 2.0 * kSlotsPerDay * kSlotSeconds;
  // Live usage 20% (3 cores): live room = 12 - 3 - 4 = 5.
  EXPECT_EQ(nm.AvailableForSecondary(t).cores, 5);
  // Long window forecast sees 9 cores: room = max(0, 12 - 9 - 4) = 0.
  EXPECT_EQ(nm.AvailableForTask(t, 12.0 * 3600.0 + 600.0).cores, 0);
  // Short window: same as live.
  EXPECT_EQ(nm.AvailableForTask(t, 600.0).cores, 5);
}

TEST(ForecastTest, StockModeIgnoresForecast) {
  Server server = RampServer();
  NodeManager nm(&server, kDefaultReserve, SchedulerMode::kStock);
  double t = 2.0 * kSlotsPerDay * kSlotSeconds;
  EXPECT_EQ(nm.AvailableForTask(t, 12.0 * 3600.0).cores, 12);
}

Cluster SmallDc(uint64_t seed) {
  Rng rng(seed);
  BuildOptions options;
  options.trace_slots = kSlotsPerDay;
  options.reimage_months = 1;
  options.scale = 0.2;
  options.per_server_traces = false;
  return BuildCluster(DatacenterByName("DC-9"), options, rng);
}

TEST(PlaceAdditionalTest, DefaultPolicyAvoidsExistingReplicas) {
  Cluster cluster = SmallDc(1);
  StockPlacement policy(&cluster);
  Rng rng(2);
  auto always = [](ServerId) { return true; };
  for (int trial = 0; trial < 50; ++trial) {
    ServerId writer = static_cast<ServerId>(rng.NextBounded(cluster.num_servers()));
    std::vector<ServerId> existing = policy.Place(writer, 3, always, rng);
    ASSERT_EQ(existing.size(), 3u);
    ServerId extra = policy.PlaceAdditional(existing, always, rng);
    ASSERT_NE(extra, kInvalidServer);
    EXPECT_EQ(std::count(existing.begin(), existing.end(), extra), 0);
  }
}

TEST(PlaceAdditionalTest, HistoryPolicyPreservesEnvironmentDiversity) {
  Cluster cluster = SmallDc(3);
  HistoryPlacement policy(&cluster);
  Rng rng(4);
  auto always = [](ServerId) { return true; };
  for (int trial = 0; trial < 100; ++trial) {
    ServerId writer = static_cast<ServerId>(rng.NextBounded(cluster.num_servers()));
    std::vector<ServerId> existing = policy.Place(writer, 3, always, rng);
    ASSERT_EQ(existing.size(), 3u);
    // Drop one replica (simulating a reimage) and heal.
    std::vector<ServerId> survivors(existing.begin() + 1, existing.end());
    ServerId healed = policy.PlaceAdditional(survivors, always, rng);
    ASSERT_NE(healed, kInvalidServer);
    std::set<EnvironmentId> envs;
    for (ServerId s : survivors) {
      envs.insert(cluster.tenant(cluster.server(s).tenant).environment);
    }
    EnvironmentId healed_env = cluster.tenant(cluster.server(healed).tenant).environment;
    EXPECT_EQ(envs.count(healed_env), 0u)
        << "healed replica landed in an environment already holding one";
  }
}

TEST(PlaceAdditionalTest, HistoryPolicyPrefersDisjointRowsAndColumns) {
  Cluster cluster = SmallDc(5);
  HistoryPlacement policy(&cluster);
  Rng rng(6);
  auto always = [](ServerId) { return true; };
  int diverse = 0;
  const int trials = 100;
  for (int trial = 0; trial < trials; ++trial) {
    ServerId writer = static_cast<ServerId>(rng.NextBounded(cluster.num_servers()));
    std::vector<ServerId> existing = policy.Place(writer, 2, always, rng);
    ASSERT_EQ(existing.size(), 2u);
    ServerId extra = policy.PlaceAdditional(existing, always, rng);
    ASSERT_NE(extra, kInvalidServer);
    std::set<int> rows;
    std::set<int> cols;
    bool overlap = false;
    for (ServerId s : existing) {
      auto [r, c] = policy.grid().CellOfTenant(cluster.server(s).tenant);
      rows.insert(r);
      cols.insert(c);
    }
    auto [r, c] = policy.grid().CellOfTenant(cluster.server(extra).tenant);
    overlap = rows.count(r) > 0 || cols.count(c) > 0;
    if (!overlap) {
      ++diverse;
    }
  }
  // Pass 1 (disjoint rows and columns) should succeed almost always on an
  // uncontended fleet.
  EXPECT_GT(diverse, trials * 9 / 10);
}

TEST(PlaceAdditionalTest, EmptyExistingIsRejected) {
  Cluster cluster = SmallDc(7);
  StockPlacement policy(&cluster);
  Rng rng(8);
  auto always = [](ServerId) { return true; };
  EXPECT_EQ(policy.PlaceAdditional({}, always, rng), kInvalidServer);
}

TEST(PlaceAdditionalTest, RespectsSpaceFilter) {
  Cluster cluster = SmallDc(9);
  HistoryPlacement policy(&cluster);
  Rng rng(10);
  // Only servers of tenant 0 have space; existing replica elsewhere.
  auto only_tenant0 = [&cluster](ServerId s) { return cluster.server(s).tenant == 0; };
  std::vector<ServerId> existing = {cluster.tenant(1).servers[0]};
  ServerId extra = policy.PlaceAdditional(existing, only_tenant0, rng);
  if (extra != kInvalidServer) {
    EXPECT_EQ(cluster.server(extra).tenant, 0);
  }
}

}  // namespace
}  // namespace harvest
