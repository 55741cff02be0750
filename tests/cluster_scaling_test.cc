#include "src/experiments/cluster_scaling.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/cluster/datacenter.h"

namespace harvest {
namespace {

Cluster SmallCluster(bool per_server, uint64_t seed) {
  Rng rng(seed);
  BuildOptions options;
  options.trace_slots = kSlotsPerDay * 2;
  options.reimage_months = 1;
  options.scale = 0.1;
  options.per_server_traces = per_server;
  return BuildCluster(DatacenterByName("DC-9"), options, rng);
}

TEST(ClusterScalingTest, PreservesTopologyAndStorage) {
  Cluster cluster = SmallCluster(false, 1);
  Cluster scaled = ScaleClusterUtilization(cluster, ScalingMethod::kLinear, 0.5);
  ASSERT_EQ(scaled.num_servers(), cluster.num_servers());
  ASSERT_EQ(scaled.num_tenants(), cluster.num_tenants());
  for (size_t s = 0; s < cluster.num_servers(); ++s) {
    EXPECT_EQ(scaled.server(static_cast<ServerId>(s)).harvestable_blocks,
              cluster.server(static_cast<ServerId>(s)).harvestable_blocks);
    EXPECT_EQ(scaled.server(static_cast<ServerId>(s)).rack,
              cluster.server(static_cast<ServerId>(s)).rack);
  }
}

TEST(ClusterScalingTest, SharedTracesStayShared) {
  Cluster cluster = SmallCluster(false, 2);
  Cluster scaled = ScaleClusterUtilization(cluster, ScalingMethod::kLinear, 0.4);
  for (const auto& tenant : scaled.tenants()) {
    if (tenant.servers.size() < 2) {
      continue;
    }
    EXPECT_EQ(scaled.server(tenant.servers[0]).utilization.get(),
              scaled.server(tenant.servers[1]).utilization.get());
  }
}

TEST(ClusterScalingTest, OriginalClusterUntouched) {
  Cluster cluster = SmallCluster(false, 3);
  double before = cluster.AverageUtilization();
  Cluster scaled = ScaleClusterUtilization(cluster, ScalingMethod::kLinear, 0.7);
  EXPECT_NEAR(cluster.AverageUtilization(), before, 1e-12);
  EXPECT_GT(scaled.AverageUtilization(), before);
}

// Property: both methods land the fleet average on the target across the
// utilization spectrum and trace-sharing modes.
class ScaleSweepTest
    : public ::testing::TestWithParam<std::tuple<ScalingMethod, double, bool>> {};

TEST_P(ScaleSweepTest, HitsTarget) {
  auto [method, target, per_server] = GetParam();
  Cluster cluster = SmallCluster(per_server, 4);
  Cluster scaled = ScaleClusterUtilization(cluster, method, target);
  EXPECT_NEAR(scaled.AverageUtilization(), target, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScaleSweepTest,
    ::testing::Combine(::testing::Values(ScalingMethod::kLinear, ScalingMethod::kRoot),
                       ::testing::Values(0.2, 0.45, 0.7), ::testing::Bool()));

// Every server's scaled trace, as the parameter applied to its source trace:
// equal scaled samples mean an equal solved parameter.
void ExpectSameScaledTraces(const Cluster& a, const Cluster& b) {
  ASSERT_EQ(a.num_servers(), b.num_servers());
  for (size_t s = 0; s < a.num_servers(); ++s) {
    const UtilizationTrace& ta = *a.server(static_cast<ServerId>(s)).utilization;
    const UtilizationTrace& tb = *b.server(static_cast<ServerId>(s)).utilization;
    ASSERT_EQ(ta.size(), tb.size());
    for (size_t i = 0; i < ta.size(); ++i) {
      ASSERT_NEAR(ta.AtSlot(i), tb.AtSlot(i), 1e-12 * tb.AtSlot(i)) << "server " << s;
    }
  }
}

TEST(ClusterScalingTest, SharedTracesSolveLikePerServerCopies) {
  Cluster shared = SmallCluster(false, 6);
  Cluster copied = shared;
  for (size_t s = 0; s < copied.num_servers(); ++s) {
    Server& server = copied.server(static_cast<ServerId>(s));
    server.utilization = std::make_shared<const UtilizationTrace>(*server.utilization);
  }
  for (ScalingMethod method : {ScalingMethod::kLinear, ScalingMethod::kRoot}) {
    ExpectSameScaledTraces(ScaleClusterUtilization(shared, method, 0.55),
                           ScaleClusterUtilization(copied, method, 0.55));
  }
}

TEST(ClusterScalingTest, ServersWithoutSamplesCarryNoWeight) {
  Cluster cluster = SmallCluster(false, 7);
  Cluster padded = cluster;
  for (int i = 0; i < 40; ++i) {
    Server server;
    server.tenant = 0;
    server.utilization = std::make_shared<const UtilizationTrace>();
    padded.AddServer(std::move(server));
  }
  Cluster scaled = ScaleClusterUtilization(cluster, ScalingMethod::kRoot, 0.35);
  Cluster scaled_padded = ScaleClusterUtilization(padded, ScalingMethod::kRoot, 0.35);
  for (size_t s = 0; s < cluster.num_servers(); ++s) {
    const ServerId id = static_cast<ServerId>(s);
    EXPECT_EQ(scaled.server(id).utilization->samples(),
              scaled_padded.server(id).utilization->samples());
  }
  EXPECT_TRUE(scaled_padded.servers().back().utilization->empty());
}

TEST(ClusterScalingTest, TenantAverageTracksServerTraces) {
  Cluster cluster = SmallCluster(false, 5);
  Cluster scaled = ScaleClusterUtilization(cluster, ScalingMethod::kRoot, 0.6);
  for (const auto& tenant : scaled.tenants()) {
    if (tenant.servers.empty()) {
      continue;
    }
    // Shared-trace mode: the tenant average equals its servers' trace.
    EXPECT_NEAR(tenant.average_utilization.Average(),
                scaled.server(tenant.servers[0]).utilization->Average(), 1e-9);
  }
}

}  // namespace
}  // namespace harvest
