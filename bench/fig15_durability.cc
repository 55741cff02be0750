// Figure 15: percentage of lost blocks over one simulated year of disk
// reimages, for HDFS-Stock vs HDFS-H at three- and four-way replication,
// across the ten datacenters. Paper shape: HDFS-H cuts data loss by more
// than two orders of magnitude at 3x (zero for one datacenter) and
// eliminates loss entirely at 4x, while HDFS-Stock loses blocks everywhere;
// HDFS-H at 3x usually beats HDFS-Stock at 4x.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/cluster/datacenter.h"
#include "src/experiments/storage_cosim.h"
#include "src/trace/reimage.h"

int main() {
  using namespace harvest;
  PrintHeader("Figure 15", "lost blocks over one year, 3x and 4x replication");

  const int64_t blocks = static_cast<int64_t>(80000 * BenchScale());
  std::printf("\nblocks per run: %lld (paper: 4M; percentages are the comparable metric)\n",
              (long long)blocks);
  std::printf("\n%-6s %16s %16s %16s %16s\n", "DC", "Stock-3x lost%", "H-3x lost%",
              "Stock-4x lost%", "H-4x lost%");

  double stock3_total = 0.0;
  double h3_total = 0.0;
  int h4_losses = 0;
  for (const auto& profile : AllDatacenterProfiles()) {
    Rng rng(2016 + StableHash(profile.name));
    BuildOptions build;
    build.trace_slots = kSlotsPerDay;  // durability does not need utilization
    build.reimage_months = 12;
    build.scale = 0.2 * BenchScale();
    build.per_server_traces = false;
    Cluster cluster = BuildCluster(profile, build, rng);
    StorageTimelineOptions timeline_options;
    timeline_options.reimage_horizon_seconds = 12.0 * kSecondsPerMonth;
    const StorageTimeline timeline = BuildStorageTimeline(cluster, timeline_options);

    double lost[2][2];  // [policy][replication]
    for (int p = 0; p < 2; ++p) {
      for (int r = 0; r < 2; ++r) {
        StorageCosimOptions options;
        options.placement = p == 0 ? PlacementKind::kStock : PlacementKind::kHistory;
        options.replication = r == 0 ? 3 : 4;
        options.num_blocks = blocks;
        options.writer_seed = 2016;
        options.policy_seed = DerivedStreamSeed(2016, PlacementKindName(options.placement));
        lost[p][r] = RunStorageCosim(cluster, timeline, options).lost_percent;
      }
    }
    std::printf("%-6s %15.4f%% %15.4f%% %15.4f%% %15.4f%%\n", profile.name.c_str(),
                lost[0][0], lost[1][0], lost[0][1], lost[1][1]);
    stock3_total += lost[0][0];
    h3_total += lost[1][0];
    if (lost[1][1] > 0.0) {
      ++h4_losses;
    }
  }

  PrintRule();
  std::printf("Shape check: H-3x cuts loss vs Stock-3x by %.0fx on aggregate (paper: >100x);\n"
              "H-4x shows loss in %d/10 datacenters (paper: 0/10); H-3x should usually beat\n"
              "Stock-4x.\n",
              h3_total > 0.0 ? stock3_total / h3_total : stock3_total > 0 ? 1e9 : 1.0,
              h4_losses);
  return 0;
}
