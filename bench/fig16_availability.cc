// Figure 16: percentage of failed block accesses as a function of average
// utilization under linear scaling, for HDFS-Stock vs HDFS-H at three- and
// four-way replication. Paper shape: HDFS-H shows no unavailability up to
// ~40% utilization and low unavailability at 50%; HDFS-Stock already fails
// noticeably by 50%; unavailability rises sharply past the 66% wall; H at 3x
// beats Stock at 4x below ~75%.

#include <cstdio>

#include "bench/bench_common.h"
#include "src/cluster/datacenter.h"
#include "src/experiments/cluster_scaling.h"
#include "src/experiments/storage_cosim.h"

int main() {
  using namespace harvest;
  PrintHeader("Figure 16", "failed accesses vs utilization, linear scaling, 3x/4x replication");

  Rng rng(2016);
  BuildOptions build;
  build.trace_slots = kSlotsPerDay * 2;
  build.reimage_months = 1;
  build.scale = 0.25 * BenchScale();
  build.per_server_traces = false;
  Cluster base = BuildCluster(DatacenterByName("DC-9"), build, rng);

  const double utilizations[] = {0.25, 0.35, 0.45, 0.55, 0.65, 0.75};
  std::printf("\n%-8s %14s %14s %14s %14s\n", "util", "Stock-3x", "H-3x", "Stock-4x", "H-4x");
  for (double target : utilizations) {
    Cluster cluster = ScaleClusterUtilization(base, ScalingMethod::kLinear, target);
    StorageTimelineOptions timeline_options;
    timeline_options.uniform_accesses = static_cast<int64_t>(150000 * BenchScale());
    timeline_options.access_horizon_seconds = 30.0 * 24.0 * 3600.0;
    timeline_options.access_seed = DerivedStreamSeed(2016, "accesses");
    const StorageTimeline timeline = BuildStorageTimeline(cluster, timeline_options);
    std::printf("%6.0f%% ", 100.0 * target);
    for (int replication : {3, 4}) {
      for (PlacementKind placement : {PlacementKind::kStock, PlacementKind::kHistory}) {
        StorageCosimOptions options;
        options.placement = placement;
        options.replication = replication;
        options.num_blocks = static_cast<int64_t>(40000 * BenchScale());
        options.primary_aware_access = true;
        options.writer_seed = 2016;
        options.policy_seed = DerivedStreamSeed(2016, PlacementKindName(placement));
        std::printf(" %13.3f%%",
                    RunStorageCosim(cluster, timeline, options).failed_access_percent);
      }
    }
    std::printf("\n");
  }
  std::printf("(columns are Stock-3x, H-3x, Stock-4x, H-4x)\n");

  PrintRule();
  std::printf("Shape check: H-3x at or near zero through ~40-50%% utilization while Stock-3x\n"
              "already fails; both rise sharply as the fleet crosses the 66%% access wall;\n"
              "H-3x <= Stock-4x at moderate utilizations.\n");
  return 0;
}
