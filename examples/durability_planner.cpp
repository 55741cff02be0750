// Durability planning scenario: an operator wants to know how many replicas
// harvested storage needs in a given datacenter, and how much the placement
// policy matters. Runs the one-year reimage simulation for each policy and
// replication level and prints a small decision table, plus the placement
// grid that Algorithm 2 would use.
//
// Build & run:  ./build/examples/durability_planner [DC-name]

#include <cstdio>
#include <string>

#include "src/cluster/datacenter.h"
#include "src/core/placement_grid.h"
#include "src/experiments/storage_cosim.h"
#include "src/trace/reimage.h"

int main(int argc, char** argv) {
  using namespace harvest;
  const std::string dc_name = argc > 1 ? argv[1] : "DC-7";
  const DatacenterProfile& profile = DatacenterByName(dc_name);

  Rng rng(11);
  BuildOptions build;
  build.trace_slots = kSlotsPerDay;
  build.reimage_months = 12;
  build.scale = 0.25;
  build.per_server_traces = false;
  Cluster cluster = BuildCluster(profile, build, rng);

  std::printf("durability planning for %s: %zu tenants, %zu servers, %lld harvestable blocks\n",
              dc_name.c_str(), cluster.num_tenants(), cluster.num_servers(),
              (long long)cluster.TotalHarvestableBlocks());

  // The 3x3 grid Algorithm 2 will place against.
  PlacementGrid grid = PlacementGrid::Build(CollectPlacementStats(cluster));
  std::printf("placement grid balance ratio: %.2f (1.0 = perfectly equal space per cell)\n\n",
              grid.BalanceRatio());

  // One year of the fleet's reimages, replayed against every cell below.
  StorageTimelineOptions timeline_options;
  timeline_options.reimage_horizon_seconds = 12.0 * kSecondsPerMonth;
  const StorageTimeline timeline = BuildStorageTimeline(cluster, timeline_options);

  std::printf("%-14s %14s %14s %14s\n", "policy", "2x lost%", "3x lost%", "4x lost%");
  for (PlacementKind policy : {PlacementKind::kStock, PlacementKind::kRandom,
                               PlacementKind::kHistory, PlacementKind::kSoft}) {
    std::printf("%-14s", PlacementKindName(policy));
    for (int replication : {2, 3, 4}) {
      StorageCosimOptions options;
      options.placement = policy;
      options.replication = replication;
      options.num_blocks = 60000;
      options.writer_seed = 11;
      options.policy_seed = DerivedStreamSeed(11, PlacementKindName(policy));
      std::printf(" %13.4f%%", RunStorageCosim(cluster, timeline, options).lost_percent);
    }
    std::printf("\n");
  }

  std::printf("\nReading: history-based placement (HDFS-H) reaches a given durability level\n"
              "with fewer replicas than stock placement -- the paper's \"higher durability at\n"
              "lower space overhead\". The soft variant fills more space at some durability\n"
              "cost (the production trade-off of paper section 7).\n");
  return 0;
}
