// Placement-quality monitoring (paper §7, lessons 1 and 3): production
// HDFS-H collects extensive information about block placements to estimate
// their quality, and by default stops consuming more space when diversity
// becomes low -- the "data durability is king" lesson learned after the
// initial space-over-diversity configuration lost blocks.
//
// The monitor scores each block by how diverse its replicas are along the
// dimensions Algorithm 2 optimizes: distinct environments, distinct grid
// rows (availability), and distinct grid columns (durability).

#ifndef HARVEST_SRC_STORAGE_PLACEMENT_QUALITY_H_
#define HARVEST_SRC_STORAGE_PLACEMENT_QUALITY_H_

#include <span>

#include "src/core/placement_grid.h"
#include "src/storage/name_node.h"

namespace harvest {

// Quality of one block's placement, each in [0, 1] (1 = fully diverse).
struct BlockPlacementQuality {
  double environment_diversity = 0.0;  // distinct envs / replicas
  double row_diversity = 0.0;          // distinct grid rows / min(replicas, 3)
  double column_diversity = 0.0;       // distinct grid cols / min(replicas, 3)
  int replicas = 0;

  // Composite score; environment diversity dominates (it is the hard
  // constraint whose violation loses data under correlated reimages).
  double Score() const {
    return 0.5 * environment_diversity + 0.25 * row_diversity + 0.25 * column_diversity;
  }
};

// Fleet-level placement-quality summary.
struct PlacementQualityReport {
  int64_t blocks = 0;
  double mean_score = 0.0;
  double min_score = 1.0;
  // Fraction of blocks with at least two replicas in one environment (the
  // loss-prone pattern the paper's production rollout eliminated).
  double environment_violations = 0.0;
  // Fraction of blocks below the quality threshold.
  double low_quality_fraction = 0.0;
};

class PlacementQualityMonitor {
 public:
  struct Options {
    // Blocks scoring below this are "low quality".
    double quality_threshold = 0.75;
    // The monitor recommends halting space consumption when more than this
    // fraction of blocks are low quality (paper: "stop consuming more space
    // when diversity becomes low").
    double stop_fraction = 0.05;
  };

  PlacementQualityMonitor(const Cluster* cluster, const PlacementGrid* grid)
      : PlacementQualityMonitor(cluster, grid, Options()) {}
  PlacementQualityMonitor(const Cluster* cluster, const PlacementGrid* grid, Options options)
      : cluster_(cluster), grid_(grid), options_(options) {}

  // Scores one block's replica set.
  BlockPlacementQuality ScoreBlock(std::span<const ServerId> replicas) const;

  // Scores every live block in the namespace.
  PlacementQualityReport Audit(const NameNode& name_node) const;

  // The production guardrail: true when the namespace's diversity is too low
  // to keep filling (callers then favor durability over space utilization).
  bool ShouldStopConsumingSpace(const PlacementQualityReport& report) const {
    return report.low_quality_fraction > options_.stop_fraction;
  }

 private:
  const Cluster* cluster_;
  const PlacementGrid* grid_;
  Options options_;
};

}  // namespace harvest

#endif  // HARVEST_SRC_STORAGE_PLACEMENT_QUALITY_H_
