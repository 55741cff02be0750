#include "src/storage/placement_quality.h"

#include <algorithm>
#include <set>

namespace harvest {

BlockPlacementQuality PlacementQualityMonitor::ScoreBlock(
    std::span<const ServerId> replicas) const {
  BlockPlacementQuality quality;
  quality.replicas = static_cast<int>(replicas.size());
  if (replicas.empty()) {
    return quality;
  }
  std::set<EnvironmentId> environments;
  std::set<int> rows;
  std::set<int> cols;
  for (ServerId s : replicas) {
    TenantId tenant = cluster_->server(s).tenant;
    environments.insert(cluster_->tenant(tenant).environment);
    auto [row, col] = grid_->CellOfTenant(tenant);
    rows.insert(row);
    cols.insert(col);
  }
  double n = static_cast<double>(replicas.size());
  // Row/column diversity saturates at the grid dimension: a 4th or 5th
  // replica legitimately reuses a row (Algorithm 2 resets per round).
  double denom = std::min(n, static_cast<double>(kGridDim));
  quality.environment_diversity = static_cast<double>(environments.size()) / n;
  quality.row_diversity = static_cast<double>(rows.size()) / denom;
  quality.column_diversity = static_cast<double>(cols.size()) / denom;
  return quality;
}

PlacementQualityReport PlacementQualityMonitor::Audit(const NameNode& name_node) const {
  PlacementQualityReport report;
  double score_sum = 0.0;
  int64_t violations = 0;
  int64_t low_quality = 0;
  for (BlockId b = 0; b < name_node.num_blocks(); ++b) {
    if (name_node.Lost(b) || name_node.LiveReplicas(b) == 0) {
      continue;
    }
    BlockPlacementQuality quality = ScoreBlock(name_node.ReplicaServers(b));
    ++report.blocks;
    double score = quality.Score();
    score_sum += score;
    report.min_score = std::min(report.min_score, score);
    if (quality.environment_diversity < 1.0) {
      ++violations;
    }
    if (score < options_.quality_threshold) {
      ++low_quality;
    }
  }
  if (report.blocks > 0) {
    report.mean_score = score_sum / static_cast<double>(report.blocks);
    report.environment_violations =
        static_cast<double>(violations) / static_cast<double>(report.blocks);
    report.low_quality_fraction =
        static_cast<double>(low_quality) / static_cast<double>(report.blocks);
  } else {
    report.min_score = 0.0;
  }
  return report;
}

}  // namespace harvest
