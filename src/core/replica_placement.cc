#include "src/core/replica_placement.h"

#include <algorithm>
#include <array>
#include <numeric>

#include "src/util/logging.h"

namespace harvest {

namespace {

bool Contains(const std::vector<EnvironmentId>& haystack, EnvironmentId needle) {
  return std::find(haystack.begin(), haystack.end(), needle) != haystack.end();
}

// Lazily-shuffled visit order over items[0, count): each NextIndex call is
// one step of a Fisher-Yates shuffle, so the sequence of visited items is
// distributed exactly like a full Shuffle() followed by a linear scan, but
// the RNG is only consumed for items actually inspected (the common case
// inspects one).
template <typename T>
class LazyShuffle {
 public:
  LazyShuffle(T* items, size_t count) : items_(items), count_(count) {}

  bool Done() const { return next_ >= count_; }
  T& Next(Rng& rng) {
    size_t j = next_ + static_cast<size_t>(rng.NextBounded(count_ - next_));
    std::swap(items_[next_], items_[j]);
    return items_[next_++];
  }

 private:
  T* items_;
  size_t count_;
  size_t next_ = 0;
};

}  // namespace

ReplicaPlacer::ReplicaPlacer(const Cluster* cluster, const PlacementGrid* grid, Options options)
    : cluster_(cluster), grid_(grid), options_(options) {
  if (options_.greedy_best_first) {
    greedy_order_ = grid_->tenant_stats();
    std::sort(greedy_order_.begin(), greedy_order_.end(),
              [](const TenantPlacementStats& a, const TenantPlacementStats& b) {
                if (a.reimage_rate != b.reimage_rate) {
                  return a.reimage_rate < b.reimage_rate;
                }
                if (a.peak_utilization != b.peak_utilization) {
                  return a.peak_utilization < b.peak_utilization;
                }
                return a.tenant < b.tenant;
              });
  }
}

TenantId ReplicaPlacer::PickTenant(const GridCell& cell,
                                   const std::vector<EnvironmentId>& used_environments,
                                   ServerFilter has_space, Rng& rng) const {
  // Random order over the cell's tenants; accept the first eligible one.
  tenant_scratch_.assign(cell.tenants.begin(), cell.tenants.end());
  LazyShuffle<TenantId> order(tenant_scratch_.data(), tenant_scratch_.size());
  while (!order.Done()) {
    TenantId tenant = order.Next(rng);
    if (Contains(used_environments, cluster_->tenant(tenant).environment)) {
      continue;
    }
    for (ServerId server : cluster_->tenant(tenant).servers) {
      if (has_space(server)) {
        return tenant;
      }
    }
  }
  return kInvalidTenant;
}

ServerId ReplicaPlacer::PickServer(TenantId tenant, ServerFilter has_space,
                                   Rng& rng) const {
  const std::vector<ServerId>& servers = cluster_->tenant(tenant).servers;
  if (servers.empty()) {
    return kInvalidServer;
  }
  // Rejection sampling first (uniform over the eligible servers, no
  // candidate-list allocation; succeeds quickly unless the tenant is nearly
  // full)...
  for (int probe = 0; probe < 8; ++probe) {
    ServerId candidate = servers[rng.NextBounded(servers.size())];
    if (has_space(candidate)) {
      return candidate;
    }
  }
  // ...then an exact two-pass draw: count the eligible servers, pick the
  // k-th. Still uniform, still allocation-free.
  size_t eligible = 0;
  for (ServerId server : servers) {
    if (has_space(server)) {
      ++eligible;
    }
  }
  if (eligible == 0) {
    return kInvalidServer;
  }
  size_t k = rng.NextBounded(eligible);
  for (ServerId server : servers) {
    if (has_space(server) && k-- == 0) {
      return server;
    }
  }
  return kInvalidServer;  // unreachable
}

std::vector<ServerId> ReplicaPlacer::Place(ServerId writer, int replication,
                                           ServerFilter has_space, Rng& rng) const {
  if (options_.greedy_best_first) {
    return PlaceGreedy(writer, replication, has_space, rng);
  }

  std::vector<ServerId> replicas;
  replicas.reserve(static_cast<size_t>(replication));
  std::vector<EnvironmentId>& used_environments = environment_scratch_;
  used_environments.clear();
  std::array<bool, kGridDim> used_rows{};
  std::array<bool, kGridDim> used_cols{};

  // Replica 1: the writer's server, for locality (lines 6-7). Falls back to
  // a random server of the writer's tenant/cell when the writer is full.
  const Server& writer_server = cluster_->server(writer);
  TenantId writer_tenant = writer_server.tenant;
  auto [writer_row, writer_col] = grid_->CellOfTenant(writer_tenant);
  ServerId first = has_space(writer) ? writer : PickServer(writer_tenant, has_space, rng);
  if (first != kInvalidServer) {
    replicas.push_back(first);
    used_environments.push_back(cluster_->tenant(writer_tenant).environment);
    if (writer_row >= 0) {
      used_rows[static_cast<size_t>(writer_row)] = true;
      used_cols[static_cast<size_t>(writer_col)] = true;
    }
  }

  // Replicas 2..R (lines 8-18).
  int since_reset = static_cast<int>(replicas.size());
  while (static_cast<int>(replicas.size()) < replication) {
    // Pass 1: cells whose row and column are unused this round. Pass 2: any
    // cell -- the row/column rule is a diversity heuristic and degrades
    // before failing the block (small fleets cannot always honor it), while
    // the environment constraint stays hard.
    ServerId chosen = kInvalidServer;
    for (int pass = 0; pass < 2 && chosen == kInvalidServer; ++pass) {
      std::array<std::pair<int, int>, kGridDim * kGridDim> cells;
      size_t num_cells = 0;
      for (int r = 0; r < kGridDim; ++r) {
        for (int c = 0; c < kGridDim; ++c) {
          bool diverse = !used_rows[static_cast<size_t>(r)] &&
                         !used_cols[static_cast<size_t>(c)];
          if ((pass == 0 ? diverse : true) && !grid_->cell(r, c).tenants.empty()) {
            cells[num_cells++] = {r, c};
          }
        }
      }
      LazyShuffle<std::pair<int, int>> order(cells.data(), num_cells);
      while (!order.Done()) {
        auto [r, c] = order.Next(rng);
        TenantId tenant = PickTenant(grid_->cell(r, c), used_environments, has_space, rng);
        if (tenant == kInvalidTenant) {
          continue;
        }
        chosen = PickServer(tenant, has_space, rng);
        if (chosen != kInvalidServer) {
          used_rows[static_cast<size_t>(r)] = true;
          used_cols[static_cast<size_t>(c)] = true;
          used_environments.push_back(cluster_->tenant(tenant).environment);
          break;
        }
      }
    }

    if (chosen == kInvalidServer && options_.soft_constraints) {
      // Space over diversity (the initial production configuration): relax
      // the environment constraint too, before giving up.
      for (int r = 0; r < kGridDim && chosen == kInvalidServer; ++r) {
        for (int c = 0; c < kGridDim && chosen == kInvalidServer; ++c) {
          TenantId tenant = PickTenant(grid_->cell(r, c), {}, has_space, rng);
          if (tenant != kInvalidTenant) {
            chosen = PickServer(tenant, has_space, rng);
          }
        }
      }
    }

    if (chosen == kInvalidServer) {
      break;  // hard constraints: partial placement, caller decides
    }
    replicas.push_back(chosen);
    ++since_reset;
    if (since_reset % 3 == 0) {
      // Forget rows and columns every third replica (lines 15-17).
      used_rows.fill(false);
      used_cols.fill(false);
    }
  }
  return replicas;
}

ServerId ReplicaPlacer::PlaceAdditional(const std::vector<ServerId>& existing,
                                        ServerFilter has_space, Rng& rng) const {
  std::vector<EnvironmentId>& used_environments = environment_scratch_;
  used_environments.clear();
  std::array<bool, kGridDim> used_rows{};
  std::array<bool, kGridDim> used_cols{};
  for (ServerId s : existing) {
    TenantId tenant = cluster_->server(s).tenant;
    used_environments.push_back(cluster_->tenant(tenant).environment);
    auto [row, col] = grid_->CellOfTenant(tenant);
    if (row >= 0) {
      used_rows[static_cast<size_t>(row)] = true;
      used_cols[static_cast<size_t>(col)] = true;
    }
  }

  // Pass 1: cells disjoint in both row and column from every existing
  // replica. Pass 2: any cell, environment constraint only (mirrors the
  // round reset of Algorithm 2 when existing replicas already span 3 cells).
  for (int pass = 0; pass < 2; ++pass) {
    std::array<std::pair<int, int>, kGridDim * kGridDim> cells;
    size_t num_cells = 0;
    for (int r = 0; r < kGridDim; ++r) {
      for (int c = 0; c < kGridDim; ++c) {
        bool diverse = !used_rows[static_cast<size_t>(r)] && !used_cols[static_cast<size_t>(c)];
        if ((pass == 0 ? diverse : true) && !grid_->cell(r, c).tenants.empty()) {
          cells[num_cells++] = {r, c};
        }
      }
    }
    LazyShuffle<std::pair<int, int>> order(cells.data(), num_cells);
    while (!order.Done()) {
      auto [r, c] = order.Next(rng);
      TenantId tenant = PickTenant(grid_->cell(r, c), used_environments, has_space, rng);
      if (tenant == kInvalidTenant) {
        continue;
      }
      ServerId server = PickServer(tenant, has_space, rng);
      if (server != kInvalidServer) {
        return server;
      }
    }
  }
  return kInvalidServer;
}

std::vector<ServerId> ReplicaPlacer::PlaceGreedy(ServerId writer, int replication,
                                                 ServerFilter has_space, Rng& rng) const {
  // The strawman of §4.2: order tenants by (reimage rate, peak utilization)
  // and fill the "best" tenants first. Flaws: durability and availability are
  // treated sequentially, and once the good tenants fill up, the remaining
  // placements are poor. The order is precomputed in the constructor.
  std::vector<ServerId> replicas;
  if (has_space(writer)) {
    replicas.push_back(writer);
  }
  std::vector<EnvironmentId>& used_environments = environment_scratch_;
  used_environments.clear();
  if (!replicas.empty()) {
    used_environments.push_back(cluster_->tenant(cluster_->server(writer).tenant).environment);
  }
  for (const auto& stats : greedy_order_) {
    if (static_cast<int>(replicas.size()) >= replication) {
      break;
    }
    if (Contains(used_environments, stats.environment)) {
      continue;
    }
    ServerId server = PickServer(stats.tenant, has_space, rng);
    if (server != kInvalidServer) {
      replicas.push_back(server);
      used_environments.push_back(stats.environment);
    }
  }
  return replicas;
}

}  // namespace harvest
