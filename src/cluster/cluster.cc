#include "src/cluster/cluster.h"

#include <cmath>

#include "src/util/logging.h"

namespace harvest {

int Server::PrimaryCoresAt(double seconds) const {
  double used = PrimaryUtilizationAt(seconds) * capacity.cores;
  int rounded = static_cast<int>(std::ceil(used - 1e-9));
  return std::min(capacity.cores, std::max(0, rounded));
}

TenantId Cluster::AddTenant(PrimaryTenant tenant) {
  tenant.id = static_cast<TenantId>(tenants_.size());
  tenants_.push_back(std::move(tenant));
  return tenants_.back().id;
}

ServerId Cluster::AddServer(Server server) {
  server.id = static_cast<ServerId>(servers_.size());
  HARVEST_CHECK(server.tenant >= 0 &&
                static_cast<size_t>(server.tenant) < tenants_.size())
      << "server must belong to an existing tenant";
  tenants_[static_cast<size_t>(server.tenant)].servers.push_back(server.id);
  servers_.push_back(std::move(server));
  reimage_spans_.emplace_back();  // empty schedule until SetReimageTimes
  return servers_.back().id;
}

void Cluster::SetReimageTimes(ServerId id, const double* times, size_t count) {
  ReimageSpan& span = reimage_spans_[static_cast<size_t>(id)];
  span.offset = reimage_pool_.size();
  span.count = count;
  reimage_pool_.insert(reimage_pool_.end(), times, times + count);
}

double Cluster::AverageUtilization() const {
  if (servers_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const auto& server : servers_) {
    if (server.utilization) {
      sum += server.utilization->Average();
    }
  }
  return sum / static_cast<double>(servers_.size());
}

int64_t Cluster::TotalHarvestableBlocks() const {
  int64_t total = 0;
  for (const auto& server : servers_) {
    total += server.harvestable_blocks;
  }
  return total;
}

}  // namespace harvest
