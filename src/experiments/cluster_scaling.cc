#include "src/experiments/cluster_scaling.h"

#include <memory>

#include "src/cluster/fleet_table.h"

namespace harvest {

Cluster ScaleClusterUtilization(const Cluster& cluster, ScalingMethod method,
                                double target_average) {
  // The fleet average weights every server sample equally, so solve over the
  // distinct (pooled) traces, each weighted by the servers sharing it: the
  // same average as the per-server list, at O(distinct samples) per step.
  // Servers without samples have no pool index and carry no weight.
  const FleetTable table(cluster);
  std::vector<WeightedTrace> population(static_cast<size_t>(table.num_traces()));
  for (int32_t t = 0; t < table.num_traces(); ++t) {
    population[static_cast<size_t>(t)].trace = table.trace(t);
  }
  for (int32_t index : table.trace_index()) {
    if (index >= 0) {
      ++population[static_cast<size_t>(index)].count;
    }
  }
  const double parameter = SolveScalingParameter(population, method, target_average);

  Cluster scaled = cluster;
  // Scale tenant average traces.
  for (size_t t = 0; t < scaled.num_tenants(); ++t) {
    PrimaryTenant& tenant = scaled.tenant(static_cast<TenantId>(t));
    tenant.average_utilization = ScaleTrace(tenant.average_utilization, method, parameter);
  }
  // Scale each pooled trace once; servers sharing a source trace share its
  // scaled copy.
  std::vector<std::shared_ptr<const UtilizationTrace>> pool(population.size());
  for (size_t s = 0; s < scaled.num_servers(); ++s) {
    const int32_t index = table.trace_index()[s];
    if (index < 0) {
      continue;
    }
    std::shared_ptr<const UtilizationTrace>& scaled_trace = pool[static_cast<size_t>(index)];
    if (!scaled_trace) {
      scaled_trace = std::make_shared<const UtilizationTrace>(
          ScaleTrace(*table.trace(index), method, parameter));
    }
    scaled.server(static_cast<ServerId>(s)).utilization = scaled_trace;
  }
  return scaled;
}

}  // namespace harvest
