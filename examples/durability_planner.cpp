// Durability planning scenario: an operator wants to know how many replicas
// harvested storage needs in a given datacenter, and how much the placement
// policy matters. Derives a one-datacenter run from the driver's fleet_sweep
// preset -- the one-year reimage grid at 2x/3x/4x for four placement
// policies, no scheduling -- and prints it as a small decision table, plus
// the balance of the placement grid that Algorithm 2 uses.
//
// Build & run:  ./build/examples/durability_planner [DC-name]

#include <cstdio>
#include <string>
#include <utility>

#include "src/driver/pipeline.h"
#include "src/driver/registry.h"

int main(int argc, char** argv) {
  using namespace harvest;
  const std::string dc_name = argc > 1 ? argv[1] : "DC-7";

  ScenarioConfig config = *FindScenario("fleet_sweep");
  const std::pair<const char*, std::string> overrides[] = {
      {"datacenters", dc_name},
      {"replications", "2,3,4"},
      {"placement_kinds", "stock,random,history,soft"},
      {"run_scheduling", "false"},
  };
  for (const auto& [key, value] : overrides) {
    std::string error;
    if (!ApplyScenarioOverride(config, key, value, &error)) {
      std::fprintf(stderr, "durability_planner: %s\n", error.c_str());
      return 2;
    }
  }
  const ScenarioRunResult run = RunScenario(config, ScenarioRunOptions{});
  const DatacenterResult& dc = run.result.datacenters.front();

  std::printf("durability planning for %s: %zu tenants, %zu servers, %lld harvestable blocks\n",
              dc.name.c_str(), dc.fleet.tenants, dc.fleet.servers,
              static_cast<long long>(dc.fleet.harvestable_blocks));
  std::printf("placement grid balance ratio: %.2f (1.0 = perfectly equal space per cell)\n\n",
              dc.placement.grid_balance_ratio);

  // cells[r * kinds + k]: one row per policy, one column per replication.
  const DurabilityStageResult& grid = dc.durability;
  const size_t kinds = grid.placement_kinds.size();
  std::printf("%-14s", "policy");
  for (int replication : grid.replications) {
    std::printf(" %13dx", replication);
  }
  std::printf("   (%% of %lld blocks lost in a year)\n",
              static_cast<long long>(grid.cells.front().blocks));
  for (size_t k = 0; k < kinds; ++k) {
    std::printf("%-14s", grid.placement_kinds[k].c_str());
    for (size_t r = 0; r < grid.replications.size(); ++r) {
      std::printf(" %13.4f%%", grid.cells[r * kinds + k].lost_percent);
    }
    std::printf("\n");
  }

  std::printf("\nReading: history-based placement (HDFS-H) reaches a given durability level\n"
              "with fewer replicas than stock placement -- the paper's \"higher durability at\n"
              "lower space overhead\". The soft variant fills more space at some durability\n"
              "cost (the production trade-off of paper section 7).\n");
  return 0;
}
