// Oracle for the ResourceManager's incremental accounting: drives randomized
// Allocate / Release / EnforceReserves sequences over advancing simulation
// time and, after every operation,
//
//   * audits every cached quantity (per-node availability, forecasts,
//     weights, per-class aggregates, Fenwick trees) against a naive full
//     rescan (ResourceManager::AuditCachesForTest), and
//   * checks that Allocate's Fenwick-sampled placements equal the historical
//     dense-scan algorithm (candidate snapshot + Rng::WeightedIndex + local
//     decrements) run on a copy of the RNG -- including that both consume
//     the RNG stream identically, and
//   * checks that AverageTotalUtilization and AveragePrimaryUtilization,
//     which read each telemetry group's trace once, equal the dense
//     per-server sums bit for bit.
//
// The samplers are lazy (built at the first draw that reads them in a slot,
// then updated in place), so the audit checks every sampler a draw can read,
// and LazySamplersMatchEagerlyBuiltOnes force-builds stale samplers mid-slot
// and after profile switches and compares them with incrementally updated
// ones.
//
// Runs >= 1000 operations in each of PT and H modes (ISSUE 3 acceptance).

#include "src/scheduler/resource_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/cluster/datacenter.h"
#include "src/util/rng.h"

namespace harvest {
namespace {

constexpr int kOperationsPerMode = 1200;

// The historical dense Allocate, reproduced verbatim as a reference: builds
// the candidate list, snapshots live room (and type-aware headroom in H
// mode), and draws with Rng::WeightedIndex, decrementing locally. Consumes
// `rng` exactly as often as the production path should.
std::vector<ServerId> ReferencePlacements(const ResourceManager& rm,
                                          const ContainerRequest& request, double t,
                                          Rng& rng) {
  std::vector<ServerId> placements;
  if (request.count <= 0) {
    return placements;
  }
  std::vector<ServerId> candidates;
  if (request.allowed_classes.empty()) {
    for (ServerId s = 0; s < static_cast<ServerId>(rm.num_nodes()); ++s) {
      candidates.push_back(s);
    }
  } else {
    for (int c : request.allowed_classes) {
      if (c >= 0 && c < rm.NumClasses()) {
        const auto& servers = rm.ClassServers(c);
        candidates.insert(candidates.end(), servers.begin(), servers.end());
      }
    }
  }

  constexpr double kBonus = 50.0;  // mirrors the RM's kTypeRoomBonus
  const double window = std::max(request.task_seconds, kMinForecastWindowSeconds);
  // The dense formula: live room balances the load; history grants a flat
  // eligibility bonus (x kBonus on the live room) when the forecast says
  // this request shape survives on the server -- never a weight
  // proportional to the forecast room itself.
  std::vector<double> weights(candidates.size(), 0.0);
  std::vector<Resources> room(candidates.size());
  std::vector<Resources> type_room(candidates.size());
  auto weight_of = [&request](const Resources& live, const Resources& type_avail) {
    if (!live.Fits(request.resources)) {
      return 0.0;
    }
    double weight = static_cast<double>(live.cores);
    if (request.history_aware && type_avail.Fits(request.resources)) {
      weight += kBonus * static_cast<double>(live.cores);
    }
    return weight;
  };
  for (size_t i = 0; i < candidates.size(); ++i) {
    const NodeManager& node = rm.node(candidates[i]);
    room[i] = node.AvailableForSecondary(t);
    if (request.history_aware) {
      type_room[i] = node.AvailableForTask(t, window);
    }
    weights[i] = weight_of(room[i], type_room[i]);
  }

  for (int n = 0; n < request.count; ++n) {
    int pick = rng.WeightedIndex(weights);
    if (pick < 0) {
      break;
    }
    size_t idx = static_cast<size_t>(pick);
    placements.push_back(candidates[idx]);
    room[idx] -= request.resources;
    type_room[idx] -= request.resources;
    weights[idx] = weight_of(room[idx], type_room[idx]);
  }
  return placements;
}

// Naive recomputation of the class aggregates through the public query
// surface, at the exact query time (the audit hook checks the same
// invariants at the cache's own timestamp; this checks the served values).
void ExpectClassAggregatesMatchNaive(const ResourceManager& rm, double t) {
  for (int c = 0; c < rm.NumClasses(); ++c) {
    const auto& servers = rm.ClassServers(c);
    int naive_cores = 0;
    double naive_util = 0.0;
    for (ServerId s : servers) {
      naive_cores += rm.node(s).AvailableForSecondary(t).cores;
      naive_util += rm.node(s).server().PrimaryUtilizationAt(t);
    }
    EXPECT_EQ(rm.ClassAvailableCores(c, t), naive_cores) << "class " << c << " at t=" << t;
    if (!servers.empty()) {
      // Bits: the served mean reads each telemetry group's trace once per
      // slot but must add the same per-server terms in the same order.
      naive_util /= static_cast<double>(servers.size());
      EXPECT_EQ(std::bit_cast<uint64_t>(rm.ClassCurrentUtilization(c, t)),
                std::bit_cast<uint64_t>(naive_util))
          << "class " << c << " at t=" << t;
    }
  }
}

// The fleet averages the co-simulation samples every tick, recomputed as the
// dense ServerId-order sums of per-node TotalUtilization and per-server
// primary utilization. Compared as bits: the production sums hoist the trace
// read per telemetry group, and any regrouping of the float additions would
// show here.
void ExpectAverageUtilizationMatchesDense(const ResourceManager& rm, double t) {
  double sum = 0.0;
  double primary_sum = 0.0;
  for (ServerId s = 0; s < static_cast<ServerId>(rm.num_nodes()); ++s) {
    sum += rm.node(s).TotalUtilization(t);
    primary_sum += rm.node(s).server().PrimaryUtilizationAt(t);
  }
  const double nodes = static_cast<double>(rm.num_nodes());
  EXPECT_EQ(std::bit_cast<uint64_t>(rm.AverageTotalUtilization(t)),
            std::bit_cast<uint64_t>(sum / nodes))
      << "at t=" << t;
  EXPECT_EQ(std::bit_cast<uint64_t>(rm.AveragePrimaryUtilization(t)),
            std::bit_cast<uint64_t>(primary_sum / nodes))
      << "at t=" << t;
}

// Operation mix out of 10 draws: [0, allocate) allocates, [allocate,
// allocate + release) releases, the rest run a reserve sweep.
struct OpMix {
  uint64_t allocate = 5;
  uint64_t release = 3;
};

// A DC-0 fleet whose servers share their tenant's trace, with two server
// shapes mixed in so telemetry groups split on capacity as well as trace.
Cluster BuildSharedTraceCluster(uint64_t seed) {
  Rng build_rng(seed);
  BuildOptions options;
  options.trace_slots = kSlotsPerDay;
  options.reimage_months = 1;
  options.scale = 0.05;
  options.per_server_traces = false;
  options.server_shapes = {{kDefaultServerCapacity, 7.0}, {Resources{16, 48 * 1024}, 1.0}};
  return BuildCluster(DatacenterByName("DC-0"), options, build_rng);
}

// A random request of the oracle's mix: 1-8 containers of a 1- or 2-core
// shape, a task length that sometimes exceeds the forecast-window floor, and
// in H mode a random class subset 70% of the time (empty otherwise).
ContainerRequest RandomRequest(SchedulerMode mode, int job, Rng& op_rng) {
  ContainerRequest request;
  request.job = job;
  request.count = static_cast<int>(op_rng.UniformInt(1, 8));
  request.resources = op_rng.Bernoulli(0.8) ? Resources{1, 2048} : Resources{2, 4096};
  request.task_seconds = op_rng.Uniform(20.0, 300.0);
  if (op_rng.Bernoulli(0.1)) {
    request.task_seconds = op_rng.Uniform(3.5, 6.0) * 3600.0;  // above the window floor
  }
  request.history_aware = mode == SchedulerMode::kHistory;
  if (mode == SchedulerMode::kHistory && op_rng.Bernoulli(0.7)) {
    // A random non-empty subset of distinct classes, in random order.
    std::vector<int> all = {0, 1, 2, 3};
    op_rng.Shuffle(all);
    size_t take = static_cast<size_t>(op_rng.UniformInt(1, 4));
    request.allowed_classes.assign(all.begin(), all.begin() + take);
  }
  return request;
}

// Deterministic 4-class striping: enough classes to exercise labeled
// segments without depending on the clustering service.
void StripeClasses(ResourceManager& rm) {
  std::vector<int> classes(rm.num_nodes());
  for (size_t s = 0; s < classes.size(); ++s) {
    classes[s] = static_cast<int>(s % 4);
  }
  rm.SetServerClasses(std::move(classes));
}

// Drives the randomized operation sequence over `cluster`; `kills`, when
// given, receives the RM's reserve-kill total.
void RunOracleOn(const Cluster& cluster, SchedulerMode mode, uint64_t seed, int shards,
                 OpMix mix, int64_t* kills = nullptr) {
  // Shard count is execution layout: every placement, aggregate, and RNG
  // draw below must be identical to the dense single-shard reference no
  // matter how the accounting is partitioned.
  ResourceManager rm(&cluster, mode, kDefaultReserve, shards);
  if (mode == SchedulerMode::kHistory) {
    StripeClasses(rm);
  }

  Rng op_rng(seed ^ 0x0badc0ffeeULL);  // drives the operation mix
  Rng rng(seed ^ 0x5eedULL);           // the RM's placement stream
  std::vector<Container> live;
  double t = 0.0;
  int allocates = 0;

  for (int op = 0; op < kOperationsPerMode; ++op) {
    // Advance time; roughly half the steps stay inside the current 120 s
    // telemetry slot, the rest cross one or more slot boundaries.
    t += op_rng.Uniform(0.0, 250.0);
    const uint64_t kind = op_rng.NextBounded(10);
    if (kind < mix.allocate || live.empty()) {
      const ContainerRequest request = RandomRequest(mode, op, op_rng);
      Rng reference_rng = rng;  // copy: the reference must not advance the real stream
      std::vector<ServerId> expected = ReferencePlacements(rm, request, t, reference_rng);
      std::vector<Container> placed = rm.Allocate(request, t, rng);
      ASSERT_EQ(placed.size(), expected.size()) << "op " << op;
      for (size_t i = 0; i < placed.size(); ++i) {
        EXPECT_EQ(placed[i].server, expected[i]) << "op " << op << " placement " << i;
      }
      // Both paths must have consumed the RNG stream identically.
      EXPECT_EQ(rng.Next(), reference_rng.Next()) << "RNG streams diverged at op " << op;
      live.insert(live.end(), placed.begin(), placed.end());
      ++allocates;
    } else if (kind < mix.allocate + mix.release) {
      size_t idx = static_cast<size_t>(op_rng.NextBounded(live.size()));
      rm.Release(live[idx]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      std::vector<Container> killed = rm.EnforceReserves(t);
      for (const Container& container : killed) {
        live.erase(std::remove_if(live.begin(), live.end(),
                                  [&container](const Container& c) {
                                    return c.id == container.id;
                                  }),
                   live.end());
      }
    }

    std::string error;
    ASSERT_TRUE(rm.AuditCachesForTest(&error)) << "op " << op << ": " << error;
    ExpectClassAggregatesMatchNaive(rm, t);
    ExpectAverageUtilizationMatchesDense(rm, t);
  }
  // The mix actually exercised the hot path.
  EXPECT_GT(allocates, kOperationsPerMode / 4);
  EXPECT_GE(kOperationsPerMode, 1000);
  if (kills != nullptr) {
    *kills = rm.total_kills();
  }
}

void RunOracle(SchedulerMode mode, uint64_t seed, int shards) {
  Rng build_rng(seed);
  Cluster cluster = BuildTestbedCluster(48, kSlotsPerDay, build_rng);
  RunOracleOn(cluster, mode, seed, shards, OpMix{});
}

// The H-mode forecast refresh is a sliding-window maximum (one monotonic
// deque per trace) instead of the historical O(servers x window) rescan per
// slot. AuditCachesForTest recomputes every node's forecast with the naive
// per-sample scan (NodeManager::ForecastPrimaryCores) at the cached slot, so
// this drives the window through every transition shape -- sub-slot steps,
// single-slot advances, multi-slot jumps, jumps past the whole window, and
// window-size (sample-count) switches -- and asserts exact equivalence.
TEST(RmOracleTest, SlidingWindowForecastMatchesNaiveScanAcrossJumpsAndWindows) {
  Rng build_rng(7);
  Cluster cluster = BuildTestbedCluster(24, kSlotsPerDay, build_rng);
  ResourceManager rm(&cluster, SchedulerMode::kHistory, kDefaultReserve, /*shards=*/3);
  Rng rng(99);
  const double steps[] = {30.0,    120.0,   360.0,  5000.0, 45000.0,
                          130000.0, 50.0,   240.0,  11.0,   86400.0};
  double t = 0.0;
  for (int op = 0; op < 60; ++op) {
    t += steps[static_cast<size_t>(op) % (sizeof(steps) / sizeof(steps[0]))];
    ContainerRequest request;
    request.job = op;
    request.count = 1;
    request.resources = Resources{1, 2048};
    // Alternate forecast windows: the 3 h floor and a 5.5 h long-task
    // window, so the deque is rebuilt on sample-count changes too.
    request.task_seconds = (op % 3 == 0) ? 5.5 * 3600.0 : 60.0;
    request.history_aware = true;
    rm.Allocate(request, t, rng);
    std::string error;
    ASSERT_TRUE(rm.AuditCachesForTest(&error)) << "op " << op << " t=" << t << ": " << error;
  }
}

// Each mode runs the full oracle at shard counts 1, 3 and 8 (ISSUE 6): the
// dense reference never shards, so any byte of divergence in placements,
// aggregates, or RNG stream position pins a sharding bug.
TEST(RmOracleTest, IncrementalAccountingMatchesFullRescanPtMode) {
  for (int shards : {1, 3, 8}) {
    RunOracle(SchedulerMode::kPrimaryAware, 101, shards);
  }
}

TEST(RmOracleTest, IncrementalAccountingMatchesFullRescanHistoryMode) {
  for (int shards : {1, 3, 8}) {
    RunOracle(SchedulerMode::kHistory, 202, shards);
  }
}

TEST(RmOracleTest, StockModeStaysConsistentToo) {
  for (int shards : {1, 3, 8}) {
    RunOracle(SchedulerMode::kStock, 303, shards);
  }
}

// Shared traces are where AverageTotalUtilization's per-group trace read
// actually spans many servers, and a kill-heavy mix (four reserve sweeps in
// ten operations) churns the active-server bitmap that EnforceReserves
// walks; the per-op audit checks both.
TEST(RmOracleTest, SharedTraceFleetUnderKillHeavyMix) {
  const Cluster cluster = BuildSharedTraceCluster(404);
  const FleetTable table(cluster);
  ASSERT_LT(table.num_groups(), static_cast<int>(cluster.num_servers()))
      << "the fleet must have multi-server telemetry groups";
  for (SchedulerMode mode : {SchedulerMode::kPrimaryAware, SchedulerMode::kHistory}) {
    for (int shards : {1, 3}) {
      int64_t kills = 0;
      RunOracleOn(cluster, mode, 404, shards, OpMix{5, 1}, &kills);
      EXPECT_GT(kills, 0) << "the mix must actually kill containers";
    }
  }
}

// Sampler `a` equals sampler `b`, element for element.
void ExpectSamePicker(const ShardedPicker& a, const ShardedPicker& b, const std::string& where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  ASSERT_EQ(a.Total(), b.Total()) << where;
  for (size_t i = 1; i <= a.size(); ++i) {
    ASSERT_EQ(a.PrefixSum(i), b.PrefixSum(i)) << where << " prefix " << i;
  }
}

// The samplers are built lazily: each slot rebuild or profile switch marks
// them stale, a draw builds the ones it reads, and ResyncNode updates only
// built ones. Two RMs take the same operations and RNG streams. `eager`
// builds every stale sampler after every operation, so from then on its
// samplers are only updated in place; `lazy` builds one only when a draw
// reads it. Every third operation force-builds lazy's stale samplers -- in
// the middle of a slot, or after a profile switch -- and each must equal
// eager's incrementally updated one; placements, kills and RNG use must
// match throughout, and both RMs must pass the audit.
TEST(RmOracleTest, LazySamplersMatchEagerlyBuiltOnes) {
  const Cluster cluster = BuildSharedTraceCluster(505);
  for (SchedulerMode mode : {SchedulerMode::kPrimaryAware, SchedulerMode::kHistory}) {
    const std::string mode_name = SchedulerModeName(mode);
    ResourceManager lazy(&cluster, mode, kDefaultReserve, /*shards=*/3);
    ResourceManager eager(&cluster, mode, kDefaultReserve, /*shards=*/3);
    if (mode == SchedulerMode::kHistory) {
      StripeClasses(lazy);
      StripeClasses(eager);
    }
    Rng op_rng(505);
    Rng lazy_rng(77);
    Rng eager_rng(77);
    std::vector<Container> live;
    double t = 0.0;
    int64_t rm_slot = -1;      // slot of the last call that refreshed the caches
    int64_t profile_key = -1;  // shape and forecast samples of the last request
    bool after_profile_switch = false;  // vs. after a slot change
    int last_rebuild_op = -1;
    int mid_slot_builds = 0;
    int profile_switch_builds = 0;
    for (int op = 0; op < 900; ++op) {
      t += op_rng.Uniform(0.0, 60.0);  // about half the ops stay in their slot
      const int64_t slot = static_cast<int64_t>(std::floor(t / kSlotSeconds));
      const uint64_t kind = op_rng.NextBounded(10);
      const std::string at = mode_name + " op " + std::to_string(op);
      if (kind < 5 || live.empty()) {
        const ContainerRequest request = RandomRequest(mode, op, op_rng);
        const int samples =
            request.history_aware
                ? NodeManager::ForecastSampleCount(
                      std::max(request.task_seconds, kMinForecastWindowSeconds))
                : 0;
        const int64_t key = request.resources.cores * 1000 + samples;
        if (slot != rm_slot || key != profile_key) {
          after_profile_switch = slot == rm_slot;
          last_rebuild_op = op;
        }
        rm_slot = slot;
        profile_key = key;
        const std::vector<Container> placed = lazy.Allocate(request, t, lazy_rng);
        const std::vector<Container> twin = eager.Allocate(request, t, eager_rng);
        ASSERT_EQ(placed.size(), twin.size()) << at;
        for (size_t i = 0; i < placed.size(); ++i) {
          ASSERT_EQ(placed[i].server, twin[i].server) << at << " placement " << i;
          ASSERT_EQ(placed[i].id, twin[i].id) << at;
        }
        ASSERT_EQ(lazy_rng.Next(), eager_rng.Next()) << at << ": RNG streams diverged";
        live.insert(live.end(), placed.begin(), placed.end());
      } else if (kind < 8) {
        const size_t idx = static_cast<size_t>(op_rng.NextBounded(live.size()));
        lazy.Release(live[idx]);
        eager.Release(live[idx]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      } else {
        if (slot != rm_slot) {
          after_profile_switch = false;
          last_rebuild_op = op;
        }
        rm_slot = slot;
        const std::vector<Container> killed = lazy.EnforceReserves(t);
        const std::vector<Container> twin = eager.EnforceReserves(t);
        ASSERT_EQ(killed.size(), twin.size()) << at;
        for (size_t i = 0; i < killed.size(); ++i) {
          ASSERT_EQ(killed[i].id, twin[i].id) << at;
          live.erase(std::remove_if(live.begin(), live.end(),
                                    [&killed, i](const Container& c) {
                                      return c.id == killed[i].id;
                                    }),
                     live.end());
        }
      }
      eager.BuildStalePickersForTest();
      if (op % 3 == 2) {
        bool any_stale = false;
        for (int c = -1; c < lazy.NumClasses(); ++c) {
          any_stale = any_stale || lazy.BuiltPickerForTest(c) == nullptr;
        }
        lazy.BuildStalePickersForTest();
        for (int c = -1; c < lazy.NumClasses(); ++c) {
          const ShardedPicker* built = lazy.BuiltPickerForTest(c);
          const ShardedPicker* twin = eager.BuiltPickerForTest(c);
          ASSERT_NE(built, nullptr) << at << " sampler " << c;
          ASSERT_NE(twin, nullptr) << at << " sampler " << c;
          ExpectSamePicker(*built, *twin, at + " sampler " + std::to_string(c));
        }
        // Count the comparisons where eager's sampler had been updated in
        // place since its build and lazy's was built fresh just now.
        if (any_stale && op > last_rebuild_op) {
          ++(after_profile_switch ? profile_switch_builds : mid_slot_builds);
        }
      }
      std::string error;
      ASSERT_TRUE(lazy.AuditCachesForTest(&error)) << at << ": " << error;
      ASSERT_TRUE(eager.AuditCachesForTest(&error)) << at << " (eager): " << error;
    }
    EXPECT_GT(mid_slot_builds, 0) << mode_name;
    EXPECT_GT(profile_switch_builds, 0) << mode_name;
  }
}

}  // namespace
}  // namespace harvest
