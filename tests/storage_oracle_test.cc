// Oracle for the storage co-simulation's incremental NameNode accounting
// (the storage mirror of tests/rm_oracle_test.cc): drives randomized
// create / reimage / access / heal sequences over advancing simulation time
// and, after every operation, audits every incremental quantity -- the exact
// per-server replica indexes, the loss and
// under-replication running aggregates, the in-flight heal counts -- against
// a dense full rescan of the authoritative block map
// (NameNode::AuditStateForTest).
//
// A second suite proves the event-driven replay itself: RunStorageCosim
// (a time-ordered cursor per timeline stream) must produce results exactly
// equal to a dense reference that replays the same shared timeline in a
// plain sorted loop with the same seeds, with full-rescan audits along the
// way. Runs >= 1000 operations per placement kind (ISSUE 4 acceptance).

#include "src/experiments/storage_cosim.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "src/cluster/datacenter.h"
#include "src/storage/name_node.h"
#include "src/trace/reimage.h"
#include "src/util/rng.h"

namespace harvest {
namespace {

constexpr int kOperationsPerKind = 1200;

// A small DC-9-profile fleet with real reimage schedules (the testbed
// builder does not materialize them).
Cluster BuildOracleCluster(double scale, uint64_t seed) {
  Rng build_rng(seed);
  BuildOptions options;
  options.trace_slots = kSlotsPerDay;
  options.reimage_months = 12;
  options.scale = scale;
  options.per_server_traces = false;
  return BuildCluster(DatacenterByName("DC-9"), options, build_rng);
}

// Everything RNG-dependent one oracle run produced: final stats plus the
// exact replica list of every block. Two runs with equal outcomes consumed
// their policy stream identically (every placement draw is visible in the
// replica lists).
struct OracleOutcome {
  StorageStats stats;
  int64_t under_replicated = 0;
  std::vector<std::vector<ServerId>> replicas;

  bool operator==(const OracleOutcome& other) const {
    return stats.blocks_created == other.stats.blocks_created &&
           stats.blocks_lost == other.stats.blocks_lost &&
           stats.replicas_destroyed == other.stats.replicas_destroyed &&
           stats.rereplications_completed == other.stats.rereplications_completed &&
           stats.accesses == other.stats.accesses &&
           stats.failed_accesses == other.stats.failed_accesses &&
           stats.interfering_accesses == other.stats.interfering_accesses &&
           under_replicated == other.under_replicated && replicas == other.replicas;
  }
};

OracleOutcome RunAccountingOracle(PlacementKind kind, uint64_t seed, int shards,
                                  int replication = 3) {
  Cluster cluster = BuildOracleCluster(0.3, seed);
  NameNodeOptions options;
  options.replication = replication;
  options.shards = shards;
  Rng policy_rng(seed ^ 0x5eedULL);
  NameNode nn(&cluster, MakePlacementPolicy(kind, &cluster), options, &policy_rng);

  Rng op_rng(seed ^ 0x0badc0ffeeULL);
  double t = 0.0;
  int64_t creates = 0;
  int64_t reimages = 0;
  for (int op = 0; op < kOperationsPerKind; ++op) {
    // Advance time: mostly small steps, occasionally days (so heals queued
    // behind the 120 s/block throttle actually complete mid-sequence).
    t += op_rng.Bernoulli(0.1) ? op_rng.Uniform(0.0, 5.0 * 86400.0)
                               : op_rng.Uniform(0.0, 1800.0);
    const uint64_t what = op_rng.NextBounded(10);
    if (what < 4 || nn.num_blocks() == 0) {
      ServerId writer = static_cast<ServerId>(op_rng.NextBounded(cluster.num_servers()));
      nn.CreateBlock(writer, t);
      ++creates;
    } else if (what < 7) {
      ServerId victim = static_cast<ServerId>(op_rng.NextBounded(cluster.num_servers()));
      nn.OnReimage(victim, t);
      ++reimages;
    } else if (what < 9) {
      BlockId block = static_cast<BlockId>(
          op_rng.NextBounded(static_cast<uint64_t>(nn.num_blocks())));
      nn.ProcessRereplication(t);
      AccessResult result = nn.Access(block, t);
      // Re-derive the access outcome densely from the replica list.
      const auto& replicas = nn.ReplicaServers(block);
      if (nn.Lost(block) || replicas.empty()) {
        EXPECT_EQ(result, AccessResult::kMissing) << "op " << op;
      } else {
        bool any_free = false;
        for (ServerId s : replicas) {
          any_free = any_free || !nn.data_node(s).Busy(t);
        }
        EXPECT_EQ(result, any_free ? AccessResult::kServed : AccessResult::kFailed)
            << "op " << op;
      }
    } else {
      nn.ProcessRereplication(t);
    }

    std::string error;
    const bool audit_ok = nn.AuditStateForTest(&error);
    EXPECT_TRUE(audit_ok) << PlacementKindName(kind) << " op " << op << ": " << error;
    if (!audit_ok) {
      return OracleOutcome{};  // stop at the first desync (ASSERT needs void)
    }
  }
  // The mix actually exercised the hot paths.
  EXPECT_GT(creates, kOperationsPerKind / 5);
  EXPECT_GT(reimages, kOperationsPerKind / 8);
  EXPECT_GT(nn.stats().replicas_destroyed, 0);
  int full_blocks = 0;
  for (BlockId b = 0; b < nn.num_blocks(); ++b) {
    full_blocks += nn.LiveReplicas(b) == replication ? 1 : 0;
  }
  EXPECT_GT(full_blocks, 0) << "no block fills its " << replication << "-slot stride";
  if (replication > 1) {  // a lone replica's wipe loses its block: nothing heals
    EXPECT_GT(nn.stats().rereplications_completed, 0);
  }
  EXPECT_GE(kOperationsPerKind, 1000);

  OracleOutcome outcome;
  outcome.stats = nn.stats();
  outcome.under_replicated = nn.UnderReplicatedBlocks();
  outcome.replicas.reserve(static_cast<size_t>(nn.num_blocks()));
  for (BlockId b = 0; b < nn.num_blocks(); ++b) {
    const std::span<const ServerId> replicas = nn.ReplicaServers(b);
    outcome.replicas.emplace_back(replicas.begin(), replicas.end());
  }
  return outcome;
}

// Runs the randomized sequence at shard counts {1, 3, 8} and requires the
// sharded runs to match the dense single-shard reference exactly --
// placements, aggregates, and (via the replica lists) the consumed RNG
// stream. Shard count is execution layout; it must never change a result.
void RunShardedAccountingOracle(PlacementKind kind, uint64_t seed, int replication = 3) {
  const OracleOutcome reference = RunAccountingOracle(kind, seed, /*shards=*/1, replication);
  for (int shards : {3, 8}) {
    const OracleOutcome sharded = RunAccountingOracle(kind, seed, shards, replication);
    EXPECT_TRUE(sharded == reference) << PlacementKindName(kind) << " at replication "
                                      << replication << " diverged at " << shards
                                      << " shards";
  }
}

TEST(StorageOracleTest, IncrementalAccountingMatchesDenseRescanStock) {
  RunShardedAccountingOracle(PlacementKind::kStock, 101);
}

TEST(StorageOracleTest, IncrementalAccountingMatchesDenseRescanHistory) {
  RunShardedAccountingOracle(PlacementKind::kHistory, 202);
}

TEST(StorageOracleTest, IncrementalAccountingMatchesDenseRescanRandom) {
  RunShardedAccountingOracle(PlacementKind::kRandom, 303);
}

TEST(StorageOracleTest, IncrementalAccountingMatchesDenseRescanGreedy) {
  RunShardedAccountingOracle(PlacementKind::kGreedy, 404);
}

TEST(StorageOracleTest, IncrementalAccountingMatchesDenseRescanSoft) {
  RunShardedAccountingOracle(PlacementKind::kSoft, 505);
}

// Stride edges: a block's replicas live in a fixed slot of `replication`
// entries, so audit the smallest and largest strides the `replications`
// knob allows ([1, 16]) and the paper's other setting, 4, for every kind.
void RunStrideEdgeOracle(int replication) {
  for (PlacementKind kind : AllPlacementKinds()) {
    RunShardedAccountingOracle(kind, 800 + static_cast<uint64_t>(replication), replication);
  }
}

TEST(StorageOracleTest, IncrementalAccountingMatchesDenseRescanAtReplication1) {
  RunStrideEdgeOracle(1);
}

TEST(StorageOracleTest, IncrementalAccountingMatchesDenseRescanAtReplication4) {
  RunStrideEdgeOracle(4);
}

TEST(StorageOracleTest, IncrementalAccountingMatchesDenseRescanAtReplication16) {
  RunStrideEdgeOracle(16);
}

// Correlated-failure oracle (ISSUE 8): the same audit discipline under
// whole-rack kills, ToR partition toggles, and heal-storm backpressure.
// Every bulk event (a rack's servers all reimaged at one instant) is
// followed by a full dense rescan, and the sharded runs must still match
// the single-shard reference exactly -- the k-way merge over per-shard heal
// lanes is execution layout, never outcome.
OracleOutcome RunRackKillOracle(PlacementKind kind, uint64_t seed, int shards) {
  Cluster cluster = BuildOracleCluster(0.3, seed);
  std::vector<std::vector<ServerId>> rack_servers;
  for (const Server& server : cluster.servers()) {
    const size_t rack = static_cast<size_t>(server.rack);
    if (rack_servers.size() <= rack) {
      rack_servers.resize(rack + 1);
    }
    rack_servers[rack].push_back(server.id);
  }

  NameNodeOptions options;
  options.replication = 3;
  options.shards = shards;
  options.max_inflight_heals_per_shard = 4;
  options.heal_backoff_base_seconds = 600.0;
  options.heal_backoff_max_seconds = 7200.0;
  Rng policy_rng(seed ^ 0x5eedULL);
  NameNode nn(&cluster, MakePlacementPolicy(kind, &cluster), options, &policy_rng);

  Rng op_rng(seed ^ 0xfa17c0de5ULL);
  std::vector<bool> partitioned(rack_servers.size(), false);
  double t = 0.0;
  int64_t rack_kills = 0;
  int64_t partition_flips = 0;
  for (int op = 0; op < kOperationsPerKind; ++op) {
    t += op_rng.Bernoulli(0.1) ? op_rng.Uniform(0.0, 5.0 * 86400.0)
                               : op_rng.Uniform(0.0, 1800.0);
    const uint64_t what = op_rng.NextBounded(10);
    if (what < 3 || nn.num_blocks() == 0) {
      ServerId writer = static_cast<ServerId>(op_rng.NextBounded(cluster.num_servers()));
      nn.CreateBlock(writer, t);
    } else if (what < 5) {
      // Whole-rack kill: every server in one rack reimages at the same
      // instant -- the correlated bulk event the incremental aggregates and
      // per-shard heal lanes must absorb without desyncing.
      const size_t rack = static_cast<size_t>(
          op_rng.NextBounded(static_cast<uint64_t>(rack_servers.size())));
      for (ServerId victim : rack_servers[rack]) {
        nn.OnReimage(victim, t);
      }
      ++rack_kills;
    } else if (what < 7) {
      const size_t rack = static_cast<size_t>(
          op_rng.NextBounded(static_cast<uint64_t>(rack_servers.size())));
      partitioned[rack] = !partitioned[rack];
      nn.SetRackPartitioned(static_cast<RackId>(rack), partitioned[rack], t);
      ++partition_flips;
    } else if (what < 9) {
      BlockId block = static_cast<BlockId>(
          op_rng.NextBounded(static_cast<uint64_t>(nn.num_blocks())));
      nn.ProcessRereplication(t);
      nn.Access(block, t);
    } else {
      nn.ProcessRereplication(t);
    }

    std::string error;
    const bool audit_ok = nn.AuditStateForTest(&error);
    EXPECT_TRUE(audit_ok) << PlacementKindName(kind) << " op " << op << ": " << error;
    if (!audit_ok) {
      return OracleOutcome{};
    }
  }
  EXPECT_GT(rack_kills, kOperationsPerKind / 10);
  EXPECT_GT(partition_flips, kOperationsPerKind / 10);
  EXPECT_GT(nn.stats().replicas_destroyed, 0);
  EXPECT_GT(nn.heal_backlog_peak(), 0);

  OracleOutcome outcome;
  outcome.stats = nn.stats();
  outcome.under_replicated = nn.UnderReplicatedBlocks();
  outcome.replicas.reserve(static_cast<size_t>(nn.num_blocks()));
  for (BlockId b = 0; b < nn.num_blocks(); ++b) {
    const std::span<const ServerId> replicas = nn.ReplicaServers(b);
    outcome.replicas.emplace_back(replicas.begin(), replicas.end());
  }
  return outcome;
}

void RunShardedRackKillOracle(PlacementKind kind, uint64_t seed) {
  const OracleOutcome reference = RunRackKillOracle(kind, seed, /*shards=*/1);
  for (int shards : {3, 8}) {
    const OracleOutcome sharded = RunRackKillOracle(kind, seed, shards);
    EXPECT_TRUE(sharded == reference)
        << PlacementKindName(kind) << " diverged at " << shards << " shards";
  }
}

TEST(StorageOracleTest, RackKillOracleMatchesDenseRescanStock) {
  RunShardedRackKillOracle(PlacementKind::kStock, 606);
}

TEST(StorageOracleTest, RackKillOracleMatchesDenseRescanHistory) {
  RunShardedRackKillOracle(PlacementKind::kHistory, 707);
}

// Dense reference for the event-driven replay: the same shared timeline,
// replayed in a plain sorted two-cursor loop (time order, reimage before
// access on ties -- the co-sim's documented ordering contract) against a
// NameNode built from the same seeds, with a full-rescan audit every few
// events.
StorageCosimResult DenseReferenceReplay(const Cluster& cluster,
                                        const StorageTimeline& timeline,
                                        const StorageCosimOptions& options) {
  Rng writer_rng(options.writer_seed);
  Rng policy_rng(options.policy_seed);
  NameNodeOptions nn_options;
  nn_options.replication = options.replication;
  nn_options.primary_aware_access = options.primary_aware_access;
  nn_options.detection_delay_seconds = options.detection_delay_seconds;
  nn_options.rereplication_blocks_per_hour = options.rereplication_blocks_per_hour;
  NameNode nn(&cluster, MakePlacementPolicy(options.placement, &cluster), nn_options,
              &policy_rng);
  for (int64_t b = 0; b < options.num_blocks; ++b) {
    ServerId writer = static_cast<ServerId>(writer_rng.NextBounded(cluster.num_servers()));
    nn.CreateBlock(writer, 0.0);
  }
  const uint64_t live_blocks = static_cast<uint64_t>(nn.num_blocks());

  StorageCosimResult result;
  size_t r = 0;
  size_t a = 0;
  size_t processed = 0;
  while (r < timeline.reimages.size() || a < timeline.accesses.size()) {
    const bool reimage_first =
        r < timeline.reimages.size() &&
        (a >= timeline.accesses.size() ||
         timeline.reimages[r].first <= timeline.accesses[a].time_seconds);
    if (reimage_first) {
      nn.OnReimage(timeline.reimages[r].second, timeline.reimages[r].first);
      ++result.reimage_events;
      ++r;
    } else {
      if (live_blocks > 0) {
        nn.ProcessRereplication(timeline.accesses[a].time_seconds);
        nn.Access(static_cast<BlockId>(timeline.accesses[a].block_draw % live_blocks),
                  timeline.accesses[a].time_seconds);
      }
      ++a;
    }
    if (++processed % 64 == 0) {
      std::string error;
      EXPECT_TRUE(nn.AuditStateForTest(&error)) << "event " << processed << ": " << error;
    }
  }
  nn.ProcessRereplication(timeline.horizon_seconds + 30.0 * 24.0 * 3600.0);
  result.stats = nn.stats();
  result.lost_percent = 100.0 * result.stats.LossFraction();
  result.failed_access_percent = 100.0 * result.stats.FailedAccessFraction();
  result.under_replicated_blocks = nn.UnderReplicatedBlocks();
  return result;
}

void ExpectResultsEqual(const StorageCosimResult& event_driven,
                        const StorageCosimResult& dense, const char* label) {
  EXPECT_EQ(event_driven.stats.blocks_created, dense.stats.blocks_created) << label;
  EXPECT_EQ(event_driven.stats.blocks_lost, dense.stats.blocks_lost) << label;
  EXPECT_EQ(event_driven.stats.replicas_destroyed, dense.stats.replicas_destroyed) << label;
  EXPECT_EQ(event_driven.stats.rereplications_completed,
            dense.stats.rereplications_completed)
      << label;
  EXPECT_EQ(event_driven.stats.accesses, dense.stats.accesses) << label;
  EXPECT_EQ(event_driven.stats.failed_accesses, dense.stats.failed_accesses) << label;
  EXPECT_EQ(event_driven.stats.interfering_accesses, dense.stats.interfering_accesses)
      << label;
  EXPECT_EQ(event_driven.under_replicated_blocks, dense.under_replicated_blocks) << label;
  EXPECT_EQ(event_driven.reimage_events, dense.reimage_events) << label;
  EXPECT_DOUBLE_EQ(event_driven.lost_percent, dense.lost_percent) << label;
  EXPECT_DOUBLE_EQ(event_driven.failed_access_percent, dense.failed_access_percent) << label;
}

TEST(StorageCosimTest, EventDrivenReplayMatchesDenseReferenceForEveryKind) {
  Cluster cluster = BuildOracleCluster(0.3, 9);
  StorageTimelineOptions timeline_options;
  timeline_options.reimage_horizon_seconds = 6.0 * kSecondsPerMonth;
  timeline_options.access_rate_per_hour = 25.0;  // reads riding the reimage timeline
  timeline_options.access_seed = 77;
  StorageTimeline timeline = BuildStorageTimeline(cluster, timeline_options);
  ASSERT_GT(timeline.reimages.size(), 0u);
  ASSERT_GT(timeline.accesses.size(), 1000u);

  for (PlacementKind kind : AllPlacementKinds()) {
    StorageCosimOptions options;
    options.placement = kind;
    options.replication = 3;
    options.num_blocks = 3000;
    options.writer_seed = 11;
    options.policy_seed = DerivedStreamSeed(11, PlacementKindName(kind));
    // The dense reference always runs single-shard; the event-driven replay
    // must match it at every shard count.
    options.nn_shards = 1;
    StorageCosimResult dense = DenseReferenceReplay(cluster, timeline, options);
    for (int shards : {1, 3, 8}) {
      options.nn_shards = shards;
      StorageCosimResult event_driven = RunStorageCosim(cluster, timeline, options);
      ExpectResultsEqual(event_driven, dense, PlacementKindName(kind));
      // The timeline did real damage and the namespace was populated.
      EXPECT_EQ(event_driven.stats.blocks_created, 3000);
      EXPECT_GT(event_driven.stats.replicas_destroyed, 0) << PlacementKindName(kind);
      EXPECT_GT(event_driven.stats.accesses, 0) << PlacementKindName(kind);
    }
  }
}

TEST(StorageCosimTest, WriterStreamIsSharedAcrossKindsAndPolicyStreamIsNot) {
  Cluster cluster = BuildOracleCluster(0.25, 21);
  StorageTimelineOptions timeline_options;
  timeline_options.reimage_horizon_seconds = 3.0 * kSecondsPerMonth;
  timeline_options.access_rate_per_hour = 10.0;
  timeline_options.access_seed = 5;
  StorageTimeline timeline = BuildStorageTimeline(cluster, timeline_options);

  StorageCosimOptions stock;
  stock.placement = PlacementKind::kStock;
  stock.num_blocks = 2000;
  stock.writer_seed = 31;
  stock.policy_seed = 100;
  StorageCosimOptions history = stock;
  history.placement = PlacementKind::kHistory;
  history.policy_seed = 200;

  StorageCosimResult a = RunStorageCosim(cluster, timeline, stock);
  StorageCosimResult b = RunStorageCosim(cluster, timeline, history);
  // Paired comparison: identical write workload, identical reimage schedule,
  // identical access schedule -- every cell sees the same events.
  EXPECT_EQ(a.stats.blocks_created, b.stats.blocks_created);
  EXPECT_EQ(a.stats.accesses, b.stats.accesses);
  EXPECT_EQ(a.reimage_events, b.reimage_events);
  // And the replay is deterministic: same options -> identical outcome.
  StorageCosimResult a2 = RunStorageCosim(cluster, timeline, stock);
  ExpectResultsEqual(a, a2, "repeat");
}

}  // namespace
}  // namespace harvest
