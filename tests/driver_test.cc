#include "src/driver/pipeline.h"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "src/driver/json_writer.h"
#include "src/driver/registry.h"
#include "src/driver/result_json.h"
#include "src/driver/scenario.h"
#include "src/driver/stage.h"
#include "src/trace/trace_io.h"

namespace harvest {
namespace {

TEST(JsonWriterTest, ObjectsArraysAndScalars) {
  JsonWriter json;
  json.BeginObject();
  json.Field("name", "dc");
  json.Field("servers", 102);
  json.Field("ratio", 0.5);
  json.Field("flag", true);
  json.Key("list").BeginArray().Value(1).Value(2).EndArray();
  json.Key("empty").BeginObject().EndObject();
  json.EndObject();
  EXPECT_EQ(json.TakeString(),
            "{\n"
            "  \"name\": \"dc\",\n"
            "  \"servers\": 102,\n"
            "  \"ratio\": 0.5,\n"
            "  \"flag\": true,\n"
            "  \"list\": [\n"
            "    1,\n"
            "    2\n"
            "  ],\n"
            "  \"empty\": {}\n"
            "}\n");
}

TEST(JsonWriterTest, EscapesStringsAndRejectsNonFinite) {
  JsonWriter json;
  json.BeginObject();
  json.Field("text", "a\"b\\c\nd");
  json.Field("bad", std::numeric_limits<double>::quiet_NaN());
  json.EndObject();
  std::string out = json.TakeString();
  EXPECT_NE(out.find("\"a\\\"b\\\\c\\nd\""), std::string::npos);
  EXPECT_NE(out.find("\"bad\": null"), std::string::npos);
}

TEST(JsonWriterTest, DoubleFormattingIsStable) {
  JsonWriter json;
  json.BeginArray();
  json.Value(1.0 / 3.0);
  json.Value(1e-9);
  json.Value(123456789.0);
  json.EndArray();
  EXPECT_EQ(json.TakeString(),
            "[\n"
            "  0.333333333333,\n"
            "  1e-09,\n"
            "  123456789\n"
            "]\n");
}

TEST(ScenarioTest, PresetsExistWithUniqueNames) {
  const auto& scenarios = AllScenarios();
  ASSERT_GE(scenarios.size(), 7u);
  for (size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_FALSE(scenarios[i].name.empty());
    EXPECT_FALSE(scenarios[i].description.empty());
    for (size_t j = i + 1; j < scenarios.size(); ++j) {
      EXPECT_NE(scenarios[i].name, scenarios[j].name);
    }
  }
  EXPECT_NE(FindScenario("dc9_testbed"), nullptr);
  EXPECT_NE(FindScenario("fleet_sweep"), nullptr);
  EXPECT_NE(FindScenario("reimage_storm"), nullptr);
  EXPECT_NE(FindScenario("hetero_shapes"), nullptr);
  EXPECT_NE(FindScenario("week_horizon"), nullptr);
  EXPECT_NE(FindScenario("storm_under_load"), nullptr);
  EXPECT_NE(FindScenario("storage_stress"), nullptr);
  EXPECT_NE(FindScenario("replay_regression"), nullptr);
  EXPECT_EQ(FindScenario("no_such_scenario"), nullptr);
}

TEST(ScenarioTest, NewPresetsCoverTheRoadmapAxes) {
  const ScenarioConfig* hetero = FindScenario("hetero_shapes");
  ASSERT_NE(hetero, nullptr);
  EXPECT_GE(hetero->server_shapes.size(), 2u);

  const ScenarioConfig* week = FindScenario("week_horizon");
  ASSERT_NE(week, nullptr);
  EXPECT_GE(week->trace_slots, kSlotsPerDay * 7);

  const ScenarioConfig* storm = FindScenario("storm_under_load");
  ASSERT_NE(storm, nullptr);
  EXPECT_TRUE(storm->reimage_storm);
  EXPECT_TRUE(storm->run_scheduling);

  const ScenarioConfig* stress = FindScenario("storage_stress");
  ASSERT_NE(stress, nullptr);
  EXPECT_TRUE(stress->reimage_storm);
  EXPECT_GT(stress->access_rate, 0.0);
  EXPECT_EQ(stress->placement_kinds.size(), 5u);
  EXPECT_GE(stress->replications.size(), 2u);
  EXPECT_TRUE(stress->run_availability);
}

TEST(ScenarioTest, ScalingClampsToWellFormedFloors) {
  const ScenarioConfig* testbed = FindScenario("dc9_testbed");
  ASSERT_NE(testbed, nullptr);
  ScenarioConfig tiny = ScaledScenario(*testbed, 1e-6);
  EXPECT_GE(tiny.testbed_servers, 42);
  EXPECT_GE(tiny.storage_blocks, 1000);
  EXPECT_GE(tiny.availability_blocks, 1000);
  EXPECT_GE(tiny.availability_accesses, 5000);
  EXPECT_GE(tiny.placement_sample_blocks, 100);

  ScenarioConfig same = ScaledScenario(*testbed, 1.0);
  EXPECT_EQ(same.testbed_servers, testbed->testbed_servers);
  EXPECT_EQ(same.storage_blocks, testbed->storage_blocks);
}

TEST(ScenarioRegistryTest, RejectsDuplicateAndUnnamedRegistrations) {
  ScenarioRegistry registry;
  ScenarioConfig config;
  config.name = "my_scenario";
  config.description = "test";
  std::string error;
  EXPECT_TRUE(registry.Register(config, &error));
  EXPECT_NE(registry.Find("my_scenario"), nullptr);

  EXPECT_FALSE(registry.Register(config, &error));
  EXPECT_NE(error.find("already registered"), std::string::npos);

  ScenarioConfig unnamed;
  EXPECT_FALSE(registry.Register(unnamed, &error));
  EXPECT_NE(error.find("empty"), std::string::npos);

  EXPECT_EQ(registry.Find("other"), nullptr);
  EXPECT_EQ(registry.scenarios().size(), 1u);
}

TEST(ScenarioOverrideTest, SplitsKeyValuePairs) {
  std::string key;
  std::string value;
  std::string error;
  EXPECT_TRUE(SplitOverride("fleet_scale=0.5", &key, &value, &error));
  EXPECT_EQ(key, "fleet_scale");
  EXPECT_EQ(value, "0.5");
  // Values may themselves contain '='; only the first one splits.
  EXPECT_TRUE(SplitOverride("a=b=c", &key, &value, &error));
  EXPECT_EQ(value, "b=c");
  EXPECT_FALSE(SplitOverride("no_equals", &key, &value, &error));
  EXPECT_NE(error.find("key=value"), std::string::npos);
  EXPECT_FALSE(SplitOverride("=value", &key, &value, &error));
}

TEST(ScenarioOverrideTest, RoundTripsEveryKnobKind) {
  ScenarioConfig config = *FindScenario("fleet_sweep");
  std::string error;
  ASSERT_TRUE(ApplyScenarioOverride(config, "fleet_scale", "0.5", &error)) << error;
  EXPECT_DOUBLE_EQ(config.fleet_scale, 0.5);
  ASSERT_TRUE(ApplyScenarioOverride(config, "run_durability", "false", &error)) << error;
  EXPECT_FALSE(config.run_durability);
  ASSERT_TRUE(ApplyScenarioOverride(config, "storage_blocks", "2500", &error)) << error;
  EXPECT_EQ(config.storage_blocks, 2500);
  ASSERT_TRUE(ApplyScenarioOverride(config, "access_rate", "6.5", &error)) << error;
  EXPECT_DOUBLE_EQ(config.access_rate, 6.5);
  ASSERT_TRUE(ApplyScenarioOverride(config, "placement_kinds", "stock,history,soft", &error))
      << error;
  ASSERT_EQ(config.placement_kinds.size(), 3u);
  EXPECT_EQ(config.placement_kinds[2], PlacementKind::kSoft);
  ASSERT_TRUE(ApplyScenarioOverride(config, "datacenters", "DC-1,DC-4", &error)) << error;
  ASSERT_EQ(config.datacenters.size(), 2u);
  EXPECT_EQ(config.datacenters[0], "DC-1");
  ASSERT_TRUE(ApplyScenarioOverride(config, "replications", "3,4", &error)) << error;
  ASSERT_EQ(config.replications.size(), 2u);
  EXPECT_EQ(config.replications[1], 4);
  ASSERT_TRUE(ApplyScenarioOverride(config, "availability_utilizations", "0.25,0.75", &error))
      << error;
  ASSERT_EQ(config.availability_utilizations.size(), 2u);
  EXPECT_DOUBLE_EQ(config.availability_utilizations[1], 0.75);
  ASSERT_TRUE(ApplyScenarioOverride(config, "scheduling_storage", "history", &error)) << error;
  EXPECT_EQ(config.scheduling_storage, StorageVariant::kHistory);
  ASSERT_TRUE(
      ApplyScenarioOverride(config, "server_shapes", "12x32768@0.6,24x65536@0.4", &error))
      << error;
  ASSERT_EQ(config.server_shapes.size(), 2u);
  EXPECT_EQ(config.server_shapes[1].capacity.cores, 24);
  EXPECT_DOUBLE_EQ(config.server_shapes[0].weight, 0.6);
}

TEST(ScenarioOverrideTest, UnknownKeyAndMalformedValueAreUsageErrors) {
  ScenarioConfig config = *FindScenario("dc9_testbed");
  std::string error;
  EXPECT_FALSE(ApplyScenarioOverride(config, "fleet_scael", "0.5", &error));
  EXPECT_NE(error.find("unknown scenario knob"), std::string::npos);
  EXPECT_NE(error.find("fleet_scale"), std::string::npos) << "expected a suggestion: " << error;

  EXPECT_FALSE(ApplyScenarioOverride(config, "fleet_scale", "abc", &error));
  EXPECT_NE(error.find("fleet_scale"), std::string::npos);
  EXPECT_FALSE(ApplyScenarioOverride(config, "fleet_scale", "-1", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "fleet_scale", "0.5x", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "run_durability", "maybe", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "storage_blocks", "12.5", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "datacenters", "DC-11", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "replications", "3,99", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "scheduling_storage", "hdfs", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "server_shapes", "12@0.5", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "storm_fraction", "1.5", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "placement_kinds", "stock,hdfs", &error));
  EXPECT_NE(error.find("placement kind"), std::string::npos);
  EXPECT_FALSE(ApplyScenarioOverride(config, "placement_kinds", "stock,stock", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "placement_kinds", "", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "access_rate", "-1", &error));
  // Out-of-range values must error, not clamp (ERANGE) or truncate (narrowing).
  EXPECT_FALSE(ApplyScenarioOverride(config, "storage_blocks", "99999999999999999999", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "placement_sample_blocks", "4294967296", &error));
  EXPECT_FALSE(ApplyScenarioOverride(config, "elbow_min_gain", "1e999", &error));
}

TEST(ScenarioOverrideTest, UnknownKeyAndBadValueAreDistinctStatuses) {
  // The two failure kinds must be machine-distinguishable, not just
  // different prose: tools branch on "fix the key" vs "fix the value".
  ScenarioConfig config = *FindScenario("fleet_sweep");
  std::string error;
  EXPECT_EQ(ApplyScenarioOverrideStatus(config, "fleet_scale", "0.5", &error),
            OverrideStatus::kOk);
  EXPECT_EQ(ApplyScenarioOverrideStatus(config, "fleet_scael", "0.5", &error),
            OverrideStatus::kUnknownKey);
  EXPECT_NE(error.find("did you mean"), std::string::npos);
  EXPECT_EQ(ApplyScenarioOverrideStatus(config, "fleet_scale", "banana", &error),
            OverrideStatus::kBadValue);
  EXPECT_NE(error.find("fleet_scale"), std::string::npos);
  // String knobs ride the same machinery: empty value = bad value, typo'd
  // key = unknown key with a suggestion.
  EXPECT_EQ(ApplyScenarioOverrideStatus(config, "trace_dir", "", &error),
            OverrideStatus::kBadValue);
  EXPECT_EQ(ApplyScenarioOverrideStatus(config, "trace_dirr", "/tmp/x", &error),
            OverrideStatus::kUnknownKey);
  EXPECT_NE(error.find("trace_dir"), std::string::npos);
  EXPECT_EQ(ApplyScenarioOverrideStatus(config, "trace_dir", "some/dir", &error),
            OverrideStatus::kOk);
  EXPECT_EQ(config.trace_dir, "some/dir");
  // The co-simulation horizon is bounded at one year: a huge horizon is a
  // bad value here, not an out-of-memory abort once the run starts.
  EXPECT_EQ(ApplyScenarioOverrideStatus(config, "scheduling_horizon_seconds", "1e300", &error),
            OverrideStatus::kBadValue);
  EXPECT_NE(error.find("one year"), std::string::npos) << error;
  EXPECT_EQ(
      ApplyScenarioOverrideStatus(config, "scheduling_horizon_seconds", "31536000", &error),
      OverrideStatus::kOk);
  EXPECT_EQ(ApplyScenarioOverrideStatus(config, "scheduling_horizon_seconds", "0", &error),
            OverrideStatus::kBadValue);
}

TEST(ScenarioOverrideTest, ValidateScenarioCatchesCrossKnobConflicts) {
  ScenarioConfig config = *FindScenario("dc9_testbed");
  EXPECT_EQ(ValidateScenario(config), "");
  std::string error;
  ASSERT_TRUE(ApplyScenarioOverride(config, "server_shapes", "48x131072@1", &error)) << error;
  EXPECT_NE(ValidateScenario(config).find("server_shapes"), std::string::npos);

  ScenarioConfig no_dcs = *FindScenario("fleet_sweep");
  no_dcs.datacenters.clear();
  EXPECT_NE(ValidateScenario(no_dcs).find("datacenters"), std::string::npos);
  EXPECT_EQ(ValidateScenario(*FindScenario("hetero_shapes")), "");
}

TEST(ScenarioOverrideTest, ClusteringKnobsReachTheSchedulingSimulation) {
  // max_classes_per_pattern must change the classes the H scheduler uses,
  // not just the clustering report: cap it at one class per pattern and the
  // per-class diagnostics must shrink to at most kNumPatterns entries.
  ScenarioConfig config = *FindScenario("dc9_testbed");
  std::string error;
  ASSERT_TRUE(ApplyScenarioOverride(config, "max_classes_per_pattern", "1", &error)) << error;
  ScenarioRunOptions options;
  options.seed = 42;
  options.scale = 0.2;
  ScenarioRunResult run = RunScenario(config, options);
  ASSERT_TRUE(run.result.datacenters[0].has_scheduling);
  const auto& diagnostics = run.result.datacenters[0].scheduling.class_diagnostics;
  ASSERT_FALSE(diagnostics.empty());
  EXPECT_LE(diagnostics.size(), static_cast<size_t>(kNumPatterns));
}

TEST(StageApiTest, DcSeedsAreIndexDerivedAndStable) {
  // The executor's determinism rests on these being pure functions of
  // (seed, index) / (seed, tag) -- independent of threads or call order.
  EXPECT_EQ(DeriveDcSeed(42, 0), DeriveDcSeed(42, 0));
  EXPECT_NE(DeriveDcSeed(42, 0), DeriveDcSeed(42, 1));
  EXPECT_NE(DeriveDcSeed(42, 0), DeriveDcSeed(43, 0));
  EXPECT_NE(DerivedStreamSeed(7, "build"), DerivedStreamSeed(7, "clustering"));

  DcContext ctx;
  ctx.dc_seed = DeriveDcSeed(42, 3);
  EXPECT_EQ(ctx.StreamSeed("durability"), DerivedStreamSeed(DeriveDcSeed(42, 3), "durability"));
}

TEST(ResultJsonTest, RendersOverridesAndTopLevelFields) {
  ScenarioResult result;
  result.scenario = "derived";
  result.description = "desc";
  result.seed = 7;
  result.scale = 0.5;
  result.overrides = {"fleet_scale=0.5", "run_durability=false"};
  std::string json = RenderScenarioJson(result);
  EXPECT_NE(json.find("\"schema_version\": 6"), std::string::npos);
  EXPECT_NE(json.find("\"trace_source\": \"synthetic\""), std::string::npos);
  EXPECT_NE(json.find("\"fleet_scale=0.5\""), std::string::npos);
  EXPECT_NE(json.find("\"run_durability=false\""), std::string::npos);
  EXPECT_NE(json.find("\"datacenters\": []"), std::string::npos);
}

// Renders a run's JSON with all wall-clock telemetry zeroed: the "timing"
// block is the only intentionally nondeterministic output, so byte
// comparisons go through this.
std::string JsonWithoutTiming(ScenarioRunResult run) {
  ClearTimingForDiff(run.result);
  return RenderScenarioJson(run.result);
}

// The driver's core contract: one (scenario, seed, scale) triple produces
// byte-identical JSON across runs (modulo the wall-clock "timing" block),
// so results can be diffed by CI.
TEST(DriverPipelineTest, SameScenarioAndSeedProduceIdenticalJson) {
  const ScenarioConfig* scenario = FindScenario("dc9_testbed");
  ASSERT_NE(scenario, nullptr);
  ScenarioRunOptions options;
  options.seed = 42;
  options.scale = 0.2;
  ScenarioRunResult first = RunScenario(*scenario, options);
  ScenarioRunResult second = RunScenario(*scenario, options);
  EXPECT_EQ(JsonWithoutTiming(first), JsonWithoutTiming(second));
  EXPECT_FALSE(first.json.empty());
  // The run exercised every stage of the pipeline.
  EXPECT_NE(first.json.find("\"clustering\""), std::string::npos);
  EXPECT_NE(first.json.find("\"scheduling\""), std::string::npos);
  EXPECT_NE(first.json.find("\"placement\""), std::string::npos);
  EXPECT_NE(first.json.find("\"durability\""), std::string::npos);
  EXPECT_NE(first.json.find("\"availability\""), std::string::npos);
  EXPECT_GT(first.summary.jobs_completed, 0);
}

TEST(DriverPipelineTest, DifferentSeedsProduceDifferentJson) {
  const ScenarioConfig* scenario = FindScenario("reimage_storm");
  ASSERT_NE(scenario, nullptr);
  ScenarioRunOptions options;
  options.scale = 0.05;
  options.seed = 1;
  ScenarioRunResult first = RunScenario(*scenario, options);
  options.seed = 2;
  ScenarioRunResult second = RunScenario(*scenario, options);
  EXPECT_NE(first.json, second.json);
}

// The paper's durability headline must survive the storm scenario: history-
// based placement never loses more than stock under correlated reimaging.
TEST(DriverPipelineTest, StormScenarioKeepsHistoryAtOrBelowStockLoss) {
  const ScenarioConfig* scenario = FindScenario("reimage_storm");
  ASSERT_NE(scenario, nullptr);
  ScenarioRunOptions options;
  options.seed = 7;
  options.scale = 0.1;
  ScenarioRunResult result = RunScenario(*scenario, options);
  EXPECT_LE(result.summary.worst_history_lost_percent,
            result.summary.worst_stock_lost_percent);
}

// The threading determinism contract: the JSON document is byte-identical
// (modulo timing telemetry) for any worker-thread count, on every registered
// scenario. --threads=4 on a single-DC scenario also exercises the intra-DC
// PT/H task split.
TEST(DriverPipelineTest, ThreadCountNeverChangesJson) {
  for (const ScenarioConfig& scenario : AllScenarios()) {
    ScenarioRunOptions options;
    options.seed = 42;
    options.scale = 0.02;
    options.threads = 1;
    ScenarioRunResult serial = RunScenario(scenario, options);
    options.threads = 4;
    ScenarioRunResult parallel = RunScenario(scenario, options);
    EXPECT_EQ(JsonWithoutTiming(serial), JsonWithoutTiming(parallel))
        << "scenario " << scenario.name;
    EXPECT_FALSE(serial.json.empty());
  }
}

// Every run carries its own perf trajectory: the timing block is rendered,
// populated for the stages that ran, and cleanly removable for diffs.
TEST(DriverPipelineTest, TimingTelemetryIsRenderedAndStrippable) {
  const ScenarioConfig* scenario = FindScenario("reimage_storm");
  ASSERT_NE(scenario, nullptr);
  ScenarioRunOptions options;
  options.seed = 7;
  options.scale = 0.05;
  options.threads = 2;
  ScenarioRunResult run = RunScenario(*scenario, options);
  EXPECT_NE(run.json.find("\"timing\": {"), std::string::npos);
  EXPECT_NE(run.json.find("\"fleet_build_seconds\""), std::string::npos);
  EXPECT_EQ(run.result.timing.threads, 2);
  EXPECT_GT(run.result.timing.total_seconds, 0.0);
  ASSERT_EQ(run.result.datacenters.size(), 1u);
  const DcStageTiming& timing = run.result.datacenters[0].timing;
  EXPECT_GT(timing.total_seconds, 0.0);
  EXPECT_GE(timing.fleet_build_seconds, 0.0);
  EXPECT_GE(timing.durability_seconds, 0.0);
  // Stage times are measured inside the DC's own wall time.
  EXPECT_LE(timing.fleet_build_seconds + timing.clustering_seconds +
                timing.scheduling_seconds + timing.placement_seconds +
                timing.durability_seconds + timing.availability_seconds,
            timing.total_seconds + 1e-6);
  // Clearing the telemetry removes every timing byte from the rendering.
  std::string stripped = JsonWithoutTiming(run);
  EXPECT_NE(stripped.find("\"timing\": {"), std::string::npos);
  EXPECT_NE(stripped.find("\"total_seconds\": 0"), std::string::npos);
  EXPECT_EQ(stripped.find("\"threads\": 2"), std::string::npos);
}

TEST(DriverPipelineTest, TypedResultsMatchRenderedJsonAndSummary) {
  const ScenarioConfig* scenario = FindScenario("reimage_storm");
  ASSERT_NE(scenario, nullptr);
  ScenarioRunOptions options;
  options.seed = 5;
  options.scale = 0.05;
  ScenarioRunResult run = RunScenario(*scenario, options);
  ASSERT_EQ(run.result.datacenters.size(), 1u);
  const DatacenterResult& dc = run.result.datacenters[0];
  EXPECT_EQ(dc.name, "DC-9");
  EXPECT_GT(dc.fleet.servers, 0u);
  EXPECT_TRUE(dc.has_durability);
  EXPECT_FALSE(dc.has_scheduling);
  EXPECT_EQ(dc.durability.cells.size(),
            scenario->placement_kinds.size() * scenario->replications.size());
  EXPECT_EQ(dc.durability.placement_kinds.size(), scenario->placement_kinds.size());
  // Re-rendering the typed results reproduces the run's JSON exactly.
  EXPECT_EQ(RenderScenarioJson(run.result), run.json);
  // And the summary is a pure function of the typed results.
  ScenarioSummary summary = SummarizeScenario(run.result);
  EXPECT_EQ(summary.datacenters, run.summary.datacenters);
  EXPECT_EQ(summary.servers, run.summary.servers);
  EXPECT_DOUBLE_EQ(summary.worst_stock_lost_percent, run.summary.worst_stock_lost_percent);
}

// ISSUE-4 acceptance: the storage grid exercises every declared
// PlacementKind by default, and the JSON grid schema names them all --
// nothing silently drops kRandom/kGreedy/kSoft anymore.
TEST(DriverPipelineTest, StorageGridCoversAllFivePlacementKinds) {
  const ScenarioConfig* scenario = FindScenario("reimage_storm");
  ASSERT_NE(scenario, nullptr);
  ASSERT_EQ(scenario->placement_kinds.size(), 5u);
  ScenarioRunOptions options;
  options.seed = 11;
  options.scale = 0.05;
  ScenarioRunResult run = RunScenario(*scenario, options);
  for (PlacementKind kind : AllPlacementKinds()) {
    const std::string quoted = std::string("\"") + PlacementKindName(kind) + "\"";
    EXPECT_NE(run.json.find(quoted), std::string::npos)
        << PlacementKindName(kind) << " missing from scenario JSON";
  }
  // Grid shape: kinds x replications cells, kind-minor, with the axes
  // rendered ahead of the cells.
  ASSERT_EQ(run.result.datacenters.size(), 1u);
  const DurabilityStageResult& durability = run.result.datacenters[0].durability;
  ASSERT_EQ(durability.cells.size(), 5u * scenario->replications.size());
  for (size_t i = 0; i < durability.cells.size(); ++i) {
    EXPECT_EQ(durability.cells[i].placement, durability.placement_kinds[i % 5]);
    EXPECT_EQ(durability.cells[i].replication,
              scenario->replications[i / 5]);
  }
  EXPECT_NE(run.json.find("\"placement_kinds\""), std::string::npos);
}

// The access_rate axis: reads riding the reimage timeline observe blocks
// mid-heal, so the durability cells report access outcomes.
TEST(DriverPipelineTest, AccessRateInjectsReadsIntoTheDurabilityTimeline) {
  ScenarioConfig config = *FindScenario("reimage_storm");
  std::string error;
  ASSERT_TRUE(ApplyScenarioOverride(config, "access_rate", "40", &error)) << error;
  ASSERT_TRUE(ApplyScenarioOverride(config, "placement_kinds", "stock,history", &error))
      << error;
  ScenarioRunOptions options;
  options.seed = 11;
  options.scale = 0.05;
  ScenarioRunResult run = RunScenario(config, options);
  ASSERT_EQ(run.result.datacenters.size(), 1u);
  const DurabilityStageResult& durability = run.result.datacenters[0].durability;
  ASSERT_FALSE(durability.cells.empty());
  for (const DurabilityCellResult& cell : durability.cells) {
    EXPECT_GT(cell.accesses, 0) << cell.placement << " r" << cell.replication;
  }
  // Paired comparison: every cell of one replication saw the same accesses.
  EXPECT_EQ(durability.cells[0].accesses, durability.cells[1].accesses);
  EXPECT_NE(run.json.find("\"accesses\""), std::string::npos);
}

// --- Trace export / replay ------------------------------------------------

std::string FreshTempDir(const char* tag) {
  // mkdtemp: unique even across concurrent test processes on one machine.
  std::string pattern = (std::filesystem::temp_directory_path() /
                         (std::string("driver_trace_") + tag + "_XXXXXX"))
                            .string();
  const char* dir = mkdtemp(pattern.data());
  EXPECT_NE(dir, nullptr);
  return pattern;
}

// The tentpole contract: a replayed run byte-reproduces the synthetic run
// that exported it -- same fleets from disk, same downstream RNG streams --
// differing only in declared provenance.
TEST(TraceReplayTest, ReplayReproducesTheSyntheticRunByteIdentically) {
  const std::string dir = FreshTempDir("roundtrip");
  ScenarioConfig config = *FindScenario("reimage_storm");
  ScenarioRunOptions options;
  options.seed = 17;
  options.scale = 0.05;
  options.threads = 2;
  options.dump_traces_dir = dir;
  ScenarioRunResult synthetic = RunScenario(config, options);
  EXPECT_EQ(synthetic.result.trace_source, "synthetic");
  EXPECT_TRUE(std::filesystem::exists(dir + "/DC-9.trace"));
  EXPECT_TRUE(std::filesystem::exists(dir + "/MANIFEST.txt"));
  {
    // The manifest is self-describing: it names the size and shape mix of
    // every recorded fleet, so readers need not parse the binary traces.
    std::ifstream manifest(dir + "/MANIFEST.txt");
    const std::string text((std::istreambuf_iterator<char>(manifest)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("fleet: DC-9 servers="), std::string::npos) << text;
    EXPECT_NE(text.find(" shapes=12c32768m:"), std::string::npos) << text;
  }

  ScenarioConfig replay_config = config;
  replay_config.trace_dir = dir;
  ScenarioRunOptions replay_options = options;
  replay_options.dump_traces_dir.clear();
  // Replay ignores fleet scaling (the fleet comes from disk); everything
  // else -- storage grids, placement audit, every RNG stream -- must match.
  ScenarioRunResult replayed = RunScenario(replay_config, replay_options);
  EXPECT_EQ(replayed.result.trace_source, "replay:" + dir);

  ClearTimingForDiff(synthetic.result);
  ClearTimingForDiff(replayed.result);
  // Align the one intentional difference, then demand byte equality.
  replayed.result.trace_source = synthetic.result.trace_source;
  EXPECT_EQ(RenderScenarioJson(synthetic.result), RenderScenarioJson(replayed.result));
  std::filesystem::remove_all(dir);
}

// ISSUE-5 satellite: replayed-scenario JSON is byte-identical across runs
// (and across thread counts -- replay has no RNG of its own to misuse).
TEST(TraceReplayTest, ReplayedScenarioIsDeterministic) {
  const ScenarioConfig* scenario = FindScenario("replay_regression");
  ASSERT_NE(scenario, nullptr);
  ScenarioRunOptions options;
  options.seed = 42;
  options.scale = 0.05;
  options.threads = 1;
  ScenarioRunResult first = RunScenario(*scenario, options);
  options.threads = 4;
  ScenarioRunResult second = RunScenario(*scenario, options);
  EXPECT_EQ(JsonWithoutTiming(first), JsonWithoutTiming(second));
}

// ISSUE-5 acceptance: the committed reproducer trace -- captured from the
// fleet_sweep configuration where YARN-H used to trail YARN-PT by ~19% --
// now shows H >= PT (the ranking/elbow/forecast fixes; the golden pins the
// exact numbers).
TEST(TraceReplayTest, ReplayRegressionShowsHistoryAtLeastMatchingPt) {
  const ScenarioConfig* scenario = FindScenario("replay_regression");
  ASSERT_NE(scenario, nullptr);
  EXPECT_EQ(scenario->trace_dir, "tests/traces/replay_regression");
  ScenarioRunOptions options;
  options.seed = 42;
  options.scale = 0.05;
  ScenarioRunResult run = RunScenario(*scenario, options);
  ASSERT_EQ(run.result.datacenters.size(), 1u);
  const DatacenterResult& dc = run.result.datacenters[0];
  ASSERT_TRUE(dc.has_scheduling);
  EXPECT_GE(dc.scheduling.history_improvement_percent, 0.0)
      << "YARN-H trails YARN-PT on the committed regression trace";
  // The fleet really came from disk: replay ignores --scale, so the full
  // recorded fleet ran despite the tiny smoke scale.
  EXPECT_EQ(dc.fleet.servers, 249u);
  EXPECT_NE(run.result.trace_source.find("replay:"), std::string::npos);
}

TEST(TraceReplayTest, ValidateScenarioRejectsBadReplayConfigs) {
  ScenarioConfig config = *FindScenario("replay_regression");
  config.datacenters = {"DC-4"};  // committed directory only has DC-5
  std::string error = ValidateScenario(config);
  EXPECT_NE(error.find("DC-4"), std::string::npos) << error;
  EXPECT_NE(error.find("did you mean 'DC-5'"), std::string::npos) << error;

  config = *FindScenario("fleet_sweep");
  config.trace_dir = "definitely/not/a/real/dir";
  error = ValidateScenario(config);
  EXPECT_NE(error.find("not a directory"), std::string::npos) << error;

  // A header whose counts the file cannot hold (here 2^32 shared traces in a
  // 48-byte file) is rejected before the run, not by a fleet-build abort.
  const std::string dir = FreshTempDir("hostile");
  {
    std::string header = "HRVTRACE";
    for (int i = 0; i < 4; ++i) {
      header.push_back(static_cast<char>((kTraceFileVersion >> (8 * i)) & 0xff));
    }
    header.append(3 * 8, '\0');                 // trace_slots, tenants, servers
    header += std::string("\0\0\0\0\1\0\0\0", 8);  // num_traces = 2^32
    header.append(4, '\0');
    std::ofstream(dir + "/DC-9.trace", std::ios::binary) << header;
  }
  config = *FindScenario("storage_stress");
  config.trace_dir = dir;
  error = ValidateScenario(config);
  EXPECT_NE(error.find("malformed"), std::string::npos) << error;
  std::filesystem::remove_all(dir);
}

// ISSUE-8 satellite: the trace manifest records the canonical fault plan of
// the capturing run, and replaying the directory under a different plan is
// a config error -- the recorded fleet and any goldens derived from it
// assume those exact injected events.
TEST(TraceReplayTest, ReplayRejectsMismatchedFaultPlan) {
  const std::string dir = FreshTempDir("faultplan");
  ScenarioConfig config = *FindScenario("reimage_storm");
  config.fault_plan = "telemetry_blackout:100,200";
  ScenarioRunOptions options;
  options.seed = 17;
  options.scale = 0.05;
  options.threads = 2;
  options.dump_traces_dir = dir;
  RunScenario(config, options);
  {
    std::ifstream manifest(dir + "/MANIFEST.txt");
    const std::string text((std::istreambuf_iterator<char>(manifest)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("fault_plan: telemetry_blackout:100,200"), std::string::npos)
        << text;
  }

  ScenarioConfig replay = config;
  replay.trace_dir = dir;
  EXPECT_EQ(ValidateScenario(replay), "");  // same plan: accepted
  // Same plan, different spelling: the comparison is canonical, not textual.
  replay.fault_plan = "telemetry_blackout:100.0,0200";
  EXPECT_EQ(ValidateScenario(replay), "");
  replay.fault_plan = "telemetry_blackout:100,300";
  std::string error = ValidateScenario(replay);
  EXPECT_NE(error.find("fault_plan mismatch"), std::string::npos) << error;
  EXPECT_NE(error.find("telemetry_blackout:100,200"), std::string::npos) << error;
  replay.fault_plan.clear();
  error = ValidateScenario(replay);
  EXPECT_NE(error.find("fault_plan mismatch"), std::string::npos) << error;
  std::filesystem::remove_all(dir);

  // Manifests written before the fault subsystem have no fault_plan line;
  // they read as "none", so faulted replays of legacy captures are rejected.
  ScenarioConfig legacy = *FindScenario("replay_regression");
  legacy.fault_plan = "dc_outage:10,20";
  error = ValidateScenario(legacy);
  EXPECT_NE(error.find("fault_plan mismatch"), std::string::npos) << error;
}

TEST(DriverPipelineTest, SchedulingStageEmitsPerClassDiagnostics) {
  const ScenarioConfig* scenario = FindScenario("dc9_testbed");
  ASSERT_NE(scenario, nullptr);
  ScenarioRunOptions options;
  options.seed = 42;
  options.scale = 0.2;
  ScenarioRunResult run = RunScenario(*scenario, options);
  ASSERT_EQ(run.result.datacenters.size(), 1u);
  const DatacenterResult& dc = run.result.datacenters[0];
  ASSERT_TRUE(dc.has_scheduling);
  ASSERT_FALSE(dc.scheduling.class_diagnostics.empty());
  int64_t containers = 0;
  int64_t selections = 0;
  double contribution = 0.0;
  for (const SchedulingClassResult& cls : dc.scheduling.class_diagnostics) {
    EXPECT_FALSE(cls.label.empty());
    EXPECT_FALSE(cls.pattern.empty());
    EXPECT_LE(cls.kills, cls.containers);
    if (cls.containers > 0) {
      EXPECT_GT(cls.mean_lease_seconds, 0.0);
    }
    containers += cls.containers;
    selections += cls.selections;
    contribution += cls.rank_weight_contribution;
  }
  EXPECT_GT(containers, 0);
  EXPECT_GT(selections, 0);
  EXPECT_GT(contribution, 0.0);
  EXPECT_NE(run.json.find("\"class_diagnostics\""), std::string::npos);
  EXPECT_NE(run.json.find("\"rank_weight_contribution\""), std::string::npos);
}

}  // namespace
}  // namespace harvest
