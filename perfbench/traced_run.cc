// The traced run: one harvest_sim scenario executed layer by layer from
// the benchmark's own code, with a span around every call into a layer.
//
// It repeats RunScenario / RunDatacenterStages (src/driver/pipeline.cc) and
// the option mapping of scheduling_stage.cc and durability_stage.cc, but
// calls each layer's public entry point itself: RunFleetBuildStage,
// ScaleClusterUtilization, RunClusteringStage, RunSchedulingSimulation (PT,
// then H), RunPlacementAuditStage, BuildStorageTimeline and RunStorageCosim
// per grid cell, and RenderScenarioJson. The result, rendered with timing
// cleared, must be byte-identical to the front door's (run.py checks it),
// which is what catches this file drifting from src/driver.
//
//   traced_run --scenario=NAME [--seed=N] [--scale=F] [--threads=N]
//              [--set KEY=VALUE]... --result=PATH --trace-events=PATH
//
// Writes the timing-cleared result JSON to --result, the spans as Chrome
// trace-event JSON to --trace-events, and prints the per-layer metrics as
// one JSON object on stdout. Usage errors exit 2, I/O errors exit 1.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "spans.h"
#include "src/cluster/fleet_table.h"
#include "src/driver/pipeline.h"
#include "src/driver/registry.h"
#include "src/driver/result_json.h"
#include "src/experiments/cluster_scaling.h"
#include "src/experiments/scheduling_sim.h"
#include "src/experiments/storage_cosim.h"
#include "src/fault/fault_plan.h"
#include "src/jobs/tpcds.h"
#include "src/signal/pattern.h"
#include "src/trace/reimage.h"
#include "src/util/executor.h"
#include "src/util/logging.h"

namespace {

using harvest::Cluster;
using harvest::DcContext;
using harvest::ScenarioConfig;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: kilobytes
}

// Counts one datacenter's layer calls return. Each DC task writes only its
// own slot; storage cells write their own cell slot.
struct StorageCellCounts {
  int64_t blocks = 0;
  int64_t reimage_events = 0;
  int64_t replicas_destroyed = 0;
  int64_t rereplications = 0;
  int64_t accesses = 0;
  int64_t failed_accesses = 0;
};

struct DcCounts {
  int span = -1;
  double servers = 0;
  double distinct_traces = 0;
  double rss_after_build_mb = 0;
  double rescale_calls = 0;
  double rescale_server_samples = 0;
  double rescale_rss_step_mb = 0;
  double classes = 0;
  double jobs_arrived = 0;
  double jobs_completed = 0;
  double containers = 0;
  double kills = 0;
  double arena_bytes = 0;
  std::vector<StorageCellCounts> cells;
};

// --- scheduling_stage.cc, called layer by layer -------------------------

harvest::SchedulingRunResult FlattenRun(const harvest::SchedulingSimResult& result) {
  harvest::SchedulingRunResult run;
  run.jobs_arrived = result.jobs_arrived;
  run.jobs_completed = result.jobs_completed;
  run.average_execution_seconds = result.average_execution_seconds;
  run.total_kills = result.total_kills;
  run.average_total_utilization = result.average_total_utilization;
  run.average_primary_utilization = result.average_primary_utilization;
  run.has_storage = result.storage.accesses > 0;
  if (run.has_storage) {
    run.failed_access_fraction = result.storage.FailedAccessFraction();
  }
  for (int64_t count : result.containers_by_pattern) {
    run.containers += count;
  }
  run.has_energy = result.has_energy;
  run.energy = result.energy;
  run.fault_evictions = result.fault_evictions;
  run.forecast_degraded_seconds = result.forecast_degraded_seconds;
  return run;
}

harvest::SchedulingStageResult TracedScheduling(const DcContext& ctx, const Cluster& cluster,
                                                SpanRecorder& rec, int parent,
                                                DcCounts& counts) {
  const ScenarioConfig& config = *ctx.config;
  const Cluster* sim_cluster = &cluster;
  Cluster rescaled;
  if (config.scheduling_target_utilization > 0.0) {
    const double rss_before = PeakRssMb();
    {
      ScopedSpan span(rec, "rescale", parent);
      rescaled = harvest::ScaleClusterUtilization(cluster, harvest::ScalingMethod::kRoot,
                                                  config.scheduling_target_utilization);
    }
    counts.rescale_rss_step_mb = std::max(counts.rescale_rss_step_mb, PeakRssMb() - rss_before);
    counts.rescale_calls += 1;
    for (const auto& server : cluster.servers()) {
      if (server.utilization) {
        counts.rescale_server_samples += static_cast<double>(server.utilization->size());
      }
    }
    sim_cluster = &rescaled;
  }

  harvest::SchedulingSimOptions options;
  options.clustering = config.clustering;
  options.storage = config.scheduling_storage;
  options.horizon_seconds = config.scheduling_horizon_seconds;
  options.mean_interarrival_seconds = config.mean_interarrival_seconds;
  options.job_duration_factor = config.job_duration_factor;
  options.thresholds.short_below *= config.job_duration_factor;
  options.thresholds.long_above *= config.job_duration_factor;
  options.seed = ctx.StreamSeed("scheduling");
  options.rm_shards = config.rm_shards;
  options.nn_shards = config.nn_shards;
  options.power_accounting = config.power_accounting;
  options.energy_price = config.energy_price;
  options.dc_index = ctx.dc_index;
  options.price_phase_hours = config.price_phase_hours;
  options.rightsizing = config.rightsizing;
  options.park_threshold = config.park_threshold;
  options.defer_waves = config.defer_waves;
  options.defer_window_hours = config.defer_window_hours;
  options.defer_min_gain = config.defer_min_gain;
  options.power_cap_watts = config.power_cap_watts;
  harvest::FaultPlan fault_plan;
  harvest::FaultTimeline fault_timeline;
  if (!config.fault_plan.empty()) {
    std::string fault_error;
    HARVEST_CHECK(harvest::ParseFaultPlan(config.fault_plan, &fault_plan, &fault_error))
        << fault_error;
    fault_timeline =
        harvest::CompileFaultPlan(fault_plan, *sim_cluster, ctx.StreamSeed("fault"));
    if (!fault_timeline.empty()) {
      options.faults = &fault_timeline;
    }
    options.forecast_fallback = config.forecast_fallback;
  }
  options.slot_threads = std::max(1, ctx.task_threads / 2);

  const harvest::SchedulerMode modes[2] = {harvest::SchedulerMode::kPrimaryAware,
                                           harvest::SchedulerMode::kHistory};
  const char* span_names[2] = {"cosim.pt", "cosim.h"};
  harvest::SchedulingSimResult runs[2];
  harvest::ParallelForIndex(std::min(ctx.task_threads, 2), 2, [&](int i) {
    ScopedSpan span(rec, span_names[i], parent);
    harvest::SchedulingSimOptions task_options = options;
    task_options.mode = modes[i];
    runs[i] = harvest::RunSchedulingSimulation(*sim_cluster, *ctx.suite, task_options);
  });
  const harvest::SchedulingSimResult& baseline = runs[0];
  const harvest::SchedulingSimResult& history = runs[1];

  harvest::SchedulingStageResult result;
  result.arena_high_water_bytes =
      std::max(baseline.rm_arena_high_water_bytes, history.rm_arena_high_water_bytes);
  result.horizon_seconds = options.horizon_seconds;
  result.mean_interarrival_seconds = options.mean_interarrival_seconds;
  result.target_utilization = config.scheduling_target_utilization;
  result.storage_variant = harvest::StorageVariantName(config.scheduling_storage);
  result.primary_aware = FlattenRun(baseline);
  result.history = FlattenRun(history);
  result.history_improvement_percent =
      baseline.average_execution_seconds > 0.0
          ? 100.0 *
                (baseline.average_execution_seconds - history.average_execution_seconds) /
                baseline.average_execution_seconds
          : 0.0;
  result.class_diagnostics.reserve(history.class_diagnostics.size());
  for (const harvest::ClassSchedulingDiagnostics& diag : history.class_diagnostics) {
    harvest::SchedulingClassResult entry;
    entry.class_id = diag.class_id;
    entry.label = diag.label;
    entry.pattern = harvest::PatternName(diag.pattern);
    entry.containers = diag.containers;
    entry.kills = diag.kills;
    entry.total_lease_seconds = diag.lease_seconds;
    entry.mean_lease_seconds = diag.MeanLeaseSeconds();
    entry.selections = diag.selections;
    entry.rank_weight_contribution = diag.rank_weight_contribution;
    result.class_diagnostics.push_back(std::move(entry));
  }

  for (const harvest::SchedulingRunResult* run : {&result.primary_aware, &result.history}) {
    counts.jobs_arrived += static_cast<double>(run->jobs_arrived);
    counts.jobs_completed += static_cast<double>(run->jobs_completed);
    counts.containers += static_cast<double>(run->containers);
    counts.kills += static_cast<double>(run->total_kills);
  }
  counts.arena_bytes = std::max(counts.arena_bytes,
                                static_cast<double>(result.arena_high_water_bytes));
  return result;
}

// --- durability_stage.cc, called layer by layer -------------------------

harvest::DurabilityStageResult TracedDurability(const DcContext& ctx, const Cluster& cluster,
                                                SpanRecorder& rec, int parent,
                                                DcCounts& counts) {
  const ScenarioConfig& config = *ctx.config;
  const uint64_t base_seed = ctx.StreamSeed("durability");

  harvest::StorageTimelineOptions timeline_options;
  timeline_options.reimage_horizon_seconds =
      static_cast<double>(config.reimage_months) * harvest::kSecondsPerMonth;
  timeline_options.access_rate_per_hour = config.access_rate;
  timeline_options.access_seed = harvest::DerivedStreamSeed(base_seed, "accesses");
  harvest::StorageTimeline timeline;
  {
    ScopedSpan span(rec, "storage.timeline", parent);
    timeline = harvest::BuildStorageTimeline(cluster, timeline_options);
  }

  harvest::DurabilityStageResult result;
  result.replications = config.replications;
  result.access_rate = config.access_rate;
  for (harvest::PlacementKind kind : config.placement_kinds) {
    result.placement_kinds.emplace_back(harvest::PlacementKindName(kind));
  }

  const int kinds = static_cast<int>(config.placement_kinds.size());
  const int cells = kinds * static_cast<int>(config.replications.size());
  result.cells.resize(static_cast<size_t>(cells));
  counts.cells.resize(static_cast<size_t>(cells));
  harvest::ParallelForIndex(std::min(ctx.task_threads, cells), cells, [&](int i) {
    const int r = i / kinds;
    const int k = i % kinds;
    const harvest::PlacementKind kind = config.placement_kinds[static_cast<size_t>(k)];
    const int replication = config.replications[static_cast<size_t>(r)];
    const std::string replication_tag = "r" + std::to_string(replication);

    harvest::StorageCosimOptions options;
    options.placement = kind;
    options.replication = replication;
    options.num_blocks = config.storage_blocks;
    options.nn_shards = config.nn_shards;
    options.writer_seed = harvest::DerivedStreamSeed(base_seed, "writers-" + replication_tag);
    options.policy_seed = harvest::DerivedStreamSeed(
        base_seed, std::string(harvest::PlacementKindName(kind)) + "-" + replication_tag);
    harvest::StorageCosimResult run;
    {
      ScopedSpan span(rec, "storage.cell", parent);
      run = harvest::RunStorageCosim(cluster, timeline, options);
    }

    harvest::DurabilityCellResult& cell = result.cells[static_cast<size_t>(i)];
    cell.placement = harvest::PlacementKindName(kind);
    cell.replication = replication;
    cell.blocks = config.storage_blocks;
    cell.lost_percent = run.lost_percent;
    cell.reimage_events = run.reimage_events;
    cell.replicas_destroyed = run.stats.replicas_destroyed;
    cell.rereplications_completed = run.stats.rereplications_completed;
    cell.under_replicated_blocks = run.under_replicated_blocks;
    cell.accesses = run.stats.accesses;
    cell.failed_percent = run.failed_access_percent;

    StorageCellCounts& cell_counts = counts.cells[static_cast<size_t>(i)];
    cell_counts.blocks = config.storage_blocks;
    cell_counts.reimage_events = run.reimage_events;
    cell_counts.replicas_destroyed = run.stats.replicas_destroyed;
    cell_counts.rereplications = run.stats.rereplications_completed;
    cell_counts.accesses = run.stats.accesses;
    cell_counts.failed_accesses = run.stats.failed_accesses;
  });
  return result;
}

// --- pipeline.cc RunDatacenterStages, called layer by layer --------------

harvest::DatacenterResult TracedDatacenter(const DcContext& ctx, SpanRecorder& rec,
                                           int parent, DcCounts& counts) {
  const ScenarioConfig& config = *ctx.config;
  counts.span = rec.Begin("dc " + ctx.label, parent);
  const int dc_span = counts.span;
  harvest::DatacenterResult dc;
  dc.name = ctx.label;
  harvest::FleetBuildOutput fleet;
  {
    ScopedSpan span(rec, "fleet_build", dc_span);
    fleet = harvest::RunFleetBuildStage(ctx);
  }
  counts.rss_after_build_mb = PeakRssMb();
  dc.fleet = fleet.stats;
  {
    ScopedSpan span(rec, "clustering", dc_span);
    dc.clustering = harvest::RunClusteringStage(ctx, fleet.cluster);
  }
  if (config.run_scheduling) {
    dc.has_scheduling = true;
    dc.scheduling = TracedScheduling(ctx, fleet.cluster, rec, dc_span, counts);
    if (config.power_accounting) {
      dc.has_power = true;
      ScopedSpan span(rec, "power", dc_span);
      dc.power = harvest::RunPowerStage(ctx, dc.scheduling);
    }
  }
  {
    ScopedSpan span(rec, "placement_audit", dc_span);
    dc.placement = harvest::RunPlacementAuditStage(ctx, fleet.cluster);
  }
  if (config.run_durability) {
    dc.has_durability = true;
    dc.durability = TracedDurability(ctx, fleet.cluster, rec, dc_span, counts);
  }
  if (config.run_availability) {
    dc.has_availability = true;
    ScopedSpan span(rec, "availability", dc_span);
    dc.availability = harvest::RunAvailabilityStage(ctx, fleet.cluster);
  }
  if (!config.fault_plan.empty()) {
    dc.has_faults = true;
    ScopedSpan span(rec, "fault", dc_span);
    dc.faults = harvest::RunFaultStage(ctx, fleet.cluster,
                                       dc.has_scheduling ? &dc.scheduling : nullptr);
  }
  rec.End(dc_span);
  // Bookkeeping for the counters, outside the DC span.
  counts.servers = static_cast<double>(dc.fleet.servers);
  counts.distinct_traces = harvest::FleetTable(fleet.cluster).num_traces();
  counts.classes = static_cast<double>(dc.clustering.classes.size());
  return dc;
}

// --- pipeline.cc RunScenario ---------------------------------------------

harvest::ScenarioResult TracedScenario(const ScenarioConfig& base_config,
                                       const harvest::ScenarioRunOptions& options,
                                       int threads, SpanRecorder& rec, int parent,
                                       std::vector<DcCounts>& counts) {
  const ScenarioConfig config = harvest::ScaledScenario(base_config, options.scale);
  std::vector<harvest::JobDag> suite;
  if (config.run_scheduling) {
    ScopedSpan span(rec, "suite", parent);
    suite = harvest::BuildTpcDsSuite(harvest::DerivedStreamSeed(options.seed, "suite"));
  }
  const std::vector<std::string> labels = harvest::ScenarioLabels(config);

  harvest::ScenarioResult result;
  result.scenario = config.name;
  result.description = config.description;
  result.seed = options.seed;
  result.scale = options.scale;
  result.trace_source = harvest::MakeTraceSource(config).Provenance();
  for (const std::string& override_text : options.overrides) {
    if (override_text.rfind("rm_shards=", 0) != 0 &&
        override_text.rfind("nn_shards=", 0) != 0) {
      result.overrides.push_back(override_text);
    }
  }
  result.datacenters.resize(labels.size());
  counts.resize(labels.size());

  const int dc_count = static_cast<int>(labels.size());
  const int task_threads = std::max(1, threads / std::max(1, dc_count));
  harvest::ParallelForIndex(threads, dc_count, [&](int i) {
    DcContext ctx;
    ctx.config = &config;
    ctx.label = labels[static_cast<size_t>(i)];
    ctx.dc_index = i;
    ctx.dc_seed = harvest::DeriveDcSeed(options.seed, i);
    ctx.suite = &suite;
    ctx.task_threads = task_threads;
    result.datacenters[static_cast<size_t>(i)] =
        TracedDatacenter(ctx, rec, parent, counts[static_cast<size_t>(i)]);
  });
  result.timing.threads = threads;
  result.timing.rm_shards = config.rm_shards;
  result.timing.nn_shards = config.nn_shards;
  result.timing.peak_rss_bytes = static_cast<int64_t>(PeakRssMb() * 1024.0 * 1024.0);
  return result;
}

// --- metrics ---------------------------------------------------------------

std::map<std::string, double> LayerMetrics(const std::vector<perfbench::Span>& spans,
                                           const std::vector<DcCounts>& counts, int threads,
                                           double wall_seconds) {
  const std::vector<double> self = perfbench::SelfTimes(spans);
  // Self seconds per layer, keyed by span name up to the first space.
  std::map<std::string, double> layer_self;
  std::vector<double> cell_seconds;
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string& name = spans[i].name;
    layer_self[name.substr(0, name.find(' '))] += self[i];
    if (name == "storage.cell") {
      cell_seconds.push_back(spans[i].end - spans[i].start);
    }
  }
  std::vector<double> dc_seconds;
  double worst_unattributed = 0.0;
  for (const DcCounts& dc : counts) {
    const perfbench::Span& span = spans[static_cast<size_t>(dc.span)];
    const double duration = span.end - span.start;
    dc_seconds.push_back(duration);
    if (duration > 0.0) {
      worst_unattributed =
          std::max(worst_unattributed, self[static_cast<size_t>(dc.span)] / duration);
    }
  }
  const perfbench::Summary dc_summary = perfbench::Summarize(dc_seconds);
  const perfbench::Summary cell_summary = perfbench::Summarize(cell_seconds);

  // ru_maxrss only grows, so the smallest reading is the one taken when the
  // first fleet build finished, before any rescale or co-simulation ran.
  double rss_after_first_build_mb = counts.empty() ? 0.0 : counts[0].rss_after_build_mb;
  DcCounts total;
  StorageCellCounts storage;
  double cells = 0.0;
  for (const DcCounts& dc : counts) {
    rss_after_first_build_mb = std::min(rss_after_first_build_mb, dc.rss_after_build_mb);
    total.servers += dc.servers;
    total.distinct_traces += dc.distinct_traces;
    total.rescale_calls += dc.rescale_calls;
    total.rescale_server_samples += dc.rescale_server_samples;
    total.rescale_rss_step_mb = std::max(total.rescale_rss_step_mb, dc.rescale_rss_step_mb);
    total.classes += dc.classes;
    total.jobs_arrived += dc.jobs_arrived;
    total.jobs_completed += dc.jobs_completed;
    total.containers += dc.containers;
    total.kills += dc.kills;
    total.arena_bytes = std::max(total.arena_bytes, dc.arena_bytes);
    for (const StorageCellCounts& cell : dc.cells) {
      cells += 1.0;
      storage.blocks += cell.blocks;
      storage.reimage_events += cell.reimage_events;
      storage.replicas_destroyed += cell.replicas_destroyed;
      storage.rereplications += cell.rereplications;
      storage.accesses += cell.accesses;
      storage.failed_accesses += cell.failed_accesses;
    }
  }
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  auto layer = [&layer_self](const char* name) {
    auto it = layer_self.find(name);
    return it == layer_self.end() ? 0.0 : it->second;
  };
  const double cosim_seconds = layer("cosim.pt") + layer("cosim.h");

  std::map<std::string, double> m;
  m["trace.wall_s"] = wall_seconds;
  m["driver.dc_s_max"] = dc_summary.max;
  m["driver.dc_s_median"] = dc_summary.median;
  m["driver.dc_s_sum"] = std::accumulate(dc_seconds.begin(), dc_seconds.end(), 0.0);
  m["driver.dc_count"] = static_cast<double>(dc_summary.samples);
  m["driver.dc_unattributed_frac"] = worst_unattributed;
  m["driver.suite_s"] = layer("suite");
  m["driver.render_s"] = layer("render");
  m["executor.idle_frac"] = perfbench::IdleFraction(spans, threads, wall_seconds);
  m["fleet.build_s"] = layer("fleet_build");
  m["fleet.servers"] = total.servers;
  m["fleet.distinct_traces"] = total.distinct_traces;
  m["fleet.rss_mb"] = rss_after_first_build_mb;
  m["rescale.s"] = layer("rescale");
  m["rescale.calls"] = total.rescale_calls;
  m["rescale.server_samples"] = total.rescale_server_samples;
  m["rescale.rss_step_mb"] = total.rescale_rss_step_mb;
  m["clustering.s"] = layer("clustering");
  m["clustering.classes"] = total.classes;
  m["cosim.pt_s"] = layer("cosim.pt");
  m["cosim.h_s"] = layer("cosim.h");
  m["cosim.jobs_arrived"] = total.jobs_arrived;
  m["cosim.jobs_completed"] = total.jobs_completed;
  m["cosim.containers"] = total.containers;
  m["cosim.kills"] = total.kills;
  m["cosim.kill_ratio"] = ratio(total.kills, total.containers);
  m["cosim.containers_per_s"] = ratio(total.containers, cosim_seconds);
  m["cosim.arena_bytes"] = total.arena_bytes;
  m["placement.audit_s"] = layer("placement_audit");
  m["storage.timeline_s"] = layer("storage.timeline");
  m["storage.cells"] = cells;
  m["storage.cell_s_sum"] = layer("storage.cell");
  m["storage.cell_s_median"] = cell_summary.median;
  m["storage.cell_s_max"] = cell_summary.max;
  m["storage.blocks"] = static_cast<double>(storage.blocks);
  m["storage.reimage_events"] = static_cast<double>(storage.reimage_events);
  m["storage.replicas_destroyed"] = static_cast<double>(storage.replicas_destroyed);
  m["storage.rereplications"] = static_cast<double>(storage.rereplications);
  m["storage.rereplications_per_s"] =
      ratio(static_cast<double>(storage.rereplications), layer("storage.cell"));
  m["storage.accesses"] = static_cast<double>(storage.accesses);
  m["storage.failed_access_ratio"] = ratio(static_cast<double>(storage.failed_accesses),
                                           static_cast<double>(storage.accesses));
  return m;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), file);
  return std::fclose(file) == 0 && written == text.size();
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "traced_run: %s\nusage: traced_run --scenario=NAME [--seed=N] [--scale=F] "
               "[--threads=N] [--set KEY=VALUE]... --result=PATH --trace-events=PATH\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_name;
  std::string result_path;
  std::string trace_path;
  harvest::ScenarioRunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (eq == std::string::npos && i + 1 < argc) {
      value = argv[++i];
    }
    if (key == "--scenario") {
      scenario_name = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--scale") {
      options.scale = std::strtod(value.c_str(), nullptr);
    } else if (key == "--threads") {
      options.threads = std::atoi(value.c_str());
    } else if (key == "--set") {
      options.overrides.push_back(value);
    } else if (key == "--result") {
      result_path = value;
    } else if (key == "--trace-events") {
      trace_path = value;
    } else {
      return Usage(("unknown argument '" + arg + "'").c_str());
    }
  }
  const ScenarioConfig* preset = harvest::FindScenario(scenario_name);
  if (preset == nullptr || result_path.empty() || trace_path.empty() || options.threads < 1 ||
      !(options.scale > 0.0)) {
    return Usage("need a known --scenario, --threads >= 1, --scale > 0, --result and "
                 "--trace-events");
  }
  ScenarioConfig config = *preset;
  for (const std::string& override_text : options.overrides) {
    std::string key;
    std::string value;
    std::string error;
    if (!harvest::SplitOverride(override_text, &key, &value, &error) ||
        !harvest::ApplyScenarioOverride(config, key, value, &error)) {
      return Usage(error.c_str());
    }
  }
  const std::string config_error = harvest::ValidateScenario(config);
  if (!config_error.empty()) {
    return Usage(config_error.c_str());
  }

  SpanRecorder rec;
  std::vector<DcCounts> counts;
  harvest::ScenarioResult result;
  const double start = rec.Now();
  {
    ScopedSpan run(rec, "run", -1);
    result = TracedScenario(config, options, options.threads, rec, run.id(), counts);
    result.timing.total_seconds = rec.Now() - start;
    ScopedSpan render(rec, "render", run.id());
    harvest::RenderScenarioJson(result);
  }
  const double wall_seconds = rec.Now() - start;
  const std::vector<perfbench::Span> spans = rec.Snapshot();

  harvest::ClearTimingForDiff(result);
  if (!WriteFile(result_path, harvest::RenderScenarioJson(result)) ||
      !WriteFile(trace_path, perfbench::ChromeTraceJson(spans))) {
    std::fprintf(stderr, "traced_run: cannot write '%s' or '%s'\n", result_path.c_str(),
                 trace_path.c_str());
    return 1;
  }
  const std::map<std::string, double> metrics =
      LayerMetrics(spans, counts, options.threads, wall_seconds);
  std::string line = "{";
  for (const auto& [name, value] : metrics) {
    char field[128];
    std::snprintf(field, sizeof(field), "%s\"%s\": %.17g", line.size() > 1 ? ", " : "",
                  name.c_str(), value);
    line += field;
  }
  std::printf("%s}\n", line.c_str());
  return 0;
}
