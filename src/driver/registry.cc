#include "src/driver/registry.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "src/cluster/datacenter.h"
#include "src/fault/fault_plan.h"
#include "src/power/price_curve.h"
#include "src/trace/trace_io.h"
#include "src/trace/trace_source.h"
#include "src/util/edit_distance.h"
#include "src/util/logging.h"

namespace harvest {

bool ScenarioRegistry::Register(ScenarioConfig config, std::string* error) {
  if (config.name.empty()) {
    if (error != nullptr) {
      *error = "scenario name must not be empty";
    }
    return false;
  }
  if (Find(config.name) != nullptr) {
    if (error != nullptr) {
      *error = "scenario '" + config.name + "' is already registered";
    }
    return false;
  }
  scenarios_.push_back(std::move(config));
  return true;
}

const ScenarioConfig* ScenarioRegistry::Find(std::string_view name) const {
  for (const auto& scenario : scenarios_) {
    if (scenario.name == name) {
      return &scenario;
    }
  }
  return nullptr;
}

ScenarioRegistry& BuiltinScenarios() {
  static ScenarioRegistry* registry = [] {
    auto* r = new ScenarioRegistry;
    for (ScenarioConfig& config : BuiltinScenarioList()) {
      std::string error;
      bool ok = r->Register(std::move(config), &error);
      HARVEST_CHECK(ok) << "builtin scenario registration failed: " << error;
    }
    return r;
  }();
  return *registry;
}

const std::vector<ScenarioConfig>& AllScenarios() { return BuiltinScenarios().scenarios(); }

const ScenarioConfig* FindScenario(std::string_view name) {
  return BuiltinScenarios().Find(name);
}

// --- Knob table -----------------------------------------------------------

namespace {

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) {
    *error = std::move(message);
  }
  return false;
}

bool ParseBool(std::string_view text, bool* out, std::string* error) {
  if (text == "true" || text == "1" || text == "on") {
    *out = true;
    return true;
  }
  if (text == "false" || text == "0" || text == "off") {
    *out = false;
    return true;
  }
  return Fail(error, "expected a boolean (true/false/1/0/on/off), got '" +
                         std::string(text) + "'");
}

bool ParseDouble(std::string_view text, double* out, std::string* error) {
  std::string buffer(text);
  char* end = nullptr;
  errno = 0;
  double value = std::strtod(buffer.c_str(), &end);
  if (buffer.empty() || end != buffer.c_str() + buffer.size() || errno == ERANGE ||
      !std::isfinite(value)) {
    return Fail(error, "expected a finite number, got '" + buffer + "'");
  }
  *out = value;
  return true;
}

bool ParseInt64(std::string_view text, int64_t* out, std::string* error) {
  std::string buffer(text);
  char* end = nullptr;
  errno = 0;
  long long value = std::strtoll(buffer.c_str(), &end, 10);
  if (buffer.empty() || end != buffer.c_str() + buffer.size() || errno == ERANGE) {
    return Fail(error, "expected an integer (in range), got '" + buffer + "'");
  }
  *out = static_cast<int64_t>(value);
  return true;
}

// Shared by the member-pointer knob factories and the nested-member knobs
// (clustering.*), so every integer knob gets the same range discipline.
bool ParsePositiveInt(std::string_view text, int64_t max_value, int64_t* out,
                      std::string* error) {
  if (!ParseInt64(text, out, error)) {
    return false;
  }
  if (*out <= 0 || *out > max_value) {
    return Fail(error, "value must be a positive integer <= " + std::to_string(max_value));
  }
  return true;
}

bool ParseNonNegativeDouble(std::string_view text, double* out, std::string* error) {
  if (!ParseDouble(text, out, error)) {
    return false;
  }
  if (*out < 0.0) {
    return Fail(error, "value must be >= 0");
  }
  return true;
}

std::vector<std::string_view> SplitList(std::string_view text) {
  std::vector<std::string_view> items;
  while (!text.empty()) {
    size_t comma = text.find(',');
    items.push_back(text.substr(0, comma));
    if (comma == std::string_view::npos) {
      break;
    }
    text.remove_prefix(comma + 1);
  }
  return items;
}

// "12x32768@0.5" -> {cores 12, memory 32768 MB, weight 0.5}.
bool ParseShape(std::string_view text, ServerShape* out, std::string* error) {
  size_t x = text.find('x');
  size_t at = text.find('@');
  if (x == std::string_view::npos || at == std::string_view::npos || at < x) {
    return Fail(error, "expected CORESxMEMORY_MB@WEIGHT, got '" + std::string(text) + "'");
  }
  int64_t cores = 0;
  int64_t memory = 0;
  double weight = 0.0;
  if (!ParseInt64(text.substr(0, x), &cores, error) ||
      !ParseInt64(text.substr(x + 1, at - x - 1), &memory, error) ||
      !ParseDouble(text.substr(at + 1), &weight, error)) {
    return false;
  }
  if (cores <= 0 || memory <= 0 || weight <= 0.0) {
    return Fail(error, "server shape fields must be positive in '" + std::string(text) + "'");
  }
  out->capacity = Resources{static_cast<int>(cores), static_cast<int>(memory)};
  out->weight = weight;
  return true;
}

using Apply = std::function<bool(ScenarioConfig&, std::string_view, std::string*)>;

Apply BoolKnob(bool ScenarioConfig::* field) {
  return [field](ScenarioConfig& config, std::string_view value, std::string* error) {
    return ParseBool(value, &(config.*field), error);
  };
}

Apply PositiveDoubleKnob(double ScenarioConfig::* field) {
  return [field](ScenarioConfig& config, std::string_view value, std::string* error) {
    double parsed = 0.0;
    if (!ParseDouble(value, &parsed, error)) {
      return false;
    }
    if (parsed <= 0.0) {
      return Fail(error, "value must be > 0");
    }
    config.*field = parsed;
    return true;
  };
}

Apply FractionKnob(double ScenarioConfig::* field) {
  return [field](ScenarioConfig& config, std::string_view value, std::string* error) {
    double parsed = 0.0;
    if (!ParseDouble(value, &parsed, error)) {
      return false;
    }
    if (parsed < 0.0 || parsed > 1.0) {
      return Fail(error, "value must be in [0, 1]");
    }
    config.*field = parsed;
    return true;
  };
}

// String-valued knob: any non-empty value is accepted verbatim. The knob
// table was numeric/list-only before trace replay needed a path knob; string
// knobs go through the same Apply signature so the error machinery (unknown
// key vs bad value, did-you-mean) is shared.
Apply StringKnob(std::string ScenarioConfig::* field) {
  return [field](ScenarioConfig& config, std::string_view value, std::string* error) {
    if (value.empty()) {
      return Fail(error, "value must not be empty");
    }
    config.*field = std::string(value);
    return true;
  };
}

// Shard-count knobs: 0 means "auto from fleet size", so zero is valid.
Apply ShardCountKnob(int ScenarioConfig::* field) {
  return [field](ScenarioConfig& config, std::string_view value, std::string* error) {
    int64_t parsed = 0;
    if (!ParseInt64(value, &parsed, error)) {
      return false;
    }
    if (parsed < 0 || parsed > 4096) {
      return Fail(error, "value must be an integer in [0, 4096] (0 = auto)");
    }
    config.*field = static_cast<int>(parsed);
    return true;
  };
}

template <typename Int>
Apply PositiveIntKnob(Int ScenarioConfig::* field) {
  // Cap at what the target field type holds (and a generous absolute bound
  // for the 64-bit count fields) so values never truncate or wrap silently.
  constexpr int64_t kCountCap = int64_t{1} << 40;
  constexpr int64_t kMax = sizeof(Int) < 8
                               ? static_cast<int64_t>(std::numeric_limits<Int>::max())
                               : kCountCap;
  return [field](ScenarioConfig& config, std::string_view value, std::string* error) {
    int64_t parsed = 0;
    if (!ParsePositiveInt(value, kMax, &parsed, error)) {
      return false;
    }
    config.*field = static_cast<Int>(parsed);
    return true;
  };
}

std::vector<ScenarioKnob> MakeKnobs() {
  std::vector<ScenarioKnob> knobs;
  auto add = [&knobs](const char* name, const char* syntax, const char* help, Apply apply) {
    knobs.push_back(ScenarioKnob{name, syntax, help, std::move(apply)});
  };

  add("trace_dir", "directory path",
      "replay fleets from <dir>/<DC>.trace files (see --dump-traces) instead of generating",
      StringKnob(&ScenarioConfig::trace_dir));
  add("use_testbed", "bool", "run the 21-tenant DC-9 testbed instead of `datacenters`",
      BoolKnob(&ScenarioConfig::use_testbed));
  add("testbed_servers", "int > 0", "testbed fleet size",
      PositiveIntKnob(&ScenarioConfig::testbed_servers));
  add("datacenters", "comma list of DC-0..DC-9",
      "datacenter profiles to run, e.g. DC-1,DC-4",
      [](ScenarioConfig& config, std::string_view value, std::string* error) {
        std::vector<std::string> names;
        for (std::string_view item : SplitList(value)) {
          std::string name(item);
          bool known = false;
          for (const auto& profile : AllDatacenterProfiles()) {
            known = known || profile.name == name;
          }
          if (name.empty() || !known) {
            return Fail(error, "unknown datacenter '" + name + "' (expected DC-0..DC-9)");
          }
          names.push_back(std::move(name));
        }
        if (names.empty()) {
          return Fail(error, "datacenter list must not be empty");
        }
        config.datacenters = std::move(names);
        return true;
      });
  add("fleet_scale", "double > 0", "tenant-count multiplier for profile fleets",
      PositiveDoubleKnob(&ScenarioConfig::fleet_scale));
  add("trace_slots", "int > 0", "2-minute telemetry slots per trace (720 = one day)",
      PositiveIntKnob(&ScenarioConfig::trace_slots));
  add("reimage_months", "int > 0", "months of reimage events to generate",
      PositiveIntKnob(&ScenarioConfig::reimage_months));
  add("per_server_traces", "bool", "materialize per-server (vs shared per-tenant) traces",
      BoolKnob(&ScenarioConfig::per_server_traces));
  add("rm_shards", "int >= 0", "RM accounting shards (0 = auto from fleet size)",
      ShardCountKnob(&ScenarioConfig::rm_shards));
  add("nn_shards", "int >= 0", "NameNode accounting shards (0 = auto from fleet size)",
      ShardCountKnob(&ScenarioConfig::nn_shards));
  add("reimage_storm", "bool", "boost correlated mass-reimage events",
      BoolKnob(&ScenarioConfig::reimage_storm));
  add("storm_monthly_prob", "double in [0, 1]", "monthly mass-event probability per tenant",
      FractionKnob(&ScenarioConfig::storm_monthly_prob));
  add("storm_fraction", "double in [0, 1]", "fraction of a tenant's servers wiped per event",
      FractionKnob(&ScenarioConfig::storm_fraction));
  add("server_shapes", "list of CORESxMEMORY_MB@WEIGHT",
      "heterogeneous SKU mix, e.g. 12x32768@0.6,24x65536@0.4 (empty default = homogeneous)",
      [](ScenarioConfig& config, std::string_view value, std::string* error) {
        std::vector<ServerShape> shapes;
        for (std::string_view item : SplitList(value)) {
          ServerShape shape;
          if (!ParseShape(item, &shape, error)) {
            return false;
          }
          shapes.push_back(shape);
        }
        if (shapes.empty()) {
          return Fail(error, "server shape list must not be empty");
        }
        config.server_shapes = std::move(shapes);
        return true;
      });
  add("max_classes_per_pattern", "int > 0", "K-Means cap per behavior pattern",
      [](ScenarioConfig& config, std::string_view value, std::string* error) {
        int64_t parsed = 0;
        if (!ParsePositiveInt(value, std::numeric_limits<int>::max(), &parsed, error)) {
          return false;
        }
        config.clustering.max_classes_per_pattern = static_cast<int>(parsed);
        return true;
      });
  add("elbow_min_gain", "double >= 0", "relative gain a further K-Means class must add",
      [](ScenarioConfig& config, std::string_view value, std::string* error) {
        double parsed = 0.0;
        if (!ParseNonNegativeDouble(value, &parsed, error)) {
          return false;
        }
        config.clustering.elbow_min_gain = parsed;
        return true;
      });
  add("run_scheduling", "bool", "run the Algorithm-1 scheduling co-simulation",
      BoolKnob(&ScenarioConfig::run_scheduling));
  add("scheduling_horizon_seconds", "double in (0, 31536000]",
      "co-simulation horizon, at most one year",
      [](ScenarioConfig& config, std::string_view value, std::string* error) {
        // The job stream is generated up front over the whole horizon, so an
        // unbounded horizon is an unbounded allocation. One year is far past
        // every preset (the longest runs a day).
        constexpr double kMaxHorizonSeconds = 365.0 * 24.0 * 3600.0;
        double parsed = 0.0;
        if (!ParseDouble(value, &parsed, error)) {
          return false;
        }
        if (parsed <= 0.0 || parsed > kMaxHorizonSeconds) {
          return Fail(error, "value must be > 0 and at most one year (31536000 seconds)");
        }
        config.scheduling_horizon_seconds = parsed;
        return true;
      });
  add("mean_interarrival_seconds", "double > 0", "Poisson job interarrival mean",
      PositiveDoubleKnob(&ScenarioConfig::mean_interarrival_seconds));
  add("job_duration_factor", "double > 0", "job length multiplier (§6.1 scaling)",
      PositiveDoubleKnob(&ScenarioConfig::job_duration_factor));
  add("scheduling_storage", "none | stock | primary_aware | history",
      "HDFS flavor co-simulated with the scheduler",
      [](ScenarioConfig& config, std::string_view value, std::string* error) {
        if (value == "none") {
          config.scheduling_storage = StorageVariant::kNone;
        } else if (value == "stock") {
          config.scheduling_storage = StorageVariant::kStock;
        } else if (value == "primary_aware") {
          config.scheduling_storage = StorageVariant::kPrimaryAware;
        } else if (value == "history") {
          config.scheduling_storage = StorageVariant::kHistory;
        } else {
          return Fail(error, "expected none, stock, primary_aware or history, got '" +
                                 std::string(value) + "'");
        }
        return true;
      });
  add("scheduling_target_utilization", "double in [0, 1]",
      "root-scale the fleet to this average before scheduling (0 = as generated)",
      FractionKnob(&ScenarioConfig::scheduling_target_utilization));
  add("power_accounting", "bool",
      "energy / cost accounting riding the scheduling co-simulation (adds the "
      "\"energy\" block)",
      BoolKnob(&ScenarioConfig::power_accounting));
  add("energy_price", "flat:P | diurnal:BASE,AMP,PEAK_HOUR",
      "electricity price curve in $/kWh, e.g. diurnal:0.08,0.05,18",
      [](ScenarioConfig& config, std::string_view value, std::string* error) {
        PriceCurve curve;
        std::string detail;
        if (!PriceCurve::Parse(value, &curve, &detail)) {
          return Fail(error, detail);
        }
        config.energy_price = std::string(value);
        return true;
      });
  add("price_phase_hours", "double >= 0",
      "shift DC i's price peak later by i * this many hours (time-zone spread)",
      [](ScenarioConfig& config, std::string_view value, std::string* error) {
        return ParseNonNegativeDouble(value, &config.price_phase_hours, error);
      });
  add("rightsizing", "bool", "park / unpark primary-idle servers (H runs only)",
      BoolKnob(&ScenarioConfig::rightsizing));
  add("park_threshold", "double in [0, 1]",
      "park when live and day-ago primary utilization are both at or below this",
      FractionKnob(&ScenarioConfig::park_threshold));
  add("defer_waves", "bool",
      "defer eligible medium/long H jobs into the day-ago forecast valley",
      BoolKnob(&ScenarioConfig::defer_waves));
  add("defer_window_hours", "double > 0", "how far ahead deferral may shift a job",
      PositiveDoubleKnob(&ScenarioConfig::defer_window_hours));
  add("defer_min_gain", "double >= 0",
      "minimum forecast-utilization drop a deferral must gain",
      [](ScenarioConfig& config, std::string_view value, std::string* error) {
        return ParseNonNegativeDouble(value, &config.defer_min_gain, error);
      });
  add("power_cap_watts", "double >= 0",
      "fleet power cap: count violations and force deferral above it (0 = none)",
      [](ScenarioConfig& config, std::string_view value, std::string* error) {
        return ParseNonNegativeDouble(value, &config.power_cap_watts, error);
      });
  add("placement_sample_blocks", "int > 0", "blocks sampled by the placement audit",
      PositiveIntKnob(&ScenarioConfig::placement_sample_blocks));
  add("run_durability", "bool", "run the storage durability grid",
      BoolKnob(&ScenarioConfig::run_durability));
  add("storage_blocks", "int > 0", "blocks created per cell of the storage co-simulation grid",
      PositiveIntKnob(&ScenarioConfig::storage_blocks));
  add("access_rate", "double >= 0",
      "client accesses per hour injected into the durability timeline (0 = none)",
      [](ScenarioConfig& config, std::string_view value, std::string* error) {
        return ParseNonNegativeDouble(value, &config.access_rate, error);
      });
  add("placement_kinds", "comma list of stock|history|random|greedy|soft",
      "placement flavors in the storage grid, e.g. stock,history",
      [](ScenarioConfig& config, std::string_view value, std::string* error) {
        std::vector<PlacementKind> kinds;
        for (std::string_view item : SplitList(value)) {
          PlacementKind kind;
          if (!ParsePlacementKind(item, &kind)) {
            return Fail(error, "unknown placement kind '" + std::string(item) +
                                   "' (expected stock, history, random, greedy or soft)");
          }
          if (std::find(kinds.begin(), kinds.end(), kind) != kinds.end()) {
            return Fail(error, "duplicate placement kind '" + std::string(item) + "'");
          }
          kinds.push_back(kind);
        }
        if (kinds.empty()) {
          return Fail(error, "placement kind list must not be empty");
        }
        config.placement_kinds = std::move(kinds);
        return true;
      });
  add("replications", "comma list of ints in [1, 16]",
      "replication factors compared, e.g. 3,4",
      [](ScenarioConfig& config, std::string_view value, std::string* error) {
        std::vector<int> replications;
        for (std::string_view item : SplitList(value)) {
          int64_t parsed = 0;
          if (!ParseInt64(item, &parsed, error)) {
            return false;
          }
          if (parsed < 1 || parsed > 16) {
            return Fail(error, "replication factors must be in [1, 16]");
          }
          replications.push_back(static_cast<int>(parsed));
        }
        if (replications.empty()) {
          return Fail(error, "replication list must not be empty");
        }
        config.replications = std::move(replications);
        return true;
      });
  add("run_availability", "bool", "run the availability experiment",
      BoolKnob(&ScenarioConfig::run_availability));
  add("availability_blocks", "int > 0", "blocks placed for the availability experiment",
      PositiveIntKnob(&ScenarioConfig::availability_blocks));
  add("availability_accesses", "int > 0", "block accesses issued per sweep point",
      PositiveIntKnob(&ScenarioConfig::availability_accesses));
  add("availability_utilizations", "comma list of doubles in (0, 1)",
      "target utilizations swept, e.g. 0.3,0.5,0.7",
      [](ScenarioConfig& config, std::string_view value, std::string* error) {
        std::vector<double> targets;
        for (std::string_view item : SplitList(value)) {
          double parsed = 0.0;
          if (!ParseDouble(item, &parsed, error)) {
            return false;
          }
          if (parsed <= 0.0 || parsed >= 1.0) {
            return Fail(error, "target utilizations must be in (0, 1)");
          }
          targets.push_back(parsed);
        }
        if (targets.empty()) {
          return Fail(error, "target utilization list must not be empty");
        }
        config.availability_utilizations = std::move(targets);
        return true;
      });
  add("fault_plan", "'+'-separated fault specs, or none",
      "inject faults, e.g. rack_outage:7200,1,7200 (grammar: harvest_sim --list-faults)",
      [](ScenarioConfig& config, std::string_view value, std::string* error) {
        FaultPlan plan;
        std::string detail;
        if (!ParseFaultPlan(std::string(value), &plan, &detail)) {
          return Fail(error, detail);
        }
        config.fault_plan = std::string(value);
        return true;
      });
  add("forecast_fallback", "bool",
      "degrade RM-H to live-availability placement during telemetry blackouts",
      BoolKnob(&ScenarioConfig::forecast_fallback));
  add("max_inflight_heals_per_shard", "int >= 0",
      "bound on concurrent heals per NameNode shard (0 = unbounded)",
      [](ScenarioConfig& config, std::string_view value, std::string* error) {
        int64_t parsed = 0;
        if (!ParseInt64(value, &parsed, error)) {
          return false;
        }
        if (parsed < 0 || parsed > 1000000) {
          return Fail(error, "expected an integer in [0, 1000000]");
        }
        config.max_inflight_heals_per_shard = static_cast<int>(parsed);
        return true;
      });
  add("heal_backoff_base_seconds", "double >= 0",
      "initial retry backoff for heals that lost their source or target (0 = instant)",
      [](ScenarioConfig& config, std::string_view value, std::string* error) {
        return ParseNonNegativeDouble(value, &config.heal_backoff_base_seconds, error);
      });
  add("heal_backoff_max_seconds", "double > 0",
      "cap on the exponential heal retry backoff",
      PositiveDoubleKnob(&ScenarioConfig::heal_backoff_max_seconds));
  return knobs;
}

}  // namespace

const std::vector<ScenarioKnob>& ScenarioKnobs() {
  static const std::vector<ScenarioKnob>* knobs = new std::vector<ScenarioKnob>(MakeKnobs());
  return *knobs;
}

bool SplitOverride(std::string_view text, std::string* key, std::string* value,
                   std::string* error) {
  size_t eq = text.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    return Fail(error, "override '" + std::string(text) + "' is not of the form key=value");
  }
  *key = std::string(text.substr(0, eq));
  *value = std::string(text.substr(eq + 1));
  return true;
}

OverrideStatus ApplyScenarioOverrideStatus(ScenarioConfig& config, std::string_view key,
                                           std::string_view value, std::string* error) {
  for (const ScenarioKnob& knob : ScenarioKnobs()) {
    if (key == knob.name) {
      std::string detail;
      if (!knob.apply(config, value, &detail)) {
        Fail(error, "invalid value for " + std::string(key) + " (" + knob.syntax +
                        "): " + detail);
        return OverrideStatus::kBadValue;
      }
      return OverrideStatus::kOk;
    }
  }
  const ScenarioKnob* closest = nullptr;
  size_t best = std::string_view::npos;
  for (const ScenarioKnob& knob : ScenarioKnobs()) {
    size_t distance = EditDistance(key, knob.name);
    if (best == std::string_view::npos || distance < best) {
      best = distance;
      closest = &knob;
    }
  }
  std::string message = "unknown scenario knob '" + std::string(key) + "'";
  if (closest != nullptr && CloseEnoughToSuggest(key, best)) {
    message += "; did you mean '" + std::string(closest->name) + "'?";
  }
  Fail(error, message + " (see harvest_sim --list-knobs)");
  return OverrideStatus::kUnknownKey;
}

bool ApplyScenarioOverride(ScenarioConfig& config, std::string_view key,
                           std::string_view value, std::string* error) {
  return ApplyScenarioOverrideStatus(config, key, value, error) == OverrideStatus::kOk;
}

std::string ValidateScenario(const ScenarioConfig& config) {
  if (config.use_testbed && !config.server_shapes.empty()) {
    return "server_shapes has no effect with use_testbed=true (the paper's 102-server "
           "testbed is homogeneous); set use_testbed=false and pick datacenters instead";
  }
  if (!config.use_testbed && config.datacenters.empty()) {
    return "datacenters must not be empty when use_testbed=false";
  }
  FaultPlan fault_plan;
  {
    std::string error;
    if (!ParseFaultPlan(config.fault_plan, &fault_plan, &error)) {
      return "invalid fault_plan: " + error;
    }
  }
  const TraceSource source = MakeTraceSource(config);
  if (source.is_replay()) {
    // Resolve every datacenter's trace file and check its header up front,
    // so a typo'd directory or label (with did-you-mean) or a bad header is
    // an error before any work runs, not a mid-run abort from the
    // fleet-build stage. Payload integrity is still checked at read time.
    for (const std::string& label : ScenarioLabels(config)) {
      std::string path;
      std::string error;
      TraceFileInfo info;
      if (!source.ResolveTraceFile(label, &path, &error) ||
          !ReadTraceFileHeader(path, &info, &error)) {
        return error;
      }
    }
    // The recorded run's fault plan is part of what the traces (and any
    // goldens derived from them) mean: replaying under a different plan is
    // rejected instead of silently producing a run the capture never saw.
    // A manifest without the line (or no manifest at all, for hand-built
    // directories) records the fault-free era and means "none".
    std::string resolved;
    std::string resolve_error;
    if (source.ResolveDirectory(&resolved, &resolve_error)) {
      std::string recorded = "none";
      std::ifstream manifest(resolved + "/MANIFEST.txt");
      std::string line;
      static constexpr std::string_view kFaultLine = "fault_plan: ";
      while (std::getline(manifest, line)) {
        if (line.rfind(kFaultLine, 0) == 0) {
          recorded = line.substr(kFaultLine.size());
          break;
        }
      }
      const std::string active = CanonicalFaultPlan(fault_plan);
      if (recorded != active) {
        return "fault_plan mismatch: trace directory '" + config.trace_dir +
               "' was captured with fault_plan '" + recorded + "' but this run sets '" +
               active + "'; replay with the recorded plan or re-capture the traces";
      }
    }
  }
  return "";
}

}  // namespace harvest
