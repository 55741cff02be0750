// harvest_sim: unified end-to-end driver over the whole library. Composes
// trace generation -> clustering (FFT / pattern / K-Means) -> Algorithm-1
// scheduling -> Algorithm-2 replica placement -> durability / availability
// experiments into one run selected by a registered scenario, and writes
// deterministic JSON results (same scenario + seed + scale => byte-identical
// output for any --threads value, suitable for diffing in CI).
//
//   ./build/harvest_sim --scenario=dc9_testbed --seed=42 --out=results.json
//   ./build/harvest_sim --scenario=fleet_sweep --set fleet_scale=0.2
//       --set replications=3,4 --threads=4 --out=-
//   ./build/harvest_sim --list-scenarios
//   ./build/harvest_sim --list-knobs

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/driver/pipeline.h"
#include "src/util/edit_distance.h"
#include "src/driver/registry.h"
#include "src/driver/scenario.h"
#include "src/fault/fault_plan.h"

namespace {

void PrintUsage(std::FILE* stream) {
  std::fprintf(stream,
               "usage: harvest_sim --scenario=NAME [--seed=N] [--scale=F] [--threads=N]\n"
               "                   [--set KEY=VALUE]... [--dump-traces=DIR] [--out=PATH]\n"
               "       harvest_sim --list-scenarios | --list-names | --list-knobs | "
               "--list-faults\n"
               "\n"
               "  --scenario=NAME  registered scenario preset (see --list-scenarios)\n"
               "  --seed=N         RNG seed; same seed => identical JSON (default 42)\n"
               "  --scale=F        size multiplier on fleets/blocks/accesses (default 1.0)\n"
               "  --threads=N      worker threads for the per-datacenter loop\n"
               "                   (default: hardware concurrency; output is byte-identical\n"
               "                   for any value)\n"
               "  --set KEY=VALUE  override one scenario knob (repeatable; see --list-knobs)\n"
               "  --dump-traces=DIR  export every datacenter's materialized fleet to\n"
               "                   DIR/<DC>.trace for exact replay via --set trace_dir=DIR\n"
               "  --out=PATH       JSON output path, '-' for stdout (default results.json)\n"
               "  --list-scenarios list registered scenarios with descriptions and exit\n"
               "  --list-names     list scenario names only, one per line (for scripts)\n"
               "  --list-knobs     list the knobs --set accepts and exit\n"
               "  --list-faults    list the fault-plan grammar --set fault_plan=... uses\n");
}

void PrintScenarios() {
  std::printf("available scenarios:\n");
  for (const auto& scenario : harvest::AllScenarios()) {
    std::printf("\n  %s\n    %s\n", scenario.name.c_str(), scenario.description.c_str());
  }
}

void PrintScenarioNames() {
  for (const auto& scenario : harvest::AllScenarios()) {
    std::printf("%s\n", scenario.name.c_str());
  }
}

void PrintKnobs() {
  std::printf("scenario knobs (--set KEY=VALUE, repeatable):\n\n");
  for (const auto& knob : harvest::ScenarioKnobs()) {
    std::printf("  %-30s %s\n  %30s   %s\n", knob.name, knob.syntax, "", knob.help);
  }
}

void PrintFaults() {
  std::printf(
      "fault-plan grammar (--set fault_plan=SPEC[+SPEC]...; times in seconds,\n"
      "racks taken modulo the fleet's rack count; \"none\" or \"\" = no faults):\n\n");
  for (const auto& entry : harvest::FaultGrammar()) {
    std::printf("  %-42s %s\n", entry.syntax, entry.help);
  }
  std::printf(
      "\nexample: --set fault_plan=rack_outage:7200,1,7200+telemetry_blackout:3600,7200\n");
}

// Accepts --key=value and --key value spellings; returns false on mismatch.
// A known flag with no value is a hard usage error rather than a fall-through
// to "unknown argument".
bool ParseOption(int argc, char** argv, int& i, const char* name, std::string& value) {
  const size_t name_len = std::strlen(name);
  if (std::strncmp(argv[i], name, name_len) != 0) {
    return false;
  }
  const char* rest = argv[i] + name_len;
  if (*rest == '=') {
    value = rest + 1;
    return true;
  }
  if (*rest != '\0') {
    return false;  // a different, longer flag name
  }
  if (i + 1 < argc) {
    value = argv[++i];
    return true;
  }
  std::fprintf(stderr, "harvest_sim: missing value for %s\n", name);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_name;
  std::string out_path = "results.json";
  harvest::ScenarioRunOptions options;
  std::vector<std::string> overrides;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--list-scenarios") == 0) {
      PrintScenarios();
      return 0;
    }
    if (std::strcmp(argv[i], "--list-names") == 0) {
      PrintScenarioNames();
      return 0;
    }
    if (std::strcmp(argv[i], "--list-knobs") == 0) {
      PrintKnobs();
      return 0;
    }
    if (std::strcmp(argv[i], "--list-faults") == 0) {
      PrintFaults();
      return 0;
    }
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      PrintUsage(stdout);
      return 0;
    }
    if (ParseOption(argc, argv, i, "--scenario", value)) {
      scenario_name = value;
    } else if (ParseOption(argc, argv, i, "--seed", value)) {
      char* end = nullptr;
      errno = 0;
      options.seed = std::strtoull(value.c_str(), &end, 10);
      // strtoull alone would wrap "-1" to 2^64-1 and clamp > 2^64-1 to
      // ULLONG_MAX; require plain in-range digits.
      if (value.empty() || end != value.c_str() + value.size() || errno == ERANGE ||
          value.find_first_not_of("0123456789") != std::string::npos) {
        std::fprintf(stderr, "harvest_sim: --seed must be a non-negative integer, got '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (ParseOption(argc, argv, i, "--scale", value)) {
      char* end = nullptr;
      options.scale = std::strtod(value.c_str(), &end);
      if (value.empty() || end != value.c_str() + value.size() ||
          !std::isfinite(options.scale) || !(options.scale > 0.0)) {
        std::fprintf(stderr, "harvest_sim: --scale must be a positive number, got '%s'\n",
                     value.c_str());
        return 2;
      }
    } else if (ParseOption(argc, argv, i, "--threads", value)) {
      char* end = nullptr;
      long threads = std::strtol(value.c_str(), &end, 10);
      if (value.empty() || end != value.c_str() + value.size() || threads < 1 ||
          threads > 1024) {
        std::fprintf(stderr, "harvest_sim: --threads must be an integer in [1, 1024], got '%s'\n",
                     value.c_str());
        return 2;
      }
      options.threads = static_cast<int>(threads);
    } else if (ParseOption(argc, argv, i, "--set", value)) {
      overrides.push_back(value);
    } else if (ParseOption(argc, argv, i, "--dump-traces", value)) {
      if (value.empty()) {
        std::fprintf(stderr, "harvest_sim: --dump-traces needs a directory path\n");
        return 2;
      }
      options.dump_traces_dir = value;
    } else if (ParseOption(argc, argv, i, "--out", value)) {
      out_path = value;
    } else {
      std::fprintf(stderr, "harvest_sim: unknown argument '%s'\n\n", argv[i]);
      PrintUsage(stderr);
      return 2;
    }
  }

  if (scenario_name.empty()) {
    PrintUsage(stderr);
    return 2;
  }
  const harvest::ScenarioConfig* scenario = harvest::FindScenario(scenario_name);
  if (scenario == nullptr) {
    std::fprintf(stderr, "harvest_sim: unknown scenario '%s'\n", scenario_name.c_str());
    // Same "did you mean" policy as the knob table (src/util/edit_distance.h).
    const harvest::ScenarioConfig* closest = nullptr;
    size_t closest_distance = 0;
    for (const harvest::ScenarioConfig& candidate : harvest::AllScenarios()) {
      const size_t distance = harvest::EditDistance(scenario_name, candidate.name);
      if (closest == nullptr || distance < closest_distance) {
        closest = &candidate;
        closest_distance = distance;
      }
    }
    if (closest != nullptr &&
        harvest::CloseEnoughToSuggest(scenario_name, closest_distance)) {
      std::fprintf(stderr, "  (did you mean '%s'?)\n", closest->name.c_str());
    }
    std::fprintf(stderr, "\n");
    PrintScenarios();
    return 2;
  }

  // Derive the run's config from the preset by applying --set overrides.
  harvest::ScenarioConfig config = *scenario;
  for (const std::string& override_text : overrides) {
    std::string key;
    std::string value;
    std::string error;
    if (!harvest::SplitOverride(override_text, &key, &value, &error)) {
      std::fprintf(stderr, "harvest_sim: %s\n", error.c_str());
      return 2;
    }
    // The two failure kinds are distinct statuses (a mistyped key vs a real
    // knob fed a bad value); the registry's messages already spell the kind
    // out, so no extra prefix is added here.
    if (harvest::ApplyScenarioOverrideStatus(config, key, value, &error) !=
        harvest::OverrideStatus::kOk) {
      std::fprintf(stderr, "harvest_sim: %s\n", error.c_str());
      return 2;
    }
  }
  options.overrides = overrides;
  std::string config_error = harvest::ValidateScenario(config);
  if (!config_error.empty()) {
    std::fprintf(stderr, "harvest_sim: %s\n", config_error.c_str());
    return 2;
  }

  std::fprintf(stderr, "harvest_sim: scenario=%s seed=%llu scale=%g overrides=%zu\n",
               config.name.c_str(), static_cast<unsigned long long>(options.seed),
               options.scale, overrides.size());
  harvest::ScenarioRunResult result = harvest::RunScenario(config, options);

  if (out_path == "-") {
    std::fwrite(result.json.data(), 1, result.json.size(), stdout);
  } else {
    std::FILE* file = std::fopen(out_path.c_str(), "wb");
    if (file == nullptr) {
      std::fprintf(stderr, "harvest_sim: cannot open '%s' for writing\n", out_path.c_str());
      return 1;
    }
    std::fwrite(result.json.data(), 1, result.json.size(), file);
    std::fclose(file);
  }

  const harvest::ScenarioSummary& s = result.summary;
  std::fprintf(stderr,
               "harvest_sim: %d datacenter(s), %zu servers, %zu tenants\n"
               "harvest_sim: jobs completed %lld; mean H improvement %.1f%%\n"
               "harvest_sim: worst lost blocks -- stock %.4f%%, history %.4f%%\n"
               "harvest_sim: wrote %zu bytes to %s\n",
               s.datacenters, s.servers, s.tenants, static_cast<long long>(s.jobs_completed),
               s.mean_scheduling_improvement_percent, s.worst_stock_lost_percent,
               s.worst_history_lost_percent, result.json.size(), out_path.c_str());
  return 0;
}
