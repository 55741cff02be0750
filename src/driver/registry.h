// Scenario registration and per-run knob overrides for the harvest_sim
// driver. The registry replaces the old hard-coded preset vector: built-in
// presets register themselves into BuiltinScenarios() at startup, and new
// scenarios can be derived on the command line from any registered preset
// via `--set key=value` overrides resolved against the knob table below.
//
// Every knob name maps 1:1 onto a ScenarioConfig field; unknown keys and
// malformed values are usage errors with a human-readable message, never
// silent fall-throughs.

#ifndef HARVEST_SRC_DRIVER_REGISTRY_H_
#define HARVEST_SRC_DRIVER_REGISTRY_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/driver/scenario.h"

namespace harvest {

// An ordered collection of named scenarios. Instantiable so tests can build
// throwaway registries; production code uses the BuiltinScenarios()
// singleton.
class ScenarioRegistry {
 public:
  ScenarioRegistry() = default;

  // Registers `config` under config.name. Fails (returning false and setting
  // `error` when provided) on an empty name or a duplicate registration.
  bool Register(ScenarioConfig config, std::string* error = nullptr);

  // nullptr when unknown. The pointer is valid until the next Register()
  // call (which may reallocate); copy the config to keep it longer.
  const ScenarioConfig* Find(std::string_view name) const;

  const std::vector<ScenarioConfig>& scenarios() const { return scenarios_; }

 private:
  std::vector<ScenarioConfig> scenarios_;
};

// The process-wide registry, pre-populated with BuiltinScenarioList().
ScenarioRegistry& BuiltinScenarios();

// --- Knob table -----------------------------------------------------------

// One overridable ScenarioConfig field.
struct ScenarioKnob {
  const char* name;
  // Human-readable value syntax, e.g. "double > 0" or "list of DC names".
  const char* syntax;
  const char* help;
  // Parses `value` into `config`; returns false and sets `error` on a
  // malformed or out-of-range value.
  std::function<bool(ScenarioConfig&, std::string_view value, std::string* error)> apply;
};

// All knobs, in ScenarioConfig declaration order.
const std::vector<ScenarioKnob>& ScenarioKnobs();

// Splits a `key=value` override string. Returns false with an error message
// when the '=' is missing or the key is empty.
bool SplitOverride(std::string_view text, std::string* key, std::string* value,
                   std::string* error);

// How one override application ended. The two failure kinds are distinct on
// purpose: an unknown key means the caller mistyped a knob name (fixable via
// --list-knobs / the did-you-mean suggestion), a bad value means the knob exists
// but the value failed its parser -- callers and tests must never have to
// grep the message text to tell them apart.
enum class OverrideStatus {
  kOk = 0,
  kUnknownKey,
  kBadValue,
};

// Applies one override to `config`. Unknown keys and malformed values fail
// with a message naming the key (and, for unknown keys, the closest match),
// and report which of the two it was in the return value.
OverrideStatus ApplyScenarioOverrideStatus(ScenarioConfig& config, std::string_view key,
                                           std::string_view value, std::string* error);

// Back-compat boolean wrapper: true iff OverrideStatus::kOk.
bool ApplyScenarioOverride(ScenarioConfig& config, std::string_view key,
                           std::string_view value, std::string* error);

// Cross-knob consistency checks, run after all overrides are applied (a
// single knob can't see the final config). Returns an empty string when the
// config is runnable, else a usage-error message — e.g. server_shapes on a
// testbed scenario (the paper's testbed is homogeneous by construction, so
// the knob would be silently ignored) or an empty datacenter list.
std::string ValidateScenario(const ScenarioConfig& config);

}  // namespace harvest

#endif  // HARVEST_SRC_DRIVER_REGISTRY_H_
