// Utilization scaling used by the simulator to sweep the full utilization
// spectrum (paper §6.1): linear scaling multiplies the series by a constant
// and saturates at 100%; root scaling applies a power function so that high
// utilizations move less than low ones, avoiding saturation artifacts.

#ifndef HARVEST_SRC_TRACE_SCALING_H_
#define HARVEST_SRC_TRACE_SCALING_H_

#include <cstdint>
#include <vector>

#include "src/trace/utilization_trace.h"

namespace harvest {

enum class ScalingMethod {
  kLinear = 0,  // u' = min(1, f * u)
  kRoot = 1,    // u' = u^p  (p < 1 raises utilization, p > 1 lowers it)
};

const char* ScalingMethodName(ScalingMethod method);

// Scales a single trace with a fixed factor/power.
UtilizationTrace ScaleTrace(const UtilizationTrace& trace, ScalingMethod method, double parameter);

// `count` copies of `*trace` in a population: a fleet passes each distinct
// (pooled) trace once, weighted by the number of servers sharing it.
struct WeightedTrace {
  const UtilizationTrace* trace = nullptr;
  int64_t count = 0;
};

// Finds the parameter such that the sample average of the population, after
// scaling, equals `target_average` (in (0, 1)). Returns the parameter; the
// traces themselves are not modified. Serial and deterministic: a Newton
// step on the analytic derivative from parameter 1, kept inside a shrinking
// bracket and replaced by bisection whenever it would leave it. A target
// the population cannot reach returns the bracket end nearest to it.
double SolveScalingParameter(const std::vector<WeightedTrace>& population, ScalingMethod method,
                             double target_average);

// Unit-weight form: every trace counts once.
double SolveScalingParameter(const std::vector<UtilizationTrace>& traces, ScalingMethod method,
                             double target_average);

// Convenience: scales every trace so the population average hits
// `target_average`.
std::vector<UtilizationTrace> ScaleToAverage(const std::vector<UtilizationTrace>& traces,
                                             ScalingMethod method, double target_average);

}  // namespace harvest

#endif  // HARVEST_SRC_TRACE_SCALING_H_
