#include "src/trace/scaling.h"

#include <algorithm>
#include <cmath>

#include "src/util/logging.h"

namespace harvest {

namespace {

double ApplyScale(double u, ScalingMethod method, double parameter) {
  switch (method) {
    case ScalingMethod::kLinear:
      return std::min(1.0, parameter * u);
    case ScalingMethod::kRoot:
      return u <= 0.0 ? 0.0 : std::pow(u, parameter);
  }
  return u;
}

struct AverageAndSlope {
  double average = 0.0;
  double slope = 0.0;
};

// Scaled sample average of the population at `parameter`, and its derivative
// in the parameter: the mean of u^p·ln u for root scaling, and of u over the
// unsaturated samples (f·u < 1) for linear scaling. Each trace is summed
// once and weighted by its count.
AverageAndSlope ScaledAverage(const std::vector<WeightedTrace>& population,
                              ScalingMethod method, double parameter) {
  double sum = 0.0;
  double slope = 0.0;
  double count = 0.0;
  for (const WeightedTrace& entry : population) {
    double trace_sum = 0.0;
    double trace_slope = 0.0;
    for (double u : entry.trace->samples()) {
      const double v = ApplyScale(u, method, parameter);
      trace_sum += v;
      if (method == ScalingMethod::kLinear) {
        trace_slope += v < 1.0 ? u : 0.0;
      } else if (u > 0.0) {
        trace_slope += v * std::log(u);
      }
    }
    const double weight = static_cast<double>(entry.count);
    sum += weight * trace_sum;
    slope += weight * trace_slope;
    count += weight * static_cast<double>(entry.trace->size());
  }
  if (count == 0.0) {
    return {};
  }
  return {sum / count, slope / count};
}

}  // namespace

const char* ScalingMethodName(ScalingMethod method) {
  switch (method) {
    case ScalingMethod::kLinear:
      return "linear";
    case ScalingMethod::kRoot:
      return "root";
  }
  return "unknown";
}

UtilizationTrace ScaleTrace(const UtilizationTrace& trace, ScalingMethod method,
                            double parameter) {
  std::vector<double> scaled(trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    scaled[i] = ApplyScale(trace.AtSlot(i), method, parameter);
  }
  return UtilizationTrace(std::move(scaled));
}

double SolveScalingParameter(const std::vector<WeightedTrace>& population, ScalingMethod method,
                             double target_average) {
  HARVEST_CHECK(target_average > 0.0 && target_average < 1.0)
      << "target average must be in (0,1), got " << target_average;

  // The scaled average is monotone in the parameter for both methods
  // (increasing in the factor for linear, decreasing in the power for root),
  // so the sign of each residual says which side of the root the evaluated
  // point lies on, and that end of the bracket moves to it. Bracket
  // generously.
  const bool increasing = method == ScalingMethod::kLinear;
  double lo = increasing ? 0.0 : 0.01;   // root: u^0.01 -> ~1 (max utilization)
  double hi = increasing ? 200.0 : 50.0;  // root: u^50 -> ~0
  // Newton converges quadratically here, so once a step is this small the
  // stepped-to point is within rounding of the root.
  constexpr double kRelativeStep = 1e-12;
  constexpr int kMaxIterations = 100;  // bisection alone needs under 50
  double x = 1.0;
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    const AverageAndSlope at = ScaledAverage(population, method, x);
    const double residual = at.average - target_average;
    if (residual == 0.0) {
      return x;
    }
    if ((residual < 0.0) == increasing) {
      lo = x;
    } else {
      hi = x;
    }
    // Bisect when the Newton step would leave the bracket, or has no slope
    // to step on (every sample saturated or zero).
    double next = 0.5 * (lo + hi);
    if (at.slope != 0.0) {
      const double newton = x - residual / at.slope;
      if (newton > lo && newton < hi) {
        next = newton;
      }
    }
    if (std::abs(next - x) <= kRelativeStep * x) {
      return next;
    }
    x = next;
  }
  return x;
}

double SolveScalingParameter(const std::vector<UtilizationTrace>& traces, ScalingMethod method,
                             double target_average) {
  std::vector<WeightedTrace> population;
  population.reserve(traces.size());
  for (const UtilizationTrace& trace : traces) {
    population.push_back({&trace, 1});
  }
  return SolveScalingParameter(population, method, target_average);
}

std::vector<UtilizationTrace> ScaleToAverage(const std::vector<UtilizationTrace>& traces,
                                             ScalingMethod method, double target_average) {
  double parameter = SolveScalingParameter(traces, method, target_average);
  std::vector<UtilizationTrace> scaled;
  scaled.reserve(traces.size());
  for (const auto& trace : traces) {
    scaled.push_back(ScaleTrace(trace, method, parameter));
  }
  return scaled;
}

}  // namespace harvest
