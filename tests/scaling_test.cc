#include "src/trace/scaling.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/trace/generators.h"

namespace harvest {
namespace {

std::vector<UtilizationTrace> MakeTraces(uint64_t seed) {
  Rng rng(seed);
  std::vector<UtilizationTrace> traces;
  PeriodicTraceParams periodic;
  traces.push_back(GeneratePeriodicTrace(periodic, 2000, rng));
  ConstantTraceParams constant;
  traces.push_back(GenerateConstantTrace(constant, 2000, rng));
  UnpredictableTraceParams wild;
  traces.push_back(GenerateUnpredictableTrace(wild, 2000, rng));
  return traces;
}

double PopulationAverage(const std::vector<UtilizationTrace>& traces) {
  double sum = 0.0;
  size_t count = 0;
  for (const auto& t : traces) {
    for (double v : t.samples()) {
      sum += v;
      ++count;
    }
  }
  return sum / static_cast<double>(count);
}

TEST(ScalingTest, MethodNames) {
  EXPECT_STREQ(ScalingMethodName(ScalingMethod::kLinear), "linear");
  EXPECT_STREQ(ScalingMethodName(ScalingMethod::kRoot), "root");
}

TEST(ScalingTest, LinearScaleSaturatesAtOne) {
  UtilizationTrace trace({0.2, 0.5, 0.9});
  UtilizationTrace scaled = ScaleTrace(trace, ScalingMethod::kLinear, 2.0);
  EXPECT_NEAR(scaled.AtSlot(0), 0.4, 1e-12);
  EXPECT_NEAR(scaled.AtSlot(1), 1.0, 1e-12);
  EXPECT_NEAR(scaled.AtSlot(2), 1.0, 1e-12);
}

TEST(ScalingTest, RootScaleCompressesHighValuesLess) {
  UtilizationTrace trace({0.1, 0.9});
  UtilizationTrace up = ScaleTrace(trace, ScalingMethod::kRoot, 0.5);  // sqrt raises
  // sqrt: 0.1 -> 0.316 (+0.216), 0.9 -> 0.949 (+0.049): low values move more.
  EXPECT_GT(up.AtSlot(0) - trace.AtSlot(0), up.AtSlot(1) - trace.AtSlot(1));
}

TEST(ScalingTest, RootPowerAboveOneLowersUtilization) {
  UtilizationTrace trace({0.5});
  UtilizationTrace down = ScaleTrace(trace, ScalingMethod::kRoot, 2.0);
  EXPECT_NEAR(down.AtSlot(0), 0.25, 1e-12);
}

TEST(ScalingTest, ZeroStaysZeroUnderRoot) {
  UtilizationTrace trace({0.0, 0.3});
  UtilizationTrace scaled = ScaleTrace(trace, ScalingMethod::kRoot, 0.5);
  EXPECT_DOUBLE_EQ(scaled.AtSlot(0), 0.0);
}

TEST(ScalingTest, LinearScalingAmplifiesVariationMoreThanRoot) {
  // The crux of Fig 13: at the same target average, linear scaling yields
  // larger temporal variation than root scaling.
  std::vector<UtilizationTrace> traces = MakeTraces(3);
  auto linear = ScaleToAverage(traces, ScalingMethod::kLinear, 0.55);
  auto root = ScaleToAverage(traces, ScalingMethod::kRoot, 0.55);
  auto variance = [](const std::vector<UtilizationTrace>& ts) {
    double total = 0.0;
    for (const auto& t : ts) {
      double mean = t.Average();
      double acc = 0.0;
      for (double v : t.samples()) {
        acc += (v - mean) * (v - mean);
      }
      total += acc / static_cast<double>(t.size());
    }
    return total;
  };
  EXPECT_GT(variance(linear), variance(root));
}

// Property: the solved parameter hits the target average for both methods
// across the utilization spectrum.
class ScaleTargetTest
    : public ::testing::TestWithParam<std::tuple<ScalingMethod, double>> {};

TEST_P(ScaleTargetTest, HitsTargetAverage) {
  auto [method, target] = GetParam();
  std::vector<UtilizationTrace> traces = MakeTraces(11);
  auto scaled = ScaleToAverage(traces, method, target);
  EXPECT_NEAR(PopulationAverage(scaled), target, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScaleTargetTest,
    ::testing::Combine(::testing::Values(ScalingMethod::kLinear, ScalingMethod::kRoot),
                       ::testing::Values(0.15, 0.30, 0.45, 0.60, 0.75)));

// The weighted solve over distinct traces is the solve over the expanded
// list with every trace repeated `count` times.
class WeightedSolveTest
    : public ::testing::TestWithParam<std::tuple<ScalingMethod, double>> {};

TEST_P(WeightedSolveTest, MatchesExpandedList) {
  auto [method, target] = GetParam();
  std::vector<UtilizationTrace> distinct = MakeTraces(17);
  const int64_t counts[] = {5, 1, 12};
  std::vector<WeightedTrace> population;
  std::vector<UtilizationTrace> expanded;
  for (size_t i = 0; i < distinct.size(); ++i) {
    population.push_back({&distinct[i], counts[i]});
    for (int64_t c = 0; c < counts[i]; ++c) {
      expanded.push_back(distinct[i]);
    }
  }
  const double weighted = SolveScalingParameter(population, method, target);
  const double flat = SolveScalingParameter(expanded, method, target);
  EXPECT_NEAR(weighted, flat, 1e-12 * flat);
  EXPECT_NEAR(PopulationAverage(ScaleToAverage(expanded, method, target)), target, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WeightedSolveTest,
    ::testing::Combine(::testing::Values(ScalingMethod::kLinear, ScalingMethod::kRoot),
                       ::testing::Values(0.15, 0.45, 0.75)));

TEST(ScalingTest, EmptyTracesCarryNoWeight) {
  std::vector<UtilizationTrace> traces = MakeTraces(19);
  UtilizationTrace empty;
  for (ScalingMethod method : {ScalingMethod::kLinear, ScalingMethod::kRoot}) {
    std::vector<WeightedTrace> population = {{&traces[0], 3}, {&traces[1], 2}};
    const double without = SolveScalingParameter(population, method, 0.4);
    population.insert(population.begin() + 1, {&empty, 50});
    EXPECT_EQ(SolveScalingParameter(population, method, 0.4), without);
  }
}

TEST(ScalingTest, RootKeepsZeroAndOneSamples) {
  // 0 and 1 are fixed points of u^p: only the 0.5 sample moves, so the
  // target pins it to 3 * 0.45 - 1 = 0.35.
  std::vector<UtilizationTrace> traces = {UtilizationTrace({0.0, 1.0, 0.5})};
  const double p = SolveScalingParameter(traces, ScalingMethod::kRoot, 0.45);
  EXPECT_NEAR(p, std::log(0.35) / std::log(0.5), 1e-9);
  auto scaled = ScaleToAverage(traces, ScalingMethod::kRoot, 0.45);
  EXPECT_DOUBLE_EQ(scaled[0].AtSlot(0), 0.0);
  EXPECT_DOUBLE_EQ(scaled[0].AtSlot(1), 1.0);
  EXPECT_NEAR(PopulationAverage(scaled), 0.45, 1e-9);
}

TEST(ScalingTest, LinearTargetThatSaturatesMostSamples) {
  // At the root nine of ten samples sit on the min(1, f*u) kink's flat
  // side, where the derivative is the one small sample alone.
  std::vector<double> samples(9, 0.9);
  samples.push_back(0.01);
  std::vector<UtilizationTrace> traces = {UtilizationTrace(samples)};
  const double f = SolveScalingParameter(traces, ScalingMethod::kLinear, 0.95);
  EXPECT_NEAR(f, 50.0, 1e-9);
  EXPECT_NEAR(PopulationAverage(ScaleToAverage(traces, ScalingMethod::kLinear, 0.95)), 0.95,
              1e-9);
  // Samples that are already 1 saturate at every factor >= 1.
  std::vector<UtilizationTrace> ones = {UtilizationTrace({1.0, 1.0, 1.0, 0.2})};
  EXPECT_NEAR(PopulationAverage(ScaleToAverage(ones, ScalingMethod::kLinear, 0.3)), 0.3, 1e-9);
  EXPECT_NEAR(PopulationAverage(ScaleToAverage(ones, ScalingMethod::kLinear, 0.9)), 0.9, 1e-9);
}

TEST(ScalingTest, SolveIsMonotoneInTarget) {
  std::vector<UtilizationTrace> traces = MakeTraces(13);
  double f_low = SolveScalingParameter(traces, ScalingMethod::kLinear, 0.2);
  double f_high = SolveScalingParameter(traces, ScalingMethod::kLinear, 0.6);
  EXPECT_LT(f_low, f_high);
  double p_low = SolveScalingParameter(traces, ScalingMethod::kRoot, 0.2);
  double p_high = SolveScalingParameter(traces, ScalingMethod::kRoot, 0.6);
  EXPECT_GT(p_low, p_high);  // larger power lowers utilization
}

}  // namespace
}  // namespace harvest
