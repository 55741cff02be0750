// Differential test of the placement samplers against the dense scan they
// replace: WeightedPicker and ShardedPicker must pick exactly the index
// Rng::WeightedIndex picks on the same integer weights, and consume the RNG
// stream identically, at every size around the 64-leaf block edges, across
// zero-weight runs, at points that land exactly on block and shard totals,
// at the NextDouble() == 0 corner, and under incremental updates.

#include "src/util/sharded_picker.h"
#include "src/util/weighted_picker.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/rng.h"

namespace harvest {
namespace {

constexpr size_t kSizes[] = {0, 1, 63, 64, 65, 4095, 4097};

// Rng::WeightedIndex's subtraction scan at a given point (0 <= point <=
// total): the first positive weight whose running subtraction reaches 0.
int DenseScanAt(const std::vector<int64_t>& weights, double point) {
  for (size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] <= 0) {
      continue;
    }
    point -= static_cast<double>(weights[i]);
    if (point <= 0.0) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

// The production draw (ResourceManager::Allocate on one segment): one
// NextDouble() iff the total is positive; the point-0 corner passes 0.5.
template <typename Picker>
int PickerDraw(const Picker& picker, Rng& rng) {
  if (picker.Total() <= 0) {
    return -1;
  }
  const double point = rng.NextDouble() * static_cast<double>(picker.Total());
  return static_cast<int>(picker.LowerBound(point > 0.0 ? point : 0.5));
}

template <typename Picker>
int PickerAt(const Picker& picker, double point) {
  return static_cast<int>(picker.LowerBound(point > 0.0 ? point : 0.5));
}

// Weight patterns: uniform random (with some zeros), zero runs straddling
// block edges, all zeros, and one positive weight at the very end.
std::vector<std::vector<int64_t>> Patterns(size_t n, Rng& rng) {
  std::vector<std::vector<int64_t>> patterns;
  std::vector<int64_t> random(n);
  for (int64_t& w : random) {
    w = rng.Bernoulli(0.2) ? 0 : static_cast<int64_t>(rng.UniformInt(1, 2040));
  }
  patterns.push_back(random);
  std::vector<int64_t> runs = random;
  for (size_t edge = WeightedPicker::kBlock; edge < n + WeightedPicker::kBlock;
       edge += WeightedPicker::kBlock) {
    // Zero the 10 leaves before and 10 after each block edge, and every
    // third block entirely.
    for (size_t i = edge >= 10 ? edge - 10 : 0; i < edge + 10 && i < n; ++i) {
      runs[i] = 0;
    }
    if ((edge / WeightedPicker::kBlock) % 3 == 0) {
      for (size_t i = edge; i < edge + WeightedPicker::kBlock && i < n; ++i) {
        runs[i] = 0;
      }
    }
  }
  patterns.push_back(runs);
  patterns.push_back(std::vector<int64_t>(n, 0));
  if (n > 0) {
    std::vector<int64_t> last(n, 0);
    last[n - 1] = 7;
    patterns.push_back(last);
  }
  return patterns;
}

// Shard layouts over n elements: one shard, block-aligned and unaligned
// cuts, and layouts with empty shards (repeated starts) at both ends.
std::vector<std::vector<size_t>> Layouts(size_t n) {
  std::vector<std::vector<size_t>> layouts = {{0}};
  layouts.push_back({0, n / 2});
  layouts.push_back({0, n / 3, n / 3, (2 * n) / 3});
  if (n > 64) {
    layouts.push_back({0, 1, 63, 64, 65});
  }
  layouts.push_back({0, 0, n});
  return layouts;
}

// Points that land exactly on every block total's running prefix (and
// one past it, and halfway into the next unit), plus 0 and the total.
std::vector<double> EdgePoints(const std::vector<int64_t>& weights) {
  std::vector<double> points = {0.0};
  int64_t prefix = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    prefix += weights[i];
    if ((i + 1) % WeightedPicker::kBlock == 0 || i + 1 == weights.size()) {
      points.push_back(static_cast<double>(prefix));
      points.push_back(static_cast<double>(prefix) + 0.5);
      points.push_back(static_cast<double>(prefix) + 1.0);
    }
  }
  std::vector<double> valid;
  for (double point : points) {
    if (point <= static_cast<double>(prefix)) {
      valid.push_back(point);
    }
  }
  return valid;
}

template <typename Picker>
void ExpectMatchesDense(const Picker& picker, const std::vector<int64_t>& weights, Rng& rng,
                        const std::string& where) {
  int64_t total = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    ASSERT_EQ(picker.PrefixSum(i), total) << where << " prefix " << i;
    total += weights[i];
  }
  ASSERT_EQ(picker.PrefixSum(weights.size()), total) << where;
  ASSERT_EQ(picker.Total(), total) << where;
  for (double point : EdgePoints(weights)) {
    if (total <= 0) {
      break;
    }
    EXPECT_EQ(PickerAt(picker, point), DenseScanAt(weights, point))
        << where << " at point " << point;
  }
  const std::vector<double> dense(weights.begin(), weights.end());
  for (int draw = 0; draw < 64; ++draw) {
    Rng reference = rng;
    const int expected = reference.WeightedIndex(dense);
    ASSERT_EQ(PickerDraw(picker, rng), expected) << where << " draw " << draw;
    ASSERT_EQ(rng.Next(), reference.Next()) << where << " RNG streams diverged";
  }
}

TEST(WeightedPickerTest, MatchesDenseScanAtEverySizeAndPattern) {
  Rng rng(17);
  for (size_t n : kSizes) {
    for (const std::vector<int64_t>& weights : Patterns(n, rng)) {
      WeightedPicker picker;
      picker.Build(weights);
      ASSERT_EQ(picker.size(), n);
      ExpectMatchesDense(picker, weights, rng, "n=" + std::to_string(n));
    }
  }
}

TEST(WeightedPickerTest, PointZeroSelectsFirstPositiveWeight) {
  std::vector<int64_t> weights(200, 0);
  weights[130] = 3;
  weights[150] = 5;
  WeightedPicker picker;
  picker.Build(weights);
  EXPECT_EQ(PickerAt(picker, 0.0), 130);
  EXPECT_EQ(DenseScanAt(weights, 0.0), 130);
  // A point strictly inside (0, 1) resolves the same way.
  EXPECT_EQ(PickerAt(picker, 1e-300), 130);
}

TEST(WeightedPickerTest, IncrementalUpdatesMatchRebuild) {
  Rng rng(29);
  for (size_t n : kSizes) {
    if (n == 0) {
      continue;
    }
    std::vector<int64_t> weights = Patterns(n, rng)[1];
    WeightedPicker picker;
    picker.Build(weights);
    for (int step = 0; step < 400; ++step) {
      const size_t i = static_cast<size_t>(rng.NextBounded(n));
      const int64_t next = rng.Bernoulli(0.3) ? 0 : static_cast<int64_t>(rng.UniformInt(1, 60));
      picker.Update(i, weights[i], next);
      weights[i] = next;
    }
    ExpectMatchesDense(picker, weights, rng, "updated n=" + std::to_string(n));
    WeightedPicker rebuilt;
    rebuilt.Build(weights);
    for (size_t i = 0; i <= n; ++i) {
      ASSERT_EQ(picker.PrefixSum(i), rebuilt.PrefixSum(i)) << "n=" << n << " prefix " << i;
    }
  }
}

TEST(ShardedPickerTest, MatchesDenseScanAcrossShardLayouts) {
  Rng rng(41);
  for (size_t n : kSizes) {
    for (const std::vector<int64_t>& base : Patterns(n, rng)) {
      for (const std::vector<size_t>& layout : Layouts(n)) {
        std::vector<int64_t> weights = base;
        ShardedPicker picker;
        picker.SetLayout(layout, n);
        picker.Build(weights);
        const std::string where =
            "n=" + std::to_string(n) + " shards=" + std::to_string(picker.num_shards());
        ExpectMatchesDense(picker, weights, rng, where);
        // Points exactly on each shard's running total.
        int64_t prefix = 0;
        for (int k = 0; k < picker.num_shards(); ++k) {
          for (size_t i = picker.shard_begin(k); i < picker.shard_end(k); ++i) {
            prefix += weights[i];
          }
          if (prefix > 0) {
            EXPECT_EQ(PickerAt(picker, static_cast<double>(prefix)),
                      DenseScanAt(weights, static_cast<double>(prefix)))
                << where << " at shard " << k << " total";
          }
        }
        if (n == 0) {
          continue;
        }
        for (int step = 0; step < 200; ++step) {
          const size_t i = static_cast<size_t>(rng.NextBounded(n));
          const int64_t next =
              rng.Bernoulli(0.3) ? 0 : static_cast<int64_t>(rng.UniformInt(1, 60));
          picker.Update(i, weights[i], next);
          weights[i] = next;
        }
        ExpectMatchesDense(picker, weights, rng, "updated " + where);
      }
    }
  }
}

}  // namespace
}  // namespace harvest
