// Two-level block weighted sampler with replay-exact semantics.
//
// ResourceManager's placement draw historically materialized a dense weight
// vector and called Rng::WeightedIndex on it: one pass to total the weights,
// one NextDouble() draw, and one subtraction scan to locate the index --
// O(n) per placed container. This sampler keeps the weights as flat leaves
// plus one running sum per block of kBlock leaves, so a single-element
// update is O(1) (leaf, block sum, total) and a draw is one scan over block
// sums followed by one scan over at most kBlock leaves, while reproducing
// WeightedIndex's selection *bit for bit*:
//
//   * Weights here are non-negative int64. Every weight the scheduler uses
//     (available cores, the history bonus 50 * type cores) is integer-valued,
//     and sums of integer-valued doubles below 2^53 are exact, so the dense
//     code's double `total` equals `double(Total())` regardless of summation
//     order.
//   * WeightedIndex draws `point = NextDouble() * total` and returns the
//     first index i whose inclusive prefix sum reaches `point`, skipping
//     zero weights. Because the weights are integers and `point < 2^53`,
//     every `point -= w[i]` in the dense scan is exact, so that scan is
//     equivalent to "smallest i with prefix(i) >= point". For an integer
//     prefix sum, prefix(i) >= point holds exactly when prefix(i) >=
//     ceil(point), so LowerBound rounds the point up once and then runs
//     the same "subtract while smaller" walk in int64: first over whole
//     block sums, then over the leaves of the block the walk stopped in.
//     Subtracting a block sum is the dense scan's run of leaf subtractions
//     done at once, so both walks stop at the same index. The point == 0
//     corner (NextDouble() returned 0.0) selects the first positive weight
//     in both implementations; callers handle it by passing any point in
//     (0, 1].
//
// The equivalence is tested directly against Rng::WeightedIndex by
// tests/weighted_picker_test.cc, end to end by tests/rm_oracle_test.cc, and
// by the byte-identical tests/golden/ diffs.

#ifndef HARVEST_SRC_UTIL_WEIGHTED_PICKER_H_
#define HARVEST_SRC_UTIL_WEIGHTED_PICKER_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace harvest {

class WeightedPicker {
 public:
  // Leaves per block: a draw scans at most size / kBlock block sums and
  // then at most kBlock leaves.
  static constexpr size_t kBlock = 64;

  WeightedPicker() = default;

  size_t size() const { return leaves_.size(); }
  int64_t Total() const { return total_; }

  // Re-initializes to `weights` in O(n).
  void Build(const std::vector<int64_t>& weights) { Build(weights.data(), weights.size()); }

  // Same, from a raw column slice (the sharded rebuild path hands each
  // shard its window of one dense weight column).
  void Build(const int64_t* weights, size_t count) {
    leaves_.assign(weights, weights + count);
    blocks_.assign((count + kBlock - 1) / kBlock, 0);
    total_ = 0;
    for (size_t i = 0; i < count; ++i) {
      blocks_[i / kBlock] += weights[i];
      total_ += weights[i];
    }
  }

  // Sets element `i` from `old_weight` to `new_weight` in O(1).
  void Update(size_t i, int64_t old_weight, int64_t new_weight) {
    const int64_t delta = new_weight - old_weight;
    leaves_[i] = new_weight;
    blocks_[i / kBlock] += delta;
    total_ += delta;
  }

  // Sum of the first `count` elements: whole block sums, then the leaves of
  // the partial block. Exposed for cache audits (tests recover individual
  // weights as adjacent-prefix deltas).
  int64_t PrefixSum(size_t count) const {
    int64_t sum = 0;
    const size_t full = count / kBlock;
    for (size_t b = 0; b < full; ++b) {
      sum += blocks_[b];
    }
    for (size_t i = full * kBlock; i < count; ++i) {
      sum += leaves_[i];
    }
    return sum;
  }

  // Smallest index i with prefix(i) = w[0] + ... + w[i] >= point, for
  // 0 < point <= Total(). Exact integer arithmetic against ceil(point),
  // which is what makes the result identical to the dense subtraction scan.
  size_t LowerBound(double point) const {
    if (leaves_.empty()) {
      return 0;
    }
    int64_t target = static_cast<int64_t>(std::ceil(point));
    size_t block = 0;
    const size_t last_block = blocks_.size() - 1;
    while (block < last_block && blocks_[block] < target) {
      target -= blocks_[block];
      ++block;
    }
    size_t i = block * kBlock;
    const size_t last = (block == last_block ? leaves_.size() : i + kBlock) - 1;
    while (i < last && leaves_[i] < target) {
      target -= leaves_[i];
      ++i;
    }
    return i;  // 0-based: `i` elements lie strictly before the pick
  }

 private:
  std::vector<int64_t> leaves_;  // one weight per element
  std::vector<int64_t> blocks_;  // blocks_[b] = sum of leaves [b*kBlock, (b+1)*kBlock)
  int64_t total_ = 0;
};

}  // namespace harvest

#endif  // HARVEST_SRC_UTIL_WEIGHTED_PICKER_H_
