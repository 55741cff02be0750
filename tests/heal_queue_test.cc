// Property test for the NameNode's radix heal queue: driven by random
// monotone push / pop / top mixes, it must pop exactly the sequence a
// std::priority_queue on the (ready_time, seq) total order pops. The mixes
// stress what the radix layout is sensitive to: heavy ready_time ties,
// a top() of a future entry followed by an earlier push (a peek must never
// move the floor), keys spread over many magnitudes (many buckets), and
// draining to empty then refilling.

#include "src/storage/heal_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "src/util/rng.h"

namespace harvest {
namespace {

struct PopsAfter {
  bool operator()(const PendingRereplication& a, const PendingRereplication& b) const {
    return PopsBefore(b, a);
  }
};
using ReferenceQueue =
    std::priority_queue<PendingRereplication, std::vector<PendingRereplication>, PopsAfter>;

// The radix queue and the binary-heap reference side by side; every pop
// and top is compared.
class Harness {
 public:
  void Push(double ready_time) {
    const PendingRereplication entry{ready_time, static_cast<BlockId>(next_seq_),
                                     static_cast<ServerId>(next_seq_ % 7), 0, next_seq_};
    ++next_seq_;
    queue_.push(entry);
    reference_.push(entry);
  }

  // Compares the two tops; returns the (shared) top's ready_time.
  double Top() {
    EXPECT_FALSE(queue_.empty());
    ExpectSame(queue_.top(), reference_.top());
    return queue_.top().ready_time;
  }

  void Pop() {
    ASSERT_FALSE(reference_.empty());
    ASSERT_FALSE(queue_.empty());
    const PendingRereplication expected = reference_.top();
    const PendingRereplication got = queue_.top();
    ExpectSame(got, expected);
    reference_.pop();
    queue_.pop();
    floor_ = got.ready_time;
    ++pops_;
  }

  void Drain() {
    while (!reference_.empty()) {
      Pop();
    }
    EXPECT_TRUE(queue_.empty());
  }

  bool empty() const { return reference_.empty(); }
  size_t size() const { return reference_.size(); }
  double floor() const { return floor_; }
  int64_t pops() const { return pops_; }

 private:
  void ExpectSame(const PendingRereplication& got, const PendingRereplication& expected) {
    ASSERT_EQ(queue_.size(), reference_.size());
    EXPECT_EQ(got.seq, expected.seq) << "after " << pops_ << " pops";
    EXPECT_EQ(got.ready_time, expected.ready_time) << "after " << pops_ << " pops";
    EXPECT_EQ(got.block, expected.block);
    EXPECT_EQ(got.source, expected.source);
  }

  HealQueue queue_;
  ReferenceQueue reference_;
  uint64_t next_seq_ = 0;
  double floor_ = 0.0;
  int64_t pops_ = 0;
};

// A delay after `now` drawn from a mix that ties heavily (a few discrete
// steps, as throttled heals do) and also spans many binary magnitudes.
double DrawDelay(Rng& rng) {
  switch (rng.NextBounded(5)) {
    case 0:
      return 0.0;  // ties with the floor itself
    case 1:
      return 120.0 * static_cast<double>(rng.NextBounded(4));  // throttle steps
    case 2:
      return rng.Uniform(0.0, 1.0);
    case 3:
      return rng.Uniform(0.0, 3.0e7);  // up to a year
    default:
      return 300.0 + 120.0 * static_cast<double>(rng.NextBounded(50));
  }
}

TEST(HealQueueTest, TiesPopInSeqOrder) {
  Harness harness;
  for (int i = 0; i < 50; ++i) {
    harness.Push(i % 2 == 0 ? 420.0 : 300.0);
  }
  harness.Push(0.0);
  harness.Push(-0.0);  // folds into the key of +0.0
  harness.Drain();
  EXPECT_EQ(harness.pops(), 52);
}

TEST(HealQueueTest, PeekOfFutureEntryThenEarlierPush) {
  Harness harness;
  harness.Push(100.0);
  harness.Pop();
  // Only a far-future entry is queued; peeking it must not move the floor,
  // because a push between the last pop and that entry is still legal.
  harness.Push(5000.0);
  EXPECT_EQ(harness.Top(), 5000.0);
  harness.Push(100.5);
  harness.Push(100.0);  // equal to the last popped time: still legal
  EXPECT_EQ(harness.Top(), 100.0);
  harness.Push(4999.0);
  harness.Drain();
  EXPECT_EQ(harness.pops(), 5);
}

TEST(HealQueueTest, DrainToEmptyThenRefill) {
  Harness harness;
  Rng rng(7);
  double now = 0.0;
  for (int round = 0; round < 20; ++round) {
    const int pushes = 1 + static_cast<int>(rng.NextBounded(200));
    for (int i = 0; i < pushes; ++i) {
      harness.Push(now + DrawDelay(rng));
    }
    harness.Drain();
    // Refill from the last popped time: the floor stays where it was.
    now = harness.floor() + (round % 3 == 0 ? 0.0 : rng.Uniform(0.0, 1.0e5));
  }
  EXPECT_GT(harness.pops(), 20);
}

TEST(HealQueueTest, RandomMonotoneMixesMatchBinaryHeap) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Harness harness;
    Rng rng(seed);
    // `now` is the simulation clock: never behind the last popped time,
    // and every push lands at or after it.
    double now = 0.0;
    size_t peak = 0;
    for (int op = 0; op < 20000; ++op) {
      const uint64_t what = rng.NextBounded(10);
      if (what < 4) {
        harness.Push(now + DrawDelay(rng));
      } else if (what < 6) {
        // Process everything due by `now`, peeking first -- the shape of
        // NameNode::ProcessRereplication, whose last peek is usually of a
        // future entry.
        while (!harness.empty() && harness.Top() <= now) {
          harness.Pop();
        }
      } else if (what < 8) {
        if (!harness.empty()) {
          harness.Pop();
          now = std::max(now, harness.floor());
        }
      } else if (what < 9) {
        now += rng.Bernoulli(0.2) ? rng.Uniform(0.0, 1.0e6) : rng.Uniform(0.0, 200.0);
      } else if (!harness.empty()) {
        harness.Top();
      }
      peak = std::max(peak, harness.size());
      if (HasFailure()) {
        return;
      }
    }
    harness.Drain();
    EXPECT_GT(harness.pops(), 5000);
    EXPECT_GT(peak, 100u);
  }
}

TEST(HealQueueDeathTest, PushBeforeTheLastPopIsRejected) {
  HealQueue queue;
  queue.push(PendingRereplication{50.0, 0, 0, 0, 0});
  queue.pop();
  EXPECT_DEATH(queue.push(PendingRereplication{49.0, 1, 0, 0, 1}), "before the last pop");
}

}  // namespace
}  // namespace harvest
