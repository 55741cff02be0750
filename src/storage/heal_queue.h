// The NameNode's re-replication queue: pending heals keyed by completion
// time, popped in the (ready_time, seq) total order.
//
// A monotone radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, "Faster
// algorithms for the shortest path problem", JACM 1990) over the bits of the
// non-negative ready_time. For non-negative doubles the IEEE-754 bit pattern
// read as a uint64 orders exactly like the value, so a key is the bits of
// ready_time (-0.0 folded into +0.0). Bucket 0 holds the entries whose key
// equals the floor -- the key of the last *popped* entry -- and bucket
// b in [1, 64] the entries whose highest bit differing from the floor is
// bit b - 1. A push appends to its bucket; a pop takes bucket 0's front, and
// when bucket 0 is empty it first moves the floor to the minimum key and
// redistributes that minimum's bucket into the (then empty) lower buckets.
//
// Why this pops exactly the (ready_time, seq) order a binary heap with the
// seq tie-break would:
//   * Monotone: every push lands at or after the floor. The NameNode pushes
//     at `now` + delay (or at a popped entry's ready_time on a retry), and
//     `now` never falls below the last popped ready_time. push()
//     HARVEST_CHECKs this.
//   * seq only grows, so a push appends the largest seq in the queue to its
//     bucket. A redistribution walks one bucket in order into lower buckets
//     that are all empty, so every bucket stays sorted by seq, and bucket 0
//     -- all one key -- pops FIFO in seq order.
//   * Peeking never moves the floor. top() finds the minimum without
//     redistributing and caches where it is; moving the floor on a peek of
//     a future entry would reject (or misplace) a later push that lands
//     between `now` and that entry.
//
// Each entry costs at most 64 redistributions over its life, all of them a
// sequential append, instead of log(n) cache-missing sift steps per pop.
// Buckets are chunk lists from one per-queue pool (see Chunk below), so the
// queue's memory follows its live size and the heal loop does not allocate
// once warm.

#ifndef HARVEST_SRC_STORAGE_HEAL_QUEUE_H_
#define HARVEST_SRC_STORAGE_HEAL_QUEUE_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/cluster/types.h"
#include "src/util/logging.h"

namespace harvest {

struct PendingRereplication {
  double ready_time = 0.0;
  BlockId block = 0;
  // kInvalidServer marks a probe entry: every surviving replica was behind
  // a partitioned ToR at queue time, so nothing is copied -- the pop just
  // re-evaluates reachability (with backoff).
  ServerId source = kInvalidServer;
  // Retries so far (source died, partitioned away, or no target); drives
  // the exponential backoff.
  int attempts = 0;
  // Global push sequence number: the (ready_time, seq) pair is a total
  // order over all pending heals. Heal completions tie constantly (every
  // block wiped by one reimage and sourced from a fresh server completes
  // at the same instant), and the sharded k-way merge needs the single- and
  // multi-queue pop orders to be THE SAME order, or the policy-RNG draw
  // order (and every byte downstream) would depend on the shard count.
  uint64_t seq = 0;
};

// True when `a` pops before `b` under the (ready_time, seq) total order.
inline bool PopsBefore(const PendingRereplication& a, const PendingRereplication& b) {
  return a.ready_time < b.ready_time || (a.ready_time == b.ready_time && a.seq < b.seq);
}

class HealQueue {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  // `entry.ready_time` must be >= the last popped ready_time, and
  // `entry.seq` larger than every seq pushed before.
  void push(const PendingRereplication& entry) {
    const uint64_t key = Key(entry.ready_time);
    HARVEST_CHECK(entry.ready_time >= 0.0 && key >= floor_)
        << "heal pushed at " << entry.ready_time << " before the last pop";
    const int bucket = BucketOf(key);
    const Position at = Append(buckets_[static_cast<size_t>(bucket)], entry);
    ++size_;
    // Bucket 0 always pops first, so the cached minimum only ever names an
    // entry of buckets 1..64; a smaller key there replaces it (an equal key
    // has a larger seq and does not).
    if (bucket > 0 && has_min_ && key < Key(EntryAt(min_).ready_time)) {
      min_ = at;
      min_bucket_ = bucket;
    }
  }

  // The next entry to pop. Requires !empty(). The reference is invalidated
  // by the next push or pop.
  const PendingRereplication& top() const {
    const Bucket& front = buckets_[0];
    if (front.head != kNone) {
      return chunks_[front.head].entries[front.head_offset];
    }
    if (!has_min_) {
      FindMin();
    }
    return EntryAt(min_);
  }

  // Removes top(). Requires !empty().
  void pop() {
    Bucket& front = buckets_[0];
    if (front.head == kNone) {
      Advance();
    }
    --size_;
    const uint32_t head = front.head;
    const bool last_in_chunk = head == front.tail ? front.head_offset + 1 == front.tail_fill
                                                  : front.head_offset + 1 == kChunkEntries;
    if (!last_in_chunk) {
      ++front.head_offset;
      return;
    }
    front.head = chunks_[head].next;
    front.head_offset = 0;
    if (front.head == kNone) {
      front.tail = kNone;
    }
    Release(head);
  }

 private:
  static constexpr int kBuckets = 65;
  // Entries per chunk: 2 KiB of entries, so a chunk is a few cache lines
  // of sequential appends and a near-empty bucket wastes little.
  static constexpr uint32_t kChunkEntries = 64;
  static constexpr uint32_t kNone = UINT32_MAX;

  // Buckets are FIFO lists of fixed-size chunks drawn from one pool per
  // queue. A drained chunk goes back to the pool's free list, so the queue
  // holds about its peak size in one growing vector and, once warm, pushes
  // and redistributions allocate nothing. (Per-bucket vectors either park
  // their high-water capacity, which summed to ten times the peak size over
  // a year-long grid cell, or free and regrow it on every redistribution.)
  struct Chunk {
    std::array<PendingRereplication, kChunkEntries> entries;
    uint32_t next = kNone;
  };
  struct Bucket {
    uint32_t head = kNone;      // first chunk, kNone when empty
    uint32_t tail = kNone;      // last chunk (appends go here)
    uint32_t head_offset = 0;   // next entry to pop in `head` (bucket 0 only)
    uint32_t tail_fill = 0;     // entries used in `tail`
  };
  struct Position {
    uint32_t chunk = kNone;
    uint32_t offset = 0;
  };

  // Non-negative doubles order like their bit patterns; + 0.0 folds -0.0
  // into +0.0 (the only value with two patterns).
  static uint64_t Key(double ready_time) { return std::bit_cast<uint64_t>(ready_time + 0.0); }

  int BucketOf(uint64_t key) const {
    return key == floor_ ? 0 : 64 - std::countl_zero(key ^ floor_);
  }

  const PendingRereplication& EntryAt(Position at) const {
    return chunks_[at.chunk].entries[at.offset];
  }

  Position Append(Bucket& bucket, const PendingRereplication& entry) {
    if (bucket.tail == kNone || bucket.tail_fill == kChunkEntries) {
      const uint32_t chunk = Acquire();
      if (bucket.tail == kNone) {
        bucket.head = chunk;
      } else {
        chunks_[bucket.tail].next = chunk;
      }
      bucket.tail = chunk;
      bucket.tail_fill = 0;
    }
    chunks_[bucket.tail].entries[bucket.tail_fill] = entry;
    return Position{bucket.tail, bucket.tail_fill++};
  }

  uint32_t Acquire() {
    uint32_t chunk = free_;
    if (chunk != kNone) {
      free_ = chunks_[chunk].next;
    } else {
      chunk = static_cast<uint32_t>(chunks_.size());
      chunks_.emplace_back();
    }
    chunks_[chunk].next = kNone;
    return chunk;
  }

  void Release(uint32_t chunk) {
    chunks_[chunk].next = free_;
    free_ = chunk;
  }

  // Caches the first minimum-key entry of the lowest non-empty bucket
  // above 0 (buckets are seq-sorted, so it is the smallest seq of that
  // key). Bucket 0 is empty and the queue is not.
  void FindMin() const {
    int bucket = 1;
    while (buckets_[static_cast<size_t>(bucket)].head == kNone) {
      ++bucket;
    }
    // Buckets above 0 are never popped from, so every chunk starts at 0.
    const Bucket& lowest = buckets_[static_cast<size_t>(bucket)];
    Position best;
    uint64_t best_key = UINT64_MAX;
    for (uint32_t chunk = lowest.head; chunk != kNone; chunk = chunks_[chunk].next) {
      const uint32_t fill = chunk == lowest.tail ? lowest.tail_fill : kChunkEntries;
      for (uint32_t offset = 0; offset < fill; ++offset) {
        const uint64_t key = Key(chunks_[chunk].entries[offset].ready_time);
        if (key < best_key) {
          best = Position{chunk, offset};
          best_key = key;
        }
      }
    }
    min_ = best;
    min_bucket_ = bucket;
    has_min_ = true;
  }

  // Bucket 0 is empty: moves the floor to the minimum key and spreads the
  // minimum's bucket over the buckets below it, in order. Entries of
  // higher buckets keep their bucket (the new floor agrees with the old one
  // on every bit above the minimum's bucket).
  void Advance() {
    if (!has_min_) {
      FindMin();
    }
    floor_ = Key(EntryAt(min_).ready_time);
    has_min_ = false;
    Bucket& source = buckets_[static_cast<size_t>(min_bucket_)];
    // Each source chunk is released once read, so the lower buckets'
    // appends reuse it at once.
    uint32_t chunk = source.head;
    while (chunk != kNone) {
      const uint32_t fill = chunk == source.tail ? source.tail_fill : kChunkEntries;
      const uint32_t next = chunks_[chunk].next;
      for (uint32_t offset = 0; offset < fill; ++offset) {
        const PendingRereplication entry = chunks_[chunk].entries[offset];
        Append(buckets_[static_cast<size_t>(BucketOf(Key(entry.ready_time)))], entry);
      }
      Release(chunk);
      chunk = next;
    }
    source = Bucket{};
  }

  std::vector<Chunk> chunks_;
  uint32_t free_ = kNone;  // free-list head (linked through Chunk::next)
  std::array<Bucket, kBuckets> buckets_;
  uint64_t floor_ = 0;  // key of the last popped entry
  size_t size_ = 0;
  // The cached minimum of buckets 1..64, valid while has_min_.
  mutable bool has_min_ = false;
  mutable int min_bucket_ = 0;
  mutable Position min_;
};

}  // namespace harvest

#endif  // HARVEST_SRC_STORAGE_HEAL_QUEUE_H_
