#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace harvest {
namespace {

using Event = EventQueue::Event;

// Records each event's arg, expanding a counted event into its run of
// consecutive args.
struct Recorder {
  std::vector<int64_t> order;
  void operator()(const Event& event) {
    for (int32_t i = 0; i < event.count; ++i) {
      order.push_back(event.arg + i);
    }
  }
};

template <typename Dispatch>
void Drain(EventQueue& queue, Dispatch&& dispatch) {
  while (queue.RunOne(dispatch)) {
  }
}

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue queue;
  Recorder recorder;
  queue.Schedule(3.0, 0, 3);
  queue.Schedule(1.0, 0, 1);
  queue.Schedule(2.0, 0, 2);
  Drain(queue, recorder);
  EXPECT_EQ(recorder.order, (std::vector<int64_t>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
}

TEST(EventQueueTest, TiesBreakInInsertionOrder) {
  EventQueue queue;
  Recorder recorder;
  for (int i = 0; i < 10; ++i) {
    queue.Schedule(5.0, 0, i);
  }
  Drain(queue, recorder);
  ASSERT_EQ(recorder.order.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(recorder.order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, ScheduleInThePastClampsToNow) {
  EventQueue queue;
  double fired_at = -1.0;
  queue.Schedule(10.0, /*kind=*/0);
  Drain(queue, [&queue, &fired_at](const Event& event) {
    if (event.kind == 0) {
      queue.Schedule(2.0, /*kind=*/1);
    } else {
      fired_at = queue.now();
    }
  });
  EXPECT_DOUBLE_EQ(fired_at, 10.0);
}

TEST(EventQueueTest, RunUntilStopsAtHorizon) {
  EventQueue queue;
  int fired = 0;
  auto count = [&fired](const Event&) { ++fired; };
  queue.Schedule(1.0, 0);
  queue.Schedule(2.0, 0);
  queue.Schedule(5.0, 0);
  queue.RunUntil(3.0, count);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(queue.now(), 3.0);
  EXPECT_EQ(queue.size(), 1u);
  queue.RunUntil(10.0, count);
  EXPECT_EQ(fired, 3);
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents) {
  EventQueue queue;
  int chain = 0;
  queue.Schedule(0.0, 0);
  Drain(queue, [&queue, &chain](const Event&) {
    ++chain;
    if (chain < 5) {
      queue.Schedule(queue.now() + 1.0, 0);
    }
  });
  EXPECT_EQ(chain, 5);
  EXPECT_DOUBLE_EQ(queue.now(), 4.0);
}

TEST(EventQueueTest, RunOneOnEmptyReturnsFalse) {
  EventQueue queue;
  EXPECT_FALSE(queue.RunOne([](const Event&) {}));
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueTest, PeekTimeSeesEarliest) {
  EventQueue queue;
  queue.Schedule(7.0, 0);
  queue.Schedule(4.0, 0);
  EXPECT_DOUBLE_EQ(queue.PeekTime(), 4.0);
}

TEST(EventQueueTest, RunUntilAdvancesClockWithoutEvents) {
  EventQueue queue;
  queue.RunUntil(42.0, [](const Event&) {});
  EXPECT_DOUBLE_EQ(queue.now(), 42.0);
}

// One counted entry (a "wave") must dispatch exactly like its fully expanded
// run of single entries: waves mixed with same-time singles scheduled before
// and after them, plus later-time events, scheduled out of time order.
TEST(EventQueueTest, WaveFiresLikeContiguousSingles) {
  struct Planned {
    double when;
    int64_t arg;
    int32_t count;
  };
  const std::vector<Planned> plan = {
      {5.0, 100, 1},  {5.0, 200, 4}, {3.0, 300, 2}, {5.0, 400, 1},
      {5.0, 500, 3},  {7.0, 600, 1}, {3.0, 700, 1}, {5.0, 800, 2},
      {7.0, 900, 5},  {1.0, 1000, 1},
  };
  EventQueue waves;
  EventQueue singles;
  for (const Planned& p : plan) {
    waves.Schedule(p.when, 0, p.arg, p.count);
    for (int32_t i = 0; i < p.count; ++i) {
      singles.Schedule(p.when, 0, p.arg + i);
    }
  }
  // Follow-ups scheduled from inside a wave land strictly later, as every
  // co-simulation handler's do; both queues get the same ones.
  auto follow_up = [](EventQueue& queue, Recorder& recorder) {
    return [&queue, &recorder](const Event& event) {
      recorder(event);
      for (int32_t i = 0; i < event.count; ++i) {
        if ((event.arg + i) % 3 == 0 && event.arg < 10000) {
          queue.Schedule(queue.now() + 2.0, 0, 10000 + event.arg + i);
        }
      }
    };
  };
  Recorder from_waves;
  Recorder from_singles;
  Drain(waves, follow_up(waves, from_waves));
  Drain(singles, follow_up(singles, from_singles));
  EXPECT_EQ(from_waves.order, from_singles.order);
  EXPECT_EQ(from_waves.order.size(), 21u + 7u);
  EXPECT_DOUBLE_EQ(waves.now(), singles.now());
}

}  // namespace
}  // namespace harvest
