// Minimal deterministic discrete-event engine. Events scheduled at the same
// timestamp fire in insertion order, which keeps every experiment replayable
// from its seed alone.
//
// Entries are plain data -- a caller-defined `kind`, an `arg` and a `count`
// -- and the caller's dispatcher gives them meaning, so no entry holds a
// type-erased callback. `count` lets one entry stand for a run of `count`
// same-time events with consecutive arguments (arg, arg + 1, ...): the
// dispatcher handles them in that order, which is exactly how
// `count` single entries scheduled back to back would fire. Those would hold
// consecutive sequence numbers, so no other entry sorts between them, and
// anything scheduled while they run gets a later one and sorts after them.

#ifndef HARVEST_SRC_SIM_EVENT_QUEUE_H_
#define HARVEST_SRC_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <queue>
#include <vector>

namespace harvest {

class EventQueue {
 public:
  struct Event {
    double when = 0.0;
    uint64_t sequence = 0;
    int64_t arg = 0;
    int32_t count = 1;
    int32_t kind = 0;
  };

  // Schedules an event at absolute time `when` (seconds). Times before
  // `now()` are clamped to `now()`.
  void Schedule(double when, int32_t kind, int64_t arg = 0, int32_t count = 1);

  double now() const { return now_; }
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  // Time of the earliest pending event; meaningless when empty().
  double PeekTime() const { return heap_.top().when; }

  // Pops the earliest event, advances the clock to it and calls
  // `dispatch(const Event&)`; returns false when the queue is empty.
  template <typename Dispatch>
  bool RunOne(Dispatch&& dispatch) {
    if (heap_.empty()) {
      return false;
    }
    const Event event = heap_.top();
    heap_.pop();
    now_ = event.when;
    dispatch(event);
    return true;
  }

  // Runs events until the queue empties or the next event is after `horizon`.
  // The clock is left at max(horizon, last event time).
  template <typename Dispatch>
  void RunUntil(double horizon, Dispatch&& dispatch) {
    while (!heap_.empty() && heap_.top().when <= horizon) {
      RunOne(dispatch);
    }
    now_ = std::max(now_, horizon);
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.sequence > b.sequence;
    }
  };

  double now_ = 0.0;
  uint64_t next_sequence_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> heap_;
};

}  // namespace harvest

#endif  // HARVEST_SRC_SIM_EVENT_QUEUE_H_
