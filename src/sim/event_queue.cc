#include "src/sim/event_queue.h"

namespace harvest {

void EventQueue::Schedule(double when, int32_t kind, int64_t arg, int32_t count) {
  heap_.push(Event{std::max(when, now_), next_sequence_++, arg, count, kind});
}

}  // namespace harvest
