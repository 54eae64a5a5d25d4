#include "sim/calendar_queue.h"

#include <algorithm>
#include <cmath>

#include "util/require.h"

namespace rlb::sim {

namespace {

/// std::push_heap/pop_heap keep the LARGEST element on top under their
/// comparator, so "a sorts after b" makes the heap's top the smallest
/// event by (time, id).
template <typename Event>
bool later(const Event& a, const Event& b) {
  if (a.time != b.time) return a.time > b.time;
  return a.id > b.id;
}

}  // namespace

void CalendarQueue::push(double time, std::int32_t id) {
  RLB_REQUIRE(time >= 0.0 && std::isfinite(time),
              "event times must be finite and non-negative");
  heap_.push_back(Event{time, id});
  std::push_heap(heap_.begin(), heap_.end(), later<Event>);
}

std::pair<double, std::int32_t> CalendarQueue::top() const {
  RLB_REQUIRE(!heap_.empty(), "top on an empty event queue");
  return {heap_.front().time, heap_.front().id};
}

std::pair<double, std::int32_t> CalendarQueue::pop() {
  RLB_REQUIRE(!heap_.empty(), "pop on an empty event queue");
  std::pop_heap(heap_.begin(), heap_.end(), later<Event>);
  const Event e = heap_.back();
  heap_.pop_back();
  return {e.time, e.id};
}

}  // namespace rlb::sim
