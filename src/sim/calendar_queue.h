// The cluster engine's departure queue: a binary min-heap of (time, id)
// events, O(log n) push and pop, O(1) top.
//
// Determinism contract: pop order is the strict total order by
// (time, id) — exactly the order std::priority_queue<std::pair<double,
// int>, ..., std::greater<>> gives — so a simulation's event sequence is
// a function of its events alone, never of the heap's internal layout.
// The engine keeps at most one pending departure per server, so no two
// queued events compare equal.
//
// The class keeps its calendar-queue name because the benchmark's replay
// probe (perf/replay.cpp) constructs it under that name; the engine
// measured faster with this heap than with a bucketed calendar on every
// end-to-end benchmark workload (docs/ARCHITECTURE.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rlb::sim {

class CalendarQueue {
 public:
  /// Event times must be finite and non-negative.
  void push(double time, std::int32_t id);

  /// Smallest event by (time, id). Requires !empty().
  [[nodiscard]] std::pair<double, std::int32_t> top() const;

  /// Removes and returns the smallest event by (time, id).
  std::pair<double, std::int32_t> pop();

  /// top().first — the next event time. Requires !empty().
  [[nodiscard]] double min_time() const { return top().first; }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

 private:
  struct Event {
    double time;
    std::int32_t id;
  };

  std::vector<Event> heap_;  ///< min-heap by (time, id)
};

}  // namespace rlb::sim
