#include "sim/calendar_queue.h"

#include <queue>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace {

using rlb::sim::CalendarQueue;
using Event = std::pair<double, std::int32_t>;

/// Reference ordering: the standard library's heap over (time, id) pairs,
/// the order the test oracle's departure queue pops in.
using RefHeap =
    std::priority_queue<Event, std::vector<Event>, std::greater<>>;

TEST(CalendarQueue, PopsInTimeOrder) {
  CalendarQueue cq;
  cq.push(3.5, 0);
  cq.push(1.25, 1);
  cq.push(2.0, 2);
  cq.push(0.75, 3);
  EXPECT_EQ(cq.size(), 4u);
  EXPECT_EQ(cq.pop(), Event(0.75, 3));
  EXPECT_EQ(cq.pop(), Event(1.25, 1));
  EXPECT_EQ(cq.pop(), Event(2.0, 2));
  EXPECT_EQ(cq.pop(), Event(3.5, 0));
  EXPECT_TRUE(cq.empty());
}

TEST(CalendarQueue, BreaksTimeTiesById) {
  CalendarQueue cq;
  cq.push(1.0, 7);
  cq.push(1.0, 2);
  cq.push(1.0, 5);
  EXPECT_EQ(cq.pop(), Event(1.0, 2));
  EXPECT_EQ(cq.pop(), Event(1.0, 5));
  EXPECT_EQ(cq.pop(), Event(1.0, 7));
}

TEST(CalendarQueue, TopDoesNotRemove) {
  CalendarQueue cq;
  cq.push(2.5, 1);
  EXPECT_EQ(cq.top(), Event(2.5, 1));
  EXPECT_EQ(cq.top(), Event(2.5, 1));
  EXPECT_EQ(cq.size(), 1u);
  EXPECT_EQ(cq.min_time(), 2.5);
}

TEST(CalendarQueue, FarFutureEventsAreReachable) {
  CalendarQueue cq;
  cq.push(1e9, 0);
  EXPECT_EQ(cq.pop(), Event(1e9, 0));
  cq.push(0.5, 1);
  cq.push(1e12, 2);
  EXPECT_EQ(cq.pop(), Event(0.5, 1));
  EXPECT_EQ(cq.pop(), Event(1e12, 2));
}

TEST(CalendarQueue, PushBehindCursorIsSeen) {
  // An event earlier than the one top() last reported comes out first.
  CalendarQueue cq;
  cq.push(100.0, 0);
  EXPECT_EQ(cq.top(), Event(100.0, 0));
  cq.push(1.0, 1);
  EXPECT_EQ(cq.pop(), Event(1.0, 1));
  EXPECT_EQ(cq.pop(), Event(100.0, 0));
}

TEST(CalendarQueue, ResizesWithLoad) {
  CalendarQueue cq;
  for (int i = 0; i < 1000; ++i) cq.push(static_cast<double>(i) * 0.1, i);
  EXPECT_EQ(cq.size(), 1000u);
  double prev = -1.0;
  for (int i = 0; i < 1000; ++i) {
    const auto [t, id] = cq.pop();
    EXPECT_GE(t, prev);
    prev = t;
  }
  EXPECT_TRUE(cq.empty());
}

TEST(CalendarQueue, RejectsBadInputs) {
  CalendarQueue cq;
  EXPECT_THROW(cq.push(-1.0, 0), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(cq.pop()), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(cq.top()), std::invalid_argument);
}

TEST(CalendarQueue, MatchesReferenceHeapUnderRandomWorkload) {
  // Interleaved pushes and pops with clustered, tied, and far-flung
  // times; every pop must match the reference heap's order exactly.
  rlb::sim::Rng rng(2026);
  CalendarQueue cq;
  RefHeap ref;
  std::int32_t next_id = 0;
  double now = 0.0;
  for (int step = 0; step < 20'000; ++step) {
    const auto op = rng.uniform_int(10);
    if (op < 6 || ref.empty()) {
      double t = now;
      const auto kind = rng.uniform_int(4);
      if (kind == 0)
        t = now + static_cast<double>(rng.uniform_int(1000)) / 997.0;
      else if (kind == 1)
        t = now + 1e6;  // far future
      else if (kind == 2 && !ref.empty())
        t = ref.top().first;  // exact tie with the current minimum
      cq.push(t, next_id);
      ref.emplace(t, next_id);
      ++next_id;
    } else {
      const Event expected = ref.top();
      ref.pop();
      EXPECT_EQ(cq.pop(), expected);
      now = expected.first;
    }
    ASSERT_EQ(cq.size(), ref.size());
  }
  while (!ref.empty()) {
    const Event expected = ref.top();
    ref.pop();
    ASSERT_EQ(cq.pop(), expected);
  }
  EXPECT_TRUE(cq.empty());
}

}  // namespace
