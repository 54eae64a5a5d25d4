// In-memory span recorder for the benchmark's traced runs.
//
// Spans wrap the calls rlb_bench makes into the library's public entry
// points (a sweep cell, simulate_cluster, solve_bound, ...); nothing
// inside the library is instrumented. Each thread appends to its own
// buffer, so recording takes no lock after a thread's first span, and
// spans are collected only after the traced pass has joined all workers.
// A span's parent is the innermost span open on the same thread when it
// started; self time is its duration minus the part its children cover.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace rlb::perf {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  int cell = -1;             ///< sweep cell the span belongs to
  const char* name = "";     ///< a string literal
  double t0 = 0.0;           ///< seconds on the steady clock
  double t1 = 0.0;
  int thread = 0;            ///< recorder buffer index
};

/// Seconds since an arbitrary process-wide origin (steady clock).
double now_s();

/// Turn recording on or off for every thread. Spans opened while off are
/// free: a ScopedSpan then reads no clock.
void set_tracing(bool on);
bool tracing();

/// Every span recorded so far, in no particular order, leaving the
/// buffers empty. Call only while no other thread records.
std::vector<Span> drain_spans();

/// Records one span from construction to destruction when tracing is on.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, int cell);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool on_;
  std::uint64_t outer_ = 0;  ///< the thread's open span before this one
  Span span_;
};

/// Self time of spans[i]: its duration minus the union of its children's
/// intervals clipped to it, so overlapping children are not subtracted
/// twice.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Self time summed per span name.
std::map<std::string, double> self_time_by_name(const std::vector<Span>& spans);

/// Chrome trace-event JSON (complete "X" events, microseconds), loadable
/// in chrome://tracing or Perfetto.
void write_chrome_trace(const std::vector<Span>& spans, std::ostream& os);

}  // namespace rlb::perf
