// Arrival traces: timestamped arrival epochs (with optional batch sizes)
// parsed from a simple text/CSV file, the replay half of the
// workload-generator/simulator split (docs/WORKLOADS.md).
//
// File format, one arrival epoch per line:
//
//   <timestamp> [<batch>]
//
// Fields are separated by whitespace and/or a single comma (so both
// "12.5 3" and "12.5,3" parse). `timestamp` is a finite, non-negative,
// non-decreasing simulation time; `batch` is an optional integer >= 1
// (default 1) counting jobs arriving at that epoch. `#` starts a comment
// that runs to end of line; blank lines are ignored. One optional
// directive line
//
//   horizon=<value>
//
// declares the trace's period (the time the recorded window covers);
// without it the horizon defaults to the last timestamp. TraceArrivalProcess
// (sim/arrival_process.h) replays the trace cyclically with the horizon as
// the wrap-around period, so horizon > last timestamp inserts the trailing
// quiet gap a real recorded window has.
//
// Every malformed input — non-monotone or negative or non-finite
// timestamps, bad batch counts, trailing fields, an empty trace — throws
// std::invalid_argument (RLB_REQUIRE) naming the offending line.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace rlb::sim {

struct TraceEntry {
  double time = 0.0;        ///< arrival epoch (simulation time)
  std::uint32_t batch = 1;  ///< jobs arriving at this epoch (>= 1)
};

struct Trace {
  std::vector<TraceEntry> entries;
  /// Length of the recorded window; >= the last timestamp, > 0. The
  /// cyclic-replay period of TraceArrivalProcess.
  double horizon = 0.0;

  /// Jobs per cycle: the sum of all batch sizes.
  [[nodiscard]] std::uint64_t total_jobs() const;

  /// Long-run replay rate: total_jobs() / horizon.
  [[nodiscard]] double mean_rate() const;

  /// Throws std::invalid_argument unless the trace is non-empty with
  /// finite, non-negative, non-decreasing timestamps, batches >= 1, and
  /// horizon >= last timestamp (> 0).
  void validate() const;
};

/// Parse a trace from a stream (format above). Throws
/// std::invalid_argument on any malformed line, naming the line number.
Trace parse_trace(std::istream& in);

/// Parse a trace file; the error message names the path.
Trace load_trace(const std::string& path);

/// Serialize in canonical form: a `horizon=` directive (only when it
/// differs from the last timestamp), then one "<time> <batch>" line per
/// entry with round-trip (max_digits10) precision, so
/// parse_trace(write_trace(t)) reproduces `t` bit-for-bit.
void write_trace(std::ostream& out, const Trace& trace);

}  // namespace rlb::sim
