// Sorted queue-length states and tie-group utilities.
//
// A state m = (m1 >= m2 >= ... >= mN >= 0) lists queue lengths in
// non-increasing order (paper Section II). The tie conventions — arrivals
// enter a tie group at its head, departures leave at its tail — are what
// keep every transition inside the sorted representation.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace rlb::statespace {

/// Queue lengths in non-increasing order; index 0 is the longest queue.
using State = std::vector<int>;

/// Hash for unordered containers keyed on a State.
struct StateHash {
  std::size_t operator()(const State& s) const noexcept {
    std::size_t h = 0x9e3779b97f4a7c15ull;
    for (int v : s)
      h ^= static_cast<std::size_t>(v) + 0x9e3779b97f4a7c15ull + (h << 6) +
           (h >> 2);
    return h;
  }
};

/// Total number of jobs #m.
int total_jobs(const State& m);

/// Gap m1 - mN between longest and shortest queue.
int gap(const State& m);

/// True iff the vector is non-increasing with non-negative entries.
bool is_valid_state(const State& m);

/// Number of waiting (non-in-service) jobs: sum of max(mi - 1, 0).
int waiting_jobs(const State& m);

/// Number of busy servers: count of mi > 0.
int busy_servers(const State& m);

/// A maximal run of equal components. `head`/`tail` are 0-based inclusive
/// indices, `value` the common queue length.
struct TieGroup {
  int head = 0;
  int tail = 0;
  int value = 0;
  [[nodiscard]] int size() const { return tail - head + 1; }
};

/// Decompose a state into its tie groups, longest queues first.
std::vector<TieGroup> tie_groups(const State& m);

/// Arrival into the tie group with head index `head`: increments that
/// component (stays sorted by the head convention).
State after_arrival_at_head(const State& m, int head);

/// Departure from the tie group with tail index `tail`: decrements that
/// component (stays sorted by the tail convention). Requires m[tail] > 0.
State after_departure_at_tail(const State& m, int tail);

/// The state m + (1,1,...,1): one extra job at every server.
State plus_one_everywhere(const State& m);

/// Human-readable "(3,2,2,0)" form for diagnostics.
std::string to_string(const State& m);

}  // namespace rlb::statespace
