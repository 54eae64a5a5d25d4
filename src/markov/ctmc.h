// Generic finite CTMC construction over hashed vector states.
//
// Used for the exact (truncated) reference solutions of the original SQ(d)
// process against which the bound models are validated, and for
// simulating/solving small chains in tests.
#pragma once

#include <cstddef>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "statespace/state.h"

namespace rlb::markov {

using StateIndex =
    std::unordered_map<statespace::State, std::size_t, statespace::StateHash>;

/// One outgoing transition: target state and rate.
struct Rated {
  statespace::State to;
  double rate = 0.0;
};

using TransitionFn =
    std::function<std::vector<Rated>(const statespace::State&)>;

/// A finite CTMC with an explicit dense generator.
struct Ctmc {
  std::vector<statespace::State> states;  ///< index -> state
  StateIndex index;                       ///< state -> index
  linalg::Matrix generator;               ///< row sums are zero

  [[nodiscard]] std::size_t size() const { return states.size(); }
};

/// Breadth-first exploration of the reachable set from `initial` under `fn`.
/// `fn` must make the reachable set finite (e.g., by truncating arrivals);
/// exploration aborts past `max_states` with an exception.
Ctmc build_ctmc(const statespace::State& initial, const TransitionFn& fn,
                std::size_t max_states = 2'000'000);

}  // namespace rlb::markov
