// Deterministic parallel sweep primitives for the scenario engine.
//
// The contract that makes `rlb_run --threads=8` reproducible: every grid
// cell is an independent computation seeded only by (base seed, cell
// index), results land in a vector slot owned by the cell index, and the
// caller assembles tables in index order. The thread count therefore
// changes wall-clock time and nothing else — parallel and serial runs are
// bit-identical.
#pragma once

#include <cstdint>
#include <thread>
#include <vector>

#include "util/parallel_for.h"
#include "util/thread_budget.h"

namespace rlb::engine {

/// Decorrelated per-cell seed: splitmix64 over (base, index). Deterministic
/// across platforms and independent of thread scheduling.
std::uint64_t cell_seed(std::uint64_t base, std::uint64_t index);

/// Number of workers for a requested thread count (0 means "hardware
/// concurrency"). Throws std::invalid_argument, naming --threads, on a
/// negative count.
int resolve_threads(int requested);

/// results[i] = fn(i) for i in [0, count), computed by the calling thread
/// plus helpers drawn from `budget`, all pulling cell indices from a
/// shared counter. The result order is the index order, so the output is
/// invariant under the budget. Helpers are recruited between cells (not
/// only up front) and return their slot to the budget as they retire, so
/// a cell's inner replica loop (sim/replica.h, sharing the same budget)
/// and the cell loop split one pool without oversubscribing. The first
/// exception thrown by any cell stops the sweep and is rethrown on the
/// calling thread after all helpers finish.
template <typename T, typename Fn>
std::vector<T> parallel_map(std::size_t count, util::ThreadBudget& budget,
                            Fn&& fn) {
  std::vector<T> results(count);
  util::budgeted_for(count, budget,
                     [&](std::size_t i) { results[i] = fn(i); });
  return results;
}

}  // namespace rlb::engine
