// Level/block partition of the gap-bounded state space S(T) (paper §IV-A).
//
//   boundary  B_b  = { m in S(T) : #m <= (N-1)T }        (all idle-server
//                                                          states live here)
//   level q   B_q  = { m : (N-1)T + qN < #m <= (N-1)T + (q+1)N },  q >= 0
//
// Each level contains exactly one state per shape (C(N+T-1, T) states), the
// map m -> m + (1,...,1) is a bijection B_q -> B_{q+1}, and every level
// state has m_N >= 1. States inside a block are ordered by total jobs with
// lexicographic tie-breaking, consistently across levels.
#pragma once

#include <cstddef>
#include <optional>
#include <unordered_map>
#include <vector>

#include "statespace/shapes.h"
#include "statespace/state.h"

namespace rlb::statespace {

class LevelSpace {
 public:
  LevelSpace(int N, int T);

  [[nodiscard]] int servers() const { return n_; }
  [[nodiscard]] int threshold() const { return t_; }

  /// Largest total job count in the boundary block: (N-1)*T.
  [[nodiscard]] int boundary_total_max() const { return boundary_total_max_; }

  /// Number of states per repeating level: C(N+T-1, T).
  [[nodiscard]] std::size_t block_size() const { return level0_.size(); }

  /// Boundary states, ordered by (total jobs, lexicographic).
  [[nodiscard]] const std::vector<State>& boundary_states() const {
    return boundary_;
  }

  /// Level-0 states in block order.
  [[nodiscard]] const std::vector<State>& level0_states() const {
    return level0_;
  }

  /// j-th state of level q (level-0 state plus q extra jobs everywhere).
  [[nodiscard]] State level_state(int q, std::size_t j) const;

  /// Block membership of a state in S(T).
  struct Location {
    bool boundary = false;
    int level = -1;          ///< valid when !boundary
    std::size_t index = 0;   ///< index within the block
  };
  [[nodiscard]] Location locate(const State& m) const;

  /// True iff the state belongs to S(T) for this (N, T).
  [[nodiscard]] bool contains(const State& m) const;

 private:
  int n_ = 0;
  int t_ = 0;
  int boundary_total_max_ = 0;
  std::vector<State> boundary_;
  std::vector<State> level0_;
  std::unordered_map<State, std::size_t, StateHash> boundary_index_;
  std::unordered_map<State, std::size_t, StateHash> level0_index_;
};

}  // namespace rlb::statespace
