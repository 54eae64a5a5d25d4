// Shape enumeration for the gap-bounded state space S(T).
//
// A shape is the vector delta_i = m_i - m_N: non-increasing, delta_N = 0,
// delta_1 <= T — i.e., an integer partition fitting inside an (N-1) x T box.
// Every repeating QBD level contains exactly one state per shape, which is
// why the paper's block size is C(N+T-1, T).
#pragma once

#include <cstddef>
#include <vector>

#include "statespace/state.h"

namespace rlb::statespace {

/// All shapes for N servers and gap threshold T, in lexicographically
/// decreasing order of the delta vector. Count is C(N+T-1, T).
std::vector<State> enumerate_shapes(int N, int T);

/// Number of shapes, C(N+T-1, T), computed exactly.
std::size_t shape_count(int N, int T);

}  // namespace rlb::statespace
