// The SQ(d) transition law on sorted states (paper Section II-A).
//
// For a tie group occupying 1-based positions [i, i+j] the arrival rate into
// the group (entering at its head, by convention) is
//
//   [ C(i+j, d) - C(i-1, d) ] / C(N, d) * lambda * N,
//
// and each busy tie group departs at rate (group size) * mu from its tail.
// These functions describe the ORIGINAL (untruncated) process; the bound
// models in bound_model.h post-process the targets that leave S(T).
#pragma once

#include <vector>

#include "sqd/params.h"
#include "statespace/state.h"

namespace rlb::sqd {

struct Transition {
  statespace::State to;
  double rate = 0.0;
};

/// Arrival transitions from m; rates sum to lambda*N.
std::vector<Transition> arrival_transitions(const statespace::State& m,
                                            const Params& p);

/// Departure transitions from m; rates sum to (busy servers) * mu.
std::vector<Transition> departure_transitions(const statespace::State& m,
                                              const Params& p);

/// Probability that an arrival joins the tie group whose 0-based head is
/// `head` and size is `size` (the bracketed binomial ratio above).
double arrival_group_probability(int head, int size, const Params& p);

}  // namespace rlb::sqd
