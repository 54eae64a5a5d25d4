// The lower and upper bound models (paper Sections II-III).
//
// Both models live on the gap-bounded space S(T) = { m : m1 - mN <= T }.
// Transitions of the original SQ(d) process whose target leaves S(T) are
// redirected, and the direction of the redirection (w.r.t. the precedence
// order of Eq. (5): componentwise partial sums) decides which bound the
// modified chain produces:
//
//   LOWER bound (redirect to MORE preferable states):
//     * arrival that would push the longest queue past gap T
//         -> join the shortest queue instead           (m + e_N)
//     * departure from the shortest queue at gap T
//         -> depart from the longest queue instead     (m - e_1, "jockeying")
//     No capacity is lost: stable for all lambda < mu, and the level tail
//     is exactly geometric with ratio rho^N (Theorem 3).
//
//   UPPER bound (redirect to LESS preferable states):
//     * arrival that would push the longest queue past gap T
//         -> the job joins the longest queue AND a phantom job joins every
//            shortest-queue server (m + e_1 + e_bottom-group), the minimal
//            target in S(T) that dominates m + e_1 in the precedence order
//     * departure from the shortest queue at gap T
//         -> no departure (service pauses)             (m)
//     Capacity is wasted, so stability needs Neuts' drift condition; the
//     stability region shrinks as T decreases (Figure 10(a)).
//
// See DESIGN.md for why these rules are a reconstruction and for the
// precedence-monotonicity argument of each redirect.
#pragma once

#include <vector>

#include "sqd/params.h"
#include "sqd/transitions.h"
#include "statespace/state.h"

namespace rlb::sqd {

enum class BoundKind { Lower, Upper };

/// How the upper model redirects a gap-breaking arrival. Both choices are
/// precedence-valid upper bounds; PhantomBottom is the minimal (tightest)
/// one and the default. AllServers (redirect to m + 1) is kept for the
/// ablation bench: it is dramatically more pessimistic for larger N.
enum class UpperArrivalRule { PhantomBottom, AllServers };

class BoundModel {
 public:
  /// `rank_speeds` makes the service rates heterogeneous: the queue at
  /// sorted position k (0 = the longest) is served at rank_speeds[k] * mu
  /// while busy. Rank-based rates are the heterogeneity model that keeps
  /// the sorted state space S(T) valid — speeds attach to queue-length
  /// ranks, not server identities (per-identity speeds live in the
  /// cluster DES). The profile must hold N positive entries summing to N
  /// (equal total capacity, so rho and Theorem 3's rate rho^N keep their
  /// meaning), or be empty for the homogeneous model; all ones reproduces
  /// the homogeneous rates bit for bit. Every level state has all N
  /// servers busy, so the QBD stays level-independent and the solvers
  /// take either model. The redirection rules are rate-independent.
  BoundModel(Params p, int T, BoundKind kind,
             std::vector<double> rank_speeds = {},
             UpperArrivalRule rule = UpperArrivalRule::PhantomBottom);

  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] int threshold() const { return threshold_; }
  [[nodiscard]] BoundKind kind() const { return kind_; }
  /// Empty for the homogeneous model.
  [[nodiscard]] const std::vector<double>& rank_speeds() const {
    return rank_speeds_;
  }

  /// All outgoing transitions from a state in S(T), with the redirection
  /// rules applied and transitions to identical targets merged. Every
  /// returned target is again in S(T).
  [[nodiscard]] std::vector<Transition> transitions(
      const statespace::State& m) const;

  /// True iff m is a valid state of this model.
  [[nodiscard]] bool contains(const statespace::State& m) const;

 private:
  Params params_;
  int threshold_;
  BoundKind kind_;
  std::vector<double> rank_speeds_;
  UpperArrivalRule upper_rule_;
};

}  // namespace rlb::sqd
