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
// The paper's text does not spell these redirects out, so they are a
// reconstruction. BoundModel::arrival_target and departure_target are
// their one home: the CTMC generator (transitions()), the GI simulator
// and the waiting-time profile all call them, and the precedence argument
// for each rule sits next to their declarations below.
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

  /// Where an arrival into tie group `g` of m (in S(T), with `groups` =
  /// statespace::tie_groups(m)) lands: at g's head, unless that breaks
  /// gap T. m is taken by value, so a simulator can move its state in and
  /// out without a copy. Positions below are 1-based, as in e_1 (longest)
  /// and e_N (shortest); S_k(x) is the k-th partial sum of a sorted state,
  /// and x precedes y (x is more preferable) when S_k(x) <= S_k(y) for
  /// every k.
  /// Only an arrival into the top group at gap T breaks the gap, and its
  /// target m + e_1 (S_k(m) + 1 for every k) follows every other one-job
  /// arrival.
  ///   * Lower: m + e_j with j the bottom group's first position. j > 1,
  ///     so S_k(m + e_j) = S_k(m) + [k >= j] <= S_k(m + e_1): the redirect
  ///     precedes the original target, and as the bottom rises the gap
  ///     cannot grow.
  ///   * Upper (PhantomBottom): m + e_1 plus one phantom job at every
  ///     bottom-group server. Adding jobs only raises partial sums, so the
  ///     target follows m + e_1. The new maximum is m1 + 1, so every server
  ///     at the old minimum must rise to mN + 1 to stay in S(T): this is
  ///     the minimal such target. The jump of 1 + |bottom| <= N jobs keeps
  ///     the QBD's levels adjacent, and the rule is shift-invariant.
  ///   * Upper (AllServers): m + 1. S_k(m + 1) = S_k(m) + k >= S_k(m + e_1),
  ///     so it follows m + e_1 too, but loosely.
  [[nodiscard]] statespace::State arrival_target(
      statespace::State m, const std::vector<statespace::TieGroup>& groups,
      const statespace::TieGroup& g) const;

  /// Where a departure from busy tie group `g` of m leaves the state: one
  /// job fewer at g's last position, unless that breaks gap T. Only a
  /// departure from the bottom group (last position N) at gap T does.
  ///   * Lower: jockeying, m - e_t with t the top group's last position.
  ///     t < N, so S_k(m - e_t) = S_k(m) - [k >= t] <= S_k(m) - [k >= N]
  ///     = S_k(m - e_N): the redirect precedes the original target.
  ///   * Upper: m itself (service pauses; transitions() drops the self
  ///     loop). S_k(m) >= S_k(m - e_N), so m follows the original target.
  [[nodiscard]] statespace::State departure_target(
      statespace::State m, const std::vector<statespace::TieGroup>& groups,
      const statespace::TieGroup& g) const;

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
