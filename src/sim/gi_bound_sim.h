// The LOWER bound model under general renewal arrivals — the setting of
// Theorem 2, which predicts that the stationary level masses decay
// geometrically with ratio sigma^N, where sigma solves x = LST(mu(1-x)).
// solve_sigma computes that prediction from the same law object the
// simulator samples.
//
// The chain is no longer a CTMC (interarrival times are arbitrary), so this
// runs an event-driven simulation: renewal arrival clock + exponential
// service clocks, with the model's redirects (sqd::BoundModel's
// arrival_target and departure_target: join-shortest fallback, threshold
// jockeying) applied at the gap boundary. The measured total-jobs
// histogram exposes the level-tail ratio for direct comparison with
// sigma^N.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/distributions.h"
#include "sim/replica.h"
#include "sqd/bound_model.h"
#include "util/thread_budget.h"

namespace rlb::sim {

struct GiBoundSimResult {
  double mean_waiting_jobs = 0.0;
  double mean_jobs = 0.0;
  /// Time-average probability of holding exactly k jobs (k = index).
  std::vector<double> total_jobs_dist;
  /// Ratio of successive level masses, estimated from the histogram tail
  /// (levels are N-job bands above the boundary); Theorem 2 predicts
  /// sigma^N.
  double level_tail_ratio = 0.0;
  std::uint64_t events = 0;

  /// Pooled 95% CI half-width on the waiting-jobs time average
  /// (dt-weighted batch means over measured events).
  double ci95_waiting_jobs = 0.0;

  /// The run's stopping report (a fixed plan reports its one round).
  AdaptiveReport adaptive;
};

/// Simulate the lower bound model with i.i.d. `interarrival` times and
/// Exp(mu) services under `plan` (sim/replica.h); a "job" of the plan is
/// one arrival event here. Requires model.kind() == BoundKind::Lower.
/// Replicas are seeded replica_seed(plan.base_seed, r), and their
/// occupancy histograms merge time-weighted before the level-tail ratio
/// is estimated. AdaptivePlan::fixed is one round of a fixed arrival
/// budget; a --target-ci plan grows the budget until the pooled CI
/// half-width of the MEAN WAITING JOBS time average (dt-weighted batch
/// means) at plan.confidence drops to plan.target_ci or plan.max_jobs
/// caps out (docs/PRECISION.md). Bit-identical for every budget.
///
/// A model with rank speeds (sqd::BoundModel) serves the queue at sorted
/// position k at rate rank_speeds[k] * mu while busy, and departures pick
/// a busy rank proportionally to its rate. Theorem 2's sigma^N prediction
/// applies to the homogeneous model only; the hetero level_tail_ratio is
/// an empirical output.
GiBoundSimResult simulate_gi_lower_bound(const sqd::BoundModel& model,
                                         const Distribution& interarrival,
                                         const AdaptivePlan& plan,
                                         util::ThreadBudget& budget);

struct SigmaResult {
  double sigma = 0.0;
  double residual = 0.0;
  int iterations = 0;
};

/// Theorem 2: the root in (0, 1) of
///
///   x = sum_{k>=0} x^k beta_k,   beta_k = E[ (mu U)^k / k! * e^{-mu U} ],
///
/// with U ~ `a` and mu the pooled service rate between
/// arrivals (N mu for a cluster-level stream). The right-hand side is the
/// Laplace-Stieltjes transform of U at mu (1 - x), so the law must have
/// an lst(). Theorem 3: sigma = rho for Poisson arrivals. Throws
/// std::runtime_error when the utilization rho = 1/(mu E[U]) is >= 1 (no
/// root inside the unit circle).
SigmaResult solve_sigma(const Distribution& a, double mu);

}  // namespace rlb::sim
