// Direct CTMC simulation of the lower/upper bound models themselves.
//
// The bound models are ordinary finite-rate CTMCs on S(T) (jockeying /
// pausing / batch redirects included), so simulating them and comparing
// against the matrix-geometric solution validates the builder and the
// solver end to end. Time averages use expected holding times (1/total
// rate), which is unbiased and lower-variance than sampling the clocks.
// Long runs shard into parallel replicas (sim/replica.h) whose
// time-weighted accumulators merge exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/replica.h"
#include "sqd/bound_model.h"
#include "util/thread_budget.h"

namespace rlb::sim {

struct BoundSimResult {
  double mean_waiting_jobs = 0.0;
  double mean_jobs = 0.0;
  double max_gap_seen = 0.0;  ///< should never exceed T
  std::uint64_t steps = 0;

  /// Pooled 95% CI half-width on the waiting-jobs time average
  /// (holding-time-weighted batch means, df = total batches - 1).
  double ci95_waiting_jobs = 0.0;

  /// The run's stopping report (a fixed plan reports its one round).
  AdaptiveReport adaptive;
};

/// Run `plan` (sim/replica.h): rounds of plan.replicas jump chains,
/// seeded replica_seed(plan.base_seed, r); a "job" of the plan is one
/// chain step here. AdaptivePlan::fixed is one round of a fixed step
/// budget; a --target-ci plan grows the budget until the pooled CI
/// half-width of the MEAN WAITING JOBS time average
/// (holding-time-weighted batch means) at plan.confidence drops to
/// plan.target_ci or plan.max_jobs caps out (docs/PRECISION.md).
/// Bit-identical for every budget. `rank_speeds` selects the
/// heterogeneous-rate variant of the model (see
/// BoundModel::transitions(m, rank_speeds)); empty — the default — is the
/// homogeneous model.
BoundSimResult simulate_bound_model(const sqd::BoundModel& model,
                                    const AdaptivePlan& plan,
                                    util::ThreadBudget& budget,
                                    const std::vector<double>& rank_speeds =
                                        {});

}  // namespace rlb::sim
