// Parallel-replica execution for the simulators.
//
// A huge-N simulation cell (the paper's 1e8-job runs) is split into R
// independent replicas, each a shorter run of the same chain with its own
// warmup and a seed derived only from (base seed, replica index). The
// replica results are merged in replica-index order on the calling thread
// — through the mergeable statistics in sim/stats.h, which combine batch
// means with honest degrees of freedom (total completed batches - 1) —
// so the merged estimate is bit-identical for every thread count: threads
// change wall-clock time and nothing else, the same contract
// engine/sweep.h gives cell-level parallelism.
//
// Worker threads come from a util::ThreadBudget shared with the cell-level
// sweep, so the two levels split one pool instead of oversubscribing.
// Helpers are recruited opportunistically between replicas: a lone long
// cell at the tail of a sweep picks up the slots the finished cells
// released.
//
// Every run goes through one round loop, run_replicas. A fixed budget is
// the one-round plan AdaptivePlan::fixed, the one-stage case of a
// sequential stopping procedure (Law & Carson, Operations Research 27(5),
// 1979); --target-ci plans add rounds until the CI is narrow enough.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "util/parallel_for.h"
#include "util/require.h"
#include "util/thread_budget.h"

namespace rlb::sim {

/// Seed for replica `replica` of a run with base seed `base`: splitmix64
/// mixing of the replica index. Replica 0 keeps the base seed itself, so a
/// single-replica run is bit-identical with the pre-replica serial path
/// (legacy seeds, committed baselines and golden tests stay valid). The
/// index is 64-bit because the round loop numbers replicas across rounds.
std::uint64_t replica_seed(std::uint64_t base, std::uint64_t replica);

/// Sequential-stopping ("run until the answer is ±ε") configuration for
/// run_replicas. The run proceeds in ROUNDS: round r launches
/// `replicas` fresh replicas with a per-replica budget of
/// round_jobs(r) / replicas jobs; after the round's replicas merge (in
/// global replica-index order), the pooled CI half-width of the target
/// statistic is compared against `target_ci`. The schedule — round sizes,
/// warmups, seeds — is a pure function of this struct, never of timing or
/// the thread count, so adaptive output is bit-identical across
/// --threads (rounds are barriers; within a round replicas seed and
/// merge in index order).
struct AdaptivePlan {
  int replicas = 1;             ///< replicas launched per round
  double target_ci = 0.0;       ///< stop when half-width <= this (> 0)
  double confidence = 0.95;     ///< CI level (a t_quantile table level)
  std::uint64_t initial_jobs = 0;  ///< round-0 total jobs across replicas
  double growth_factor = 2.0;   ///< round r total = initial * growth^r
  std::uint64_t max_jobs = 0;   ///< cumulative cap (includes warmup)
  /// Leading jobs every replica of every round discards. The count is
  /// ABSOLUTE, independent of the replica's budget, so the transient
  /// discard stays honest when rounds start small or replica counts are
  /// large.
  std::uint64_t warmup_jobs = 0;
  std::uint64_t base_seed = 1;

  /// A fixed budget as a one-round plan: `total_jobs` jobs, `total_warmup`
  /// of them warmup, split evenly across `replicas` replicas. The target
  /// is +infinity, so the run stops after round 0. Remainder jobs are
  /// dropped (at 1e6+ jobs per cell the bias is nil), which keeps every
  /// replica identical and the split independent of the thread count.
  ///
  /// The warmup splits with the jobs: each replica discards
  /// total_warmup / replicas, the same FRACTION of its chain that a
  /// single replica would. Absolute per-replica transients therefore
  /// shrink as R grows; with R around the core count (the intended
  /// regime) this is well inside the usual 10% warmup margin, but
  /// R >> jobs/mixing-time would bias the merged estimate — keep R modest
  /// or raise total_warmup with it. Throws when replicas < 1, when
  /// total_warmup >= total_jobs, or when a replica's share is all warmup.
  static AdaptivePlan fixed(int replicas, std::uint64_t total_jobs,
                            std::uint64_t total_warmup,
                            std::uint64_t base_seed);

  void validate() const;

  /// Total job budget requested for round `round` (before the clamp to
  /// the remaining max_jobs allowance): initial_jobs * growth_factor^round,
  /// saturating at max_jobs. The schedule depends only on the round
  /// index, never on the observed statistics.
  [[nodiscard]] std::uint64_t round_jobs(int round) const;

  /// The batch-means batch size: ROUND 0's per-replica measured count
  /// / 30, at least 1. One size serves every round — BatchMeans merging
  /// requires it — so later, larger rounds simply complete more batches.
  [[nodiscard]] std::uint64_t batch_size() const;
};

/// What the adaptive run did: exposed per cell as the half_width /
/// jobs_used / converged scenario columns.
struct AdaptiveReport {
  bool converged = false;  ///< half-width met target before max_jobs
  /// Achieved pooled half-width at the plan's confidence. +infinity in
  /// the degenerate case where the run capped out before two batches
  /// ever completed — no interval could be formed, and printing "inf"
  /// is more honest than a fake 0.
  double half_width = 0.0;
  std::uint64_t jobs_used = 0;  ///< total jobs simulated, warmup included
  int rounds = 0;               ///< rounds executed

  /// Row-level aggregate for scenarios whose table row spans several
  /// adaptive cells (one per policy / simulator): the WORST half-width,
  /// the TOTAL budget, converged only when every cell converged, the
  /// longest round count. Fold cell reports into a row_identity() seed.
  void combine(const AdaptiveReport& cell) {
    converged = converged && cell.converged;
    half_width = std::max(half_width, cell.half_width);
    jobs_used += cell.jobs_used;
    rounds = std::max(rounds, cell.rounds);
  }

  /// The neutral element for combine() (converged must start true).
  [[nodiscard]] static AdaptiveReport row_identity() {
    AdaptiveReport identity;
    identity.converged = true;
    return identity;
  }
};

/// The replica runner. Rounds of plan.replicas fresh replicas run until
/// half_width(merged) <= plan.target_ci or the cumulative job budget hits
/// plan.max_jobs (then report.converged is false — the estimate is still
/// the best available, just not at the requested precision). A fixed
/// budget, AdaptivePlan::fixed, is exactly one round.
///
/// - run(global_replica, seed, jobs, warmup) -> Result simulates one
///   replica and must derive ALL its randomness from `seed`.
///   `global_replica` numbers replicas consecutively ACROSS rounds (round
///   r owns indices r*R .. r*R + R - 1) and `seed` is
///   replica_seed(plan.base_seed, global_replica), so the round schedule
///   never reuses a stream and every plan of the same round-0 shape runs
///   the same first round.
/// - merge(accumulator&, other const&) folds results in global-index
///   order on the calling thread.
/// - half_width(merged) -> double reports the pooled CI half-width of
///   the designated target statistic at plan.confidence; return
///   +infinity while the estimate is not yet CI-capable (< 2 completed
///   batches) so the run keeps going.
///
/// Extra worker threads come from `budget` via util::budgeted_for (pass
/// util::ThreadBudget::serial() to run on the calling thread only).
/// Rounds are barriers: round r+1 starts only after round r merged, and
/// the stopping decision depends only on merged statistics — output is
/// bit-identical for every `budget`. A replica that throws stops the
/// remaining replicas and the first exception is rethrown on the calling
/// thread after all helpers retire.
template <typename Result, typename RunFn, typename MergeFn,
          typename HalfWidthFn>
Result run_replicas(const AdaptivePlan& plan, util::ThreadBudget& budget,
                    RunFn&& run, MergeFn&& merge, HalfWidthFn&& half_width,
                    AdaptiveReport& report) {
  plan.validate();
  const auto count = static_cast<std::size_t>(plan.replicas);
  const auto replicas64 = static_cast<std::uint64_t>(plan.replicas);
  report = AdaptiveReport{};
  std::optional<Result> merged;
  for (int round = 0;; ++round) {
    if (merged) {
      report.half_width = half_width(*merged);
      if (report.half_width <= plan.target_ci) {
        report.converged = true;
        break;
      }
      if (report.jobs_used >= plan.max_jobs) break;
      // report.rounds is an int: stop rather than overflow it.
      if (round == std::numeric_limits<int>::max()) break;
    }
    const std::uint64_t round_total = std::min(
        plan.round_jobs(round), plan.max_jobs - report.jobs_used);
    const std::uint64_t jobs_per_replica = round_total / replicas64;
    // The clamped tail of the budget may be too thin to measure anything;
    // plan.validate() guarantees round 0 never is.
    if (jobs_per_replica <= plan.warmup_jobs) break;

    std::vector<std::optional<Result>> results(count);
    const std::uint64_t first = static_cast<std::uint64_t>(round) * replicas64;
    util::budgeted_for(count, budget, [&](std::size_t i) {
      const std::uint64_t global = first + i;
      results[i] = run(global, replica_seed(plan.base_seed, global),
                       jobs_per_replica, plan.warmup_jobs);
    });
    for (auto& result : results) {
      if (!merged)
        merged = std::move(*result);
      else
        merge(*merged, *result);
    }
    report.rounds = round + 1;
    report.jobs_used += jobs_per_replica * replicas64;
  }
  RLB_ASSERT(merged.has_value(), "replica run executed zero rounds");
  return std::move(*merged);
}

}  // namespace rlb::sim
