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
#include <memory>
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

/// How the per-replica warmup is chosen when the run length is not fixed
/// up front (the adaptive path, and docs/PRECISION.md's contract):
///
/// - kFixed: every replica discards the same ABSOLUTE number of leading
///   jobs, independent of how large its measurement budget is. This is
///   the adaptive default — it keeps the transient discard honest when
///   replica counts are extreme or rounds start small (the fractional
///   split's bias noted at AdaptivePlan::fixed cannot occur).
/// - kFraction: every replica discards a fixed FRACTION of its jobs.
///   Cheap for huge per-replica budgets, biased when the absolute
///   transient shrinks below the mixing time.
enum class WarmupPolicy { kFixed, kFraction };

/// Which RoundPlanner chooses the size of each adaptive round
/// (--planner, docs/PRECISION.md):
///
/// - kGeometric: round r requests initial_jobs * growth_factor^r — the
///   fixed schedule, blind to the statistics. Simple, but the last round
///   overshoots the needed budget by up to the growth factor.
/// - kVariance: rounds after the first are sized from the OBSERVED
///   half-width: since hw ~ c/sqrt(jobs), the cumulative budget that
///   reaches `target_ci` is predicted as
///   jobs_used * (hw / target_ci)^2, inflated by a safety factor
///   (planner_safety) because the variance estimate behind hw is itself
///   noisy; the next round is the missing part of that prediction. Easy
///   cells stop near the predicted budget instead of at the next power
///   of the growth factor.
///
/// Both planners read only the plan and merged statistics, so either
/// schedule is bit-identical across thread counts; round 0 is
/// initial_jobs for both, so a one-round run is the same for either
/// planner.
enum class PlannerKind { kGeometric, kVariance };

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
  WarmupPolicy warmup_policy = WarmupPolicy::kFixed;
  std::uint64_t warmup_jobs = 0;    ///< kFixed: absolute, per replica
  double warmup_fraction = 0.1;     ///< kFraction: of per-replica jobs
  std::uint64_t base_seed = 1;
  PlannerKind planner = PlannerKind::kGeometric;
  /// Variance planner only: inflate the predicted budget by this factor
  /// (the half-width the prediction extrapolates is itself a noisy
  /// estimate; undershooting costs an extra round, so predict high).
  double planner_safety = 1.2;

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

  /// Total job budget requested for round `round` (before the max_jobs
  /// clamp): initial_jobs * growth_factor^round, saturating at max_jobs.
  /// This is the GEOMETRIC schedule; run_replicas consults the
  /// plan's RoundPlanner (make_planner), which may size rounds from the
  /// observed half-width instead.
  [[nodiscard]] std::uint64_t round_jobs(int round) const;

  /// The smallest round total whose per-replica share outlives its
  /// warmup — anything thinner would measure nothing and the runner
  /// treats it as "budget exhausted".
  [[nodiscard]] std::uint64_t min_round_jobs() const;

  /// Per-replica warmup for a replica running `jobs_per_replica` jobs,
  /// under this plan's warmup policy.
  [[nodiscard]] std::uint64_t warmup_for(std::uint64_t jobs_per_replica)
      const;

  /// The batch-means batch size: ROUND 0's per-replica measured count
  /// / 30, at least 1. One size serves every round — BatchMeans merging
  /// requires it — so later, larger rounds simply complete more batches.
  [[nodiscard]] std::uint64_t batch_size() const;
};

/// Chooses the total job budget of each adaptive round. Implementations
/// MUST be pure functions of (plan, round, jobs_used, half_width) —
/// never of timing, the thread count, or call history — so the round
/// schedule, and with it every output bit, stays deterministic across
/// --threads (docs/PRECISION.md's determinism guarantee).
class RoundPlanner {
 public:
  virtual ~RoundPlanner() = default;

  /// Job budget to request for round `round` (run_replicas clamps the
  /// request to the remaining max_jobs allowance).
  /// `jobs_used` is the cumulative budget burned by earlier rounds
  /// (warmup included) and `half_width` the pooled CI half-width after
  /// the last merge — +infinity before round 0 or while fewer than two
  /// batches completed.
  [[nodiscard]] virtual std::uint64_t round_jobs(
      int round, std::uint64_t jobs_used, double half_width) const = 0;
};

/// The planner selected by plan.planner (plan must outlive the result).
std::unique_ptr<RoundPlanner> make_planner(const AdaptivePlan& plan);

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

/// Where a stopped run left off, to resume it (the --refine path,
/// docs/CACHING.md): the rounds it completed, the budget (warmup
/// included) they burned, and the EXACT merged Result after them — a
/// bit-exact checkpoint restore, e.g. ClusterRoundState for the cluster
/// simulator.
template <typename Result>
struct ResumeState {
  int rounds = 0;
  std::uint64_t jobs_used = 0;
  Result merged;
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
///
/// With `resume` the run continues a stopped one, typically at a tighter
/// plan.target_ci; the plan must match the original in every other
/// field. Replica numbering continues globally, so no stream is reused.
/// Under the GEOMETRIC planner, whose round sizes depend only on the
/// round index, the result is bit-identical to a cold run at the new
/// target. (The variance planner sizes rounds from target_ci, so a
/// resumed run takes a different — still valid, still deterministic —
/// schedule than a cold run.) The report covers the WHOLE run:
/// `report.jobs_used - resume->jobs_used` is the budget the resumption
/// actually simulated.
template <typename Result, typename RunFn, typename MergeFn,
          typename HalfWidthFn>
Result run_replicas(const AdaptivePlan& plan, util::ThreadBudget& budget,
                    RunFn&& run, MergeFn&& merge, HalfWidthFn&& half_width,
                    AdaptiveReport& report,
                    std::optional<ResumeState<Result>> resume = {}) {
  plan.validate();
  const auto count = static_cast<std::size_t>(plan.replicas);
  const auto replicas64 = static_cast<std::uint64_t>(plan.replicas);
  const std::unique_ptr<RoundPlanner> planner = make_planner(plan);
  report = AdaptiveReport{};
  std::optional<Result> merged;
  if (resume) {
    RLB_REQUIRE(resume->rounds >= 1,
                "resume requires at least one completed round");
    report.rounds = resume->rounds;
    report.jobs_used = resume->jobs_used;
    merged = std::move(resume->merged);
  }
  for (int round = report.rounds;; ++round) {
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
    // The planner sees an infinite half-width until the first merge
    // produces an interval.
    const double observed_hw = merged ? report.half_width
                                      : std::numeric_limits<double>::infinity();
    const std::uint64_t round_total =
        std::min(planner->round_jobs(round, report.jobs_used, observed_hw),
                 plan.max_jobs - report.jobs_used);
    const std::uint64_t jobs_per_replica = round_total / replicas64;
    const std::uint64_t warmup = plan.warmup_for(jobs_per_replica);
    // The clamped tail of the budget may be too thin to measure anything;
    // plan.validate() guarantees round 0 never is.
    if (jobs_per_replica == 0 || warmup >= jobs_per_replica) break;

    std::vector<std::optional<Result>> results(count);
    const std::uint64_t first = static_cast<std::uint64_t>(round) * replicas64;
    util::budgeted_for(count, budget, [&](std::size_t i) {
      const std::uint64_t global = first + i;
      results[i] = run(global, replica_seed(plan.base_seed, global),
                       jobs_per_replica, warmup);
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
