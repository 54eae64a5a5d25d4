#include "sim/replica.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/stats.h"
#include "util/splitmix.h"

namespace rlb::sim {

AdaptivePlan AdaptivePlan::fixed(int replicas, std::uint64_t total_jobs,
                                 std::uint64_t total_warmup,
                                 std::uint64_t base_seed) {
  RLB_REQUIRE(replicas >= 1, "replica count must be positive");
  RLB_REQUIRE(total_warmup < total_jobs, "warmup must be below job count");
  const auto replicas64 = static_cast<std::uint64_t>(replicas);
  AdaptivePlan plan;
  plan.replicas = replicas;
  plan.target_ci = std::numeric_limits<double>::infinity();
  plan.initial_jobs = total_jobs;
  plan.max_jobs = total_jobs;
  plan.warmup_jobs = total_warmup / replicas64;
  plan.base_seed = base_seed;
  RLB_REQUIRE(plan.warmup_jobs < total_jobs / replicas64,
              "too many replicas: per-replica job budget is all warmup");
  return plan;
}

void AdaptivePlan::validate() const {
  RLB_REQUIRE(replicas >= 1, "replica count must be positive");
  RLB_REQUIRE(target_ci > 0.0, "target CI half-width must be positive");
  RLB_REQUIRE(planner_safety >= 1.0,
              "planner safety factor must be >= 1 (an undershooting "
              "prediction defeats the variance planner)");
  // Fail on an unsupported confidence level here, before any round runs
  // (t_quantile throws on levels outside its table).
  (void)t_quantile(confidence, 10);
  RLB_REQUIRE(initial_jobs >= static_cast<std::uint64_t>(replicas),
              "initial round must hold at least one job per replica");
  RLB_REQUIRE(max_jobs >= initial_jobs,
              "max_jobs must cover at least the initial round");
  RLB_REQUIRE(growth_factor >= 1.0, "growth factor must be >= 1");
  RLB_REQUIRE(warmup_fraction >= 0.0 && warmup_fraction < 1.0,
              "warmup fraction must be in [0, 1)");
  const std::uint64_t round0 =
      initial_jobs / static_cast<std::uint64_t>(replicas);
  RLB_REQUIRE(warmup_for(round0) < round0,
              "per-replica warmup must be below the round-0 per-replica "
              "job count");
}

std::uint64_t AdaptivePlan::round_jobs(int round) const {
  // Double arithmetic saturates cleanly at max_jobs (growth^round can
  // overflow any integer type long before the cap matters) and is a pure
  // deterministic function of the plan.
  const double want = static_cast<double>(initial_jobs) *
                      std::pow(growth_factor, static_cast<double>(round));
  if (want >= static_cast<double>(max_jobs)) return max_jobs;
  return static_cast<std::uint64_t>(want);
}

std::uint64_t AdaptivePlan::min_round_jobs() const {
  const auto replicas64 = static_cast<std::uint64_t>(replicas);
  // kFraction discards a strict fraction, so any positive per-replica
  // share keeps at least one measured job; kFixed needs every replica to
  // outlive its absolute warmup.
  if (warmup_policy == WarmupPolicy::kFraction) return replicas64;
  return replicas64 * (warmup_jobs + 1);
}

std::uint64_t AdaptivePlan::warmup_for(std::uint64_t jobs_per_replica)
    const {
  if (warmup_policy == WarmupPolicy::kFixed) return warmup_jobs;
  return static_cast<std::uint64_t>(
      warmup_fraction * static_cast<double>(jobs_per_replica));
}

std::uint64_t AdaptivePlan::batch_size() const {
  const std::uint64_t round0 =
      initial_jobs / static_cast<std::uint64_t>(replicas);
  return std::max<std::uint64_t>(1, (round0 - warmup_for(round0)) / 30);
}

namespace {

/// The PR-4 schedule: round r requests initial * growth^r, blind to the
/// observed statistics. Kept bit-identical with AdaptivePlan::round_jobs
/// — committed adaptive baselines pin this schedule.
class GeometricPlanner final : public RoundPlanner {
 public:
  explicit GeometricPlanner(const AdaptivePlan& plan) : plan_(plan) {}

  std::uint64_t round_jobs(int round, std::uint64_t /*jobs_used*/,
                           double /*half_width*/) const override {
    return plan_.round_jobs(round);
  }

 private:
  const AdaptivePlan& plan_;
};

/// Variance-aware schedule: hw scales like c/sqrt(jobs), so the
/// cumulative budget that reaches target_ci is predicted as
/// jobs_used * (hw/target)^2, inflated by planner_safety; the next round
/// is the missing part, floored at min_round_jobs() so the request is
/// never too thin to measure while budget remains. Falls back to the
/// geometric schedule while no interval exists (hw infinite — fewer
/// than two completed batches). Depends only on (round, jobs_used,
/// half_width), all of them thread-count-invariant merged quantities.
class VariancePlanner final : public RoundPlanner {
 public:
  explicit VariancePlanner(const AdaptivePlan& plan) : plan_(plan) {}

  std::uint64_t round_jobs(int round, std::uint64_t jobs_used,
                           double half_width) const override {
    if (round == 0) return plan_.initial_jobs;
    if (!std::isfinite(half_width)) return plan_.round_jobs(round);
    const double ratio = half_width / plan_.target_ci;
    const double predicted = static_cast<double>(jobs_used) * ratio *
                             ratio * plan_.planner_safety;
    const double next = predicted - static_cast<double>(jobs_used);
    // Saturate in double space (the prediction can overflow uint64 for
    // extreme hw/target ratios); the runner clamps to the remaining
    // allowance anyway.
    if (next >= static_cast<double>(plan_.max_jobs)) return plan_.max_jobs;
    // Two floors: min_round_jobs keeps the request thick enough to
    // outlive its warmup, and an eighth of the budget so far keeps each
    // round a meaningful data increment — without it, a cell sitting
    // just above the target with planner_safety near 1 would grind
    // through many warmup-dominated micro-rounds.
    return std::max({plan_.min_round_jobs(), jobs_used / 8,
                     static_cast<std::uint64_t>(next)});
  }

 private:
  const AdaptivePlan& plan_;
};

}  // namespace

std::unique_ptr<RoundPlanner> make_planner(const AdaptivePlan& plan) {
  if (plan.planner == PlannerKind::kVariance)
    return std::make_unique<VariancePlanner>(plan);
  return std::make_unique<GeometricPlanner>(plan);
}

std::uint64_t replica_seed(std::uint64_t base, std::uint64_t replica) {
  if (replica == 0) return base;
  // Two rounds decorrelate neighbouring (base, replica) pairs, mirroring
  // engine::cell_seed; the xor constant keeps replica streams away from
  // the cell-seed family for the same base.
  return util::splitmix64(util::splitmix64(base ^ 0x5851f42d4c957f2dULL) ^
                          util::splitmix64(replica));
}

}  // namespace rlb::sim
