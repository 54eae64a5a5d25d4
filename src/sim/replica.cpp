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
  // Fail on an unsupported confidence level here, before any round runs
  // (t_quantile throws on levels outside its table).
  (void)t_quantile(confidence, 10);
  RLB_REQUIRE(initial_jobs >= static_cast<std::uint64_t>(replicas),
              "initial round must hold at least one job per replica");
  RLB_REQUIRE(max_jobs >= initial_jobs,
              "max_jobs must cover at least the initial round");
  RLB_REQUIRE(growth_factor >= 1.0, "growth factor must be >= 1");
  const std::uint64_t round0 =
      initial_jobs / static_cast<std::uint64_t>(replicas);
  RLB_REQUIRE(warmup_jobs < round0,
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

std::uint64_t AdaptivePlan::batch_size() const {
  const std::uint64_t round0 =
      initial_jobs / static_cast<std::uint64_t>(replicas);
  return std::max<std::uint64_t>(1, (round0 - warmup_jobs) / 30);
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
