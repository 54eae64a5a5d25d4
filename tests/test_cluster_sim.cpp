#include "sim/cluster_sim.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mm_queues.h"

namespace {

using namespace rlb::sim;

/// The plan entry on the fixed plan of cfg's budget fields, on the
/// calling thread unless a budget is given.
ClusterResult simulate(
    const ClusterConfig& cfg, Policy& policy, ArrivalProcess& arrivals,
    const Distribution& service,
    rlb::util::ThreadBudget& budget = rlb::util::ThreadBudget::serial()) {
  return simulate_cluster(
      cfg, policy, arrivals, service,
      AdaptivePlan::fixed(cfg.replicas, cfg.jobs, cfg.warmup, cfg.seed),
      budget);
}

/// As above, with renewal arrivals drawn from `interarrival`.
ClusterResult simulate(
    const ClusterConfig& cfg, Policy& policy,
    const Distribution& interarrival, const Distribution& service,
    rlb::util::ThreadBudget& budget = rlb::util::ThreadBudget::serial()) {
  RenewalArrivals arrivals(interarrival);
  return simulate(cfg, policy, arrivals, service, budget);
}

ClusterConfig quick_config(int servers, std::uint64_t jobs = 400'000) {
  ClusterConfig cfg;
  cfg.servers = servers;
  cfg.jobs = jobs;
  cfg.warmup = jobs / 10;
  cfg.seed = 12345;
  return cfg;
}

TEST(ClusterSim, Mm1SojournMatchesClosedForm) {
  const double lambda = 0.7;
  const rlb::sqd::Mm1 ref{lambda, 1.0};
  SqdPolicy policy(1, 1);
  const auto arr = make_exponential(lambda);
  const auto svc = make_exponential(1.0);
  const auto r = simulate(quick_config(1), policy, *arr, *svc);
  EXPECT_NEAR(r.mean_sojourn, ref.mean_sojourn(), 4.0 * r.ci95_sojourn + 0.05);
  EXPECT_NEAR(r.mean_wait, ref.mean_wait(), 4.0 * r.ci95_sojourn + 0.05);
  EXPECT_NEAR(r.utilization, lambda, 0.02);
}

TEST(ClusterSim, LittleLawHolds) {
  const double lambda = 0.6;
  SqdPolicy policy(1, 1);
  const auto arr = make_exponential(lambda);
  const auto svc = make_exponential(1.0);
  const auto r = simulate(quick_config(1), policy, *arr, *svc);
  // L = lambda * T over the measured window.
  EXPECT_NEAR(r.mean_jobs_in_system, lambda * r.mean_sojourn, 0.1);
}

TEST(ClusterSim, MdOneKingmanShape) {
  // M/D/1: E[W] = rho/(2(1-rho)) * E[S]; half the M/M/1 wait.
  const double lambda = 0.8;
  SqdPolicy policy(1, 1);
  const auto arr = make_exponential(lambda);
  const auto svc = make_deterministic(1.0);
  const auto r = simulate(quick_config(1, 600'000), policy, *arr, *svc);
  const double expected_wait = lambda / (2.0 * (1.0 - lambda));
  EXPECT_NEAR(r.mean_wait, expected_wait, 0.1);
}

TEST(ClusterSim, JsqEquivalentToSqN) {
  // SQ(N) must produce statistically identical results to the JSQ scan.
  const int n = 4;
  ClusterConfig cfg = quick_config(n);
  const double lambda = 0.8;
  const auto arr = make_exponential(lambda * n);
  const auto svc = make_exponential(1.0);
  SqdPolicy sqn(n, n);
  JsqPolicy jsq;
  const auto a = simulate(cfg, sqn, *arr, *svc);
  const auto b = simulate(cfg, jsq, *arr, *svc);
  EXPECT_NEAR(a.mean_sojourn, b.mean_sojourn,
              3.0 * (a.ci95_sojourn + b.ci95_sojourn) + 0.02);
}

TEST(ClusterSim, PowerOfTwoOrdering) {
  // sojourn(SQ(1)) > sojourn(SQ(2)) > sojourn(JSQ) at high load.
  const int n = 8;
  const double lambda = 0.9;
  ClusterConfig cfg = quick_config(n);
  const auto arr = make_exponential(lambda * n);
  const auto svc = make_exponential(1.0);
  SqdPolicy sq1(n, 1), sq2(n, 2);
  JsqPolicy jsq;
  const double d1 = simulate(cfg, sq1, *arr, *svc).mean_sojourn;
  const double d2 = simulate(cfg, sq2, *arr, *svc).mean_sojourn;
  const double dn = simulate(cfg, jsq, *arr, *svc).mean_sojourn;
  EXPECT_GT(d1, 2.0 * d2);  // the power of two
  EXPECT_GT(d2, dn);
}

TEST(ClusterSim, RoundRobinBeatsRandomForDeterministicService) {
  const int n = 4;
  const double lambda = 0.85;
  ClusterConfig cfg = quick_config(n);
  const auto arr = make_exponential(lambda * n);
  const auto svc = make_deterministic(1.0);
  SqdPolicy random_policy(n, 1);
  RoundRobinPolicy rr;
  const double rand_delay =
      simulate(cfg, random_policy, *arr, *svc).mean_sojourn;
  const double rr_delay = simulate(cfg, rr, *arr, *svc).mean_sojourn;
  EXPECT_LT(rr_delay, rand_delay);
}

TEST(ClusterSim, DeterministicSeedsReproduce) {
  SqdPolicy policy(2, 2);
  const auto arr = make_exponential(1.2);
  const auto svc = make_exponential(1.0);
  const auto cfg = quick_config(2, 50'000);
  const auto a = simulate(cfg, policy, *arr, *svc);
  const auto b = simulate(cfg, policy, *arr, *svc);
  EXPECT_DOUBLE_EQ(a.mean_sojourn, b.mean_sojourn);
  EXPECT_EQ(a.jobs_measured, b.jobs_measured);
}

TEST(ClusterSim, CountsMeasuredJobs) {
  const auto cfg = quick_config(2, 100'000);
  SqdPolicy policy(2, 2);
  const auto arr = make_exponential(1.0);
  const auto svc = make_exponential(1.0);
  const auto r = simulate(cfg, policy, *arr, *svc);
  EXPECT_EQ(r.jobs_measured, cfg.jobs - cfg.warmup);
  EXPECT_GT(r.sim_time, 0.0);
}

TEST(ClusterSim, RejectsBadWarmup) {
  ClusterConfig cfg = quick_config(1, 100);
  cfg.warmup = 100;
  SqdPolicy policy(1, 1);
  const auto arr = make_exponential(0.5);
  const auto svc = make_exponential(1.0);
  EXPECT_THROW(simulate(cfg, policy, *arr, *svc),
               std::invalid_argument);
}

}  // namespace

namespace {

TEST(ClusterSim, QuantilesMatchMm1ClosedForm) {
  // M/M/1 sojourn is Exp(mu - lambda): quantiles -ln(1-q)/(mu-lambda).
  const double lambda = 0.6;
  SqdPolicy policy(1, 1);
  const auto arr = make_exponential(lambda);
  const auto svc = make_exponential(1.0);
  const auto r = simulate(quick_config(1, 600'000), policy, *arr, *svc);
  const double rate = 1.0 - lambda;
  EXPECT_NEAR(r.p50_sojourn, std::log(2.0) / rate, 0.1);
  EXPECT_NEAR(r.p95_sojourn, -std::log(0.05) / rate, 0.4);
  EXPECT_NEAR(r.p99_sojourn, -std::log(0.01) / rate, 1.0);
  EXPECT_LT(r.p50_sojourn, r.p95_sojourn);
  EXPECT_LT(r.p95_sojourn, r.p99_sojourn);
}

TEST(ClusterSim, HeterogeneousSpeedsScaleService) {
  // A single server at speed 2 behaves like an M/M/1 with mu = 2.
  ClusterConfig cfg = quick_config(1, 400'000);
  cfg.server_speeds = {2.0};
  SqdPolicy policy(1, 1);
  const auto arr = make_exponential(1.0);  // rho = 0.5 against mu = 2
  const auto svc = make_exponential(1.0);
  const auto r = simulate(cfg, policy, *arr, *svc);
  const rlb::sqd::Mm1 ref{1.0, 2.0};
  EXPECT_NEAR(r.mean_sojourn, ref.mean_sojourn(), 0.05);
}

TEST(ClusterSim, HeterogeneityHurtsSpeedObliviousPolicies) {
  // Same total capacity, skewed speeds: SQ(2), which only sees queue
  // LENGTHS, does worse than on the homogeneous fleet.
  const int n = 8;
  const double rho = 0.85;
  ClusterConfig cfg = quick_config(n, 400'000);
  SqdPolicy policy(n, 2);
  const auto arr = make_exponential(rho * n);
  const auto svc = make_exponential(1.0);
  const auto homo = simulate(cfg, policy, *arr, *svc);
  cfg.server_speeds.assign(n, 1.0);
  for (int s = 0; s < n / 2; ++s) {
    cfg.server_speeds[s] = 1.6;
    cfg.server_speeds[n / 2 + s] = 0.4;
  }
  const auto hetero = simulate(cfg, policy, *arr, *svc);
  EXPECT_GT(hetero.mean_sojourn, 1.1 * homo.mean_sojourn);
}

TEST(ClusterSim, SpeedVectorValidated) {
  ClusterConfig cfg = quick_config(2, 1000);
  cfg.server_speeds = {1.0};  // wrong arity
  SqdPolicy policy(2, 1);
  const auto arr = make_exponential(1.0);
  const auto svc = make_exponential(1.0);
  EXPECT_THROW(simulate(cfg, policy, *arr, *svc),
               std::invalid_argument);
  cfg.server_speeds = {1.0, -1.0};
  EXPECT_THROW(simulate(cfg, policy, *arr, *svc),
               std::invalid_argument);
}

/// Audits the engine's idle-queue view against ground truth on every
/// arrival, then routes uniformly. Clones share the audit counter (fine:
/// the tests below run a single serial replica).
class IdleAuditPolicy final : public Policy {
 public:
  explicit IdleAuditPolicy(int* audits) : audits_(audits) {}
  int select(const ClusterState& c, Rng& rng) override {
    int idle_truth = 0;
    for (int s = 0; s < c.servers(); ++s)
      if (c.queue_length(s) == 0) ++idle_truth;
    EXPECT_EQ(c.idle_servers(), idle_truth);
    for (int i = 0; i < c.idle_servers(); ++i)
      EXPECT_EQ(c.queue_length(c.idle_server(i)), 0);
    ++*audits_;
    return static_cast<int>(rng.uniform_int(c.servers()));
  }
  std::string name() const override { return "idle-audit"; }
  std::unique_ptr<Policy> clone() const override {
    return std::make_unique<IdleAuditPolicy>(*this);
  }

 private:
  int* audits_;
};

TEST(ClusterSim, IdleQueueViewMatchesQueueLengths) {
  ClusterConfig cfg = quick_config(4, 20'000);
  int audits = 0;
  IdleAuditPolicy policy(&audits);
  const auto arr = make_exponential(0.8 * 4);
  const auto svc = make_exponential(1.0);
  simulate(cfg, policy, *arr, *svc);
  EXPECT_EQ(audits, 20'000);
}

/// Records every selection of an inner policy (shared log; serial use).
class RecordingPolicy final : public Policy {
 public:
  RecordingPolicy(std::unique_ptr<Policy> inner, std::vector<int>* log)
      : inner_(std::move(inner)), log_(log) {}
  RecordingPolicy(const RecordingPolicy& other)
      : inner_(other.inner_->clone()), log_(other.log_) {}
  int select(const ClusterState& c, Rng& rng) override {
    const int s = inner_->select(c, rng);
    log_->push_back(s);
    return s;
  }
  std::string name() const override { return inner_->name(); }
  void reset() override { inner_->reset(); }
  std::unique_ptr<Policy> clone() const override {
    return std::make_unique<RecordingPolicy>(*this);
  }

 private:
  std::unique_ptr<Policy> inner_;
  std::vector<int>* log_;
};

TEST(ClusterSim, JiqServesFirstIdleFirst) {
  // Deterministic timing: one job in the system at a time, so every
  // arrival finds every server idle. The I-queue then rotates — JIQ must
  // alternate servers instead of hammering index 0 like the default
  // index-order scan would.
  ClusterConfig cfg = quick_config(2, 10);
  cfg.warmup = 1;
  std::vector<int> log;
  RecordingPolicy policy(std::make_unique<JiqPolicy>(2), &log);
  const auto arr = make_deterministic(1.0);
  const auto svc = make_deterministic(0.5);
  simulate(cfg, policy, *arr, *svc);
  ASSERT_EQ(log.size(), 10u);
  for (std::size_t i = 0; i < log.size(); ++i)
    EXPECT_EQ(log[i], static_cast<int>(i % 2)) << i;
}

TEST(ClusterSim, JiqMatchesJsqWhileServersStayIdle) {
  // Single-job-at-a-time deterministic traffic: both policies always join
  // an idle server, so wait is exactly zero and sojourn is the service
  // time.
  ClusterConfig cfg = quick_config(4, 5'000);
  JiqPolicy jiq(4);
  JsqPolicy jsq;
  const auto arr = make_deterministic(1.0);
  const auto svc = make_deterministic(0.5);
  const auto r_jiq = simulate(cfg, jiq, *arr, *svc);
  const auto r_jsq = simulate(cfg, jsq, *arr, *svc);
  EXPECT_DOUBLE_EQ(r_jiq.mean_wait, 0.0);
  EXPECT_DOUBLE_EQ(r_jsq.mean_wait, 0.0);
  EXPECT_DOUBLE_EQ(r_jiq.mean_sojourn, 0.5);
  EXPECT_DOUBLE_EQ(r_jsq.mean_sojourn, 0.5);
}

TEST(ClusterSim, JiqNearJsqAtLowLoadStochastically) {
  // At rho = 0.4 an idle server almost always exists, so JIQ's mean delay
  // sits within a few percent of JSQ's.
  ClusterConfig cfg = quick_config(8);
  const double rho = 0.4;
  JiqPolicy jiq(8);
  JsqPolicy jsq;
  const auto arr = make_exponential(rho * 8);
  const auto svc = make_exponential(1.0);
  const auto r_jiq = simulate(cfg, jiq, *arr, *svc);
  const auto r_jsq = simulate(cfg, jsq, *arr, *svc);
  EXPECT_NEAR(r_jiq.mean_sojourn, r_jsq.mean_sojourn,
              0.03 * r_jsq.mean_sojourn);
}

TEST(ClusterSim, BatchArrivalsInflateDelayAtEqualLoad) {
  // Same mean job rate, clumped arrivals: delay must rise with the batch
  // size (the batch_arrivals scenario's headline effect).
  const int n = 4;
  const double rho = 0.8;
  ClusterConfig cfg = quick_config(n);
  SqdPolicy policy(n, 2);
  const auto svc = make_exponential(1.0);

  const auto plain_gap = make_exponential(rho * n);
  RenewalArrivals plain(*plain_gap);
  const auto plain_r = simulate(cfg, policy, plain, *svc);

  const auto batch_gap = make_exponential(rho * n / 4.0);
  BatchArrivalProcess batched(std::make_unique<RenewalArrivals>(*batch_gap),
                              4.0, BatchArrivalProcess::BatchSizes::Fixed);
  const auto batch_r = simulate(cfg, policy, batched, *svc);

  EXPECT_NEAR(plain_r.utilization, batch_r.utilization, 0.02);
  EXPECT_GT(batch_r.mean_sojourn, 1.2 * plain_r.mean_sojourn);
}

TEST(ClusterSim, QuantileKnobsTouchOnlyTheQuantiles) {
  // The reservoir's capacity and seed salt (hoisted ClusterConfig knobs)
  // feed a SEPARATE RNG: changing them must leave every non-quantile
  // statistic bit-identical.
  ClusterConfig base = quick_config(4, 120'000);
  SqdPolicy policy(4, 2);
  const auto arr = make_exponential(0.9 * 4);
  const auto svc = make_exponential(1.0);
  const auto ref = simulate(base, policy, *arr, *svc);

  ClusterConfig salted = base;
  salted.quantile_seed_salt = 0x1234'5678ull;
  const auto r1 = simulate(salted, policy, *arr, *svc);
  ClusterConfig small = base;
  small.quantile_reservoir = 500;  // heavy reservoir subsampling
  const auto r2 = simulate(small, policy, *arr, *svc);

  for (const auto& r : {r1, r2}) {
    EXPECT_DOUBLE_EQ(r.mean_sojourn, ref.mean_sojourn);
    EXPECT_DOUBLE_EQ(r.mean_wait, ref.mean_wait);
    EXPECT_DOUBLE_EQ(r.ci95_sojourn, ref.ci95_sojourn);
    EXPECT_DOUBLE_EQ(r.utilization, ref.utilization);
    EXPECT_DOUBLE_EQ(r.sim_time, ref.sim_time);
    // Quantiles still estimate the same distribution.
    EXPECT_NEAR(r.p99_sojourn, ref.p99_sojourn, 0.25 * ref.p99_sojourn);
  }

  ClusterConfig bad = base;
  bad.quantile_reservoir = 0;
  EXPECT_THROW(simulate(bad, policy, *arr, *svc),
               std::invalid_argument);
}

TEST(ClusterSim, WindowsAndSlaLeaveClassicOutputsUntouched) {
  // Windowed statistics and SLA counting consume no simulation RNG:
  // enabling them must leave every pre-existing output bit-identical to
  // an un-windowed run of the same configuration.
  ClusterConfig base = quick_config(4, 120'000);
  SqdPolicy policy(4, 2);
  const auto arr = make_exponential(0.85 * 4);
  const auto svc = make_exponential(1.0);
  const auto ref = simulate(base, policy, *arr, *svc);
  EXPECT_TRUE(ref.windows.empty());
  EXPECT_EQ(ref.sla_violations, 0u);

  ClusterConfig windowed = base;
  windowed.window_width = 500.0;
  windowed.sla_threshold = 4.0;
  const auto r = simulate(windowed, policy, *arr, *svc);
  EXPECT_DOUBLE_EQ(r.mean_sojourn, ref.mean_sojourn);
  EXPECT_DOUBLE_EQ(r.mean_wait, ref.mean_wait);
  EXPECT_DOUBLE_EQ(r.ci95_sojourn, ref.ci95_sojourn);
  EXPECT_DOUBLE_EQ(r.p99_sojourn, ref.p99_sojourn);
  EXPECT_DOUBLE_EQ(r.utilization, ref.utilization);
  EXPECT_DOUBLE_EQ(r.sim_time, ref.sim_time);
  EXPECT_FALSE(r.windows.empty());
  EXPECT_GT(r.sla_violations, 0u);
  // Window counts cover every departure (warmup included), so they sum
  // to the full arrival budget, not just jobs_measured.
  std::uint64_t total = 0;
  for (const auto& w : r.windows) total += w.count;
  EXPECT_EQ(total, windowed.jobs);

  ClusterConfig bad = base;
  bad.window_width = -1.0;
  EXPECT_THROW(simulate(bad, policy, *arr, *svc),
               std::invalid_argument);
}

TEST(ClusterSim, WindowedOutputsAreReplicaAndBudgetInvariant) {
  // The determinism contract extends to the windowed view: for a fixed
  // replica count, the thread budget never changes a single window.
  for (int replicas : {1, 3}) {
    ClusterConfig cfg = quick_config(6, 60'000);
    cfg.replicas = replicas;
    cfg.window_width = 400.0;
    cfg.sla_threshold = 3.0;
    const auto arr = make_exponential(0.85 * 6);
    const auto svc = make_exponential(1.0);
    SqdPolicy policy(6, 2);
    const auto serial = simulate(cfg, policy, *arr, *svc);
    rlb::util::ThreadBudget four(4);
    const auto parallel = simulate(cfg, policy, *arr, *svc, four);
    EXPECT_EQ(parallel.sla_violations, serial.sla_violations);
    ASSERT_EQ(parallel.windows.size(), serial.windows.size());
    for (std::size_t w = 0; w < serial.windows.size(); ++w) {
      EXPECT_EQ(parallel.windows[w].count, serial.windows[w].count) << w;
      EXPECT_DOUBLE_EQ(parallel.windows[w].mean_sojourn,
                       serial.windows[w].mean_sojourn)
          << w;
      EXPECT_DOUBLE_EQ(parallel.windows[w].p99_sojourn,
                       serial.windows[w].p99_sojourn)
          << w;
    }
  }
}

TEST(ClusterSim, HeavyTailServiceInflatesDelayAtEqualMeanLoad) {
  // Pareto service (alpha = 1.6, infinite variance) at the same mean
  // load must hurt: mean sojourn and p99 both above the exponential run.
  ClusterConfig cfg = quick_config(8, 200'000);
  SqdPolicy policy(8, 2);
  const auto arr = make_exponential(0.85 * 8);
  const auto exp_svc = make_exponential(1.0);
  const auto pareto_svc = make_pareto_mean(1.0, 1.6);
  const auto light = simulate(cfg, policy, *arr, *exp_svc);
  const auto heavy = simulate(cfg, policy, *arr, *pareto_svc);
  EXPECT_GT(heavy.mean_sojourn, light.mean_sojourn);
  EXPECT_GT(heavy.p99_sojourn, 1.5 * light.p99_sojourn);
  EXPECT_NEAR(heavy.utilization, light.utilization, 0.05);
}

TEST(ClusterSim, NewPoliciesAreReplicaAndBudgetInvariant) {
  // The PR-2 contract extended to the new policies: for a fixed replica
  // count the thread budget never changes the output.
  for (int replicas : {1, 3}) {
    ClusterConfig cfg = quick_config(6, 60'000);
    cfg.replicas = replicas;
    const auto arr = make_exponential(0.85 * 6);
    const auto svc = make_exponential(1.0);
    JiqPolicy jiq(6);
    JbtPolicy jbt(6, 2, 3);
    for (Policy* policy : {static_cast<Policy*>(&jiq),
                           static_cast<Policy*>(&jbt)}) {
      const auto serial = simulate(cfg, *policy, *arr, *svc);
      rlb::util::ThreadBudget four(4);
      const auto parallel = simulate(cfg, *policy, *arr, *svc, four);
      EXPECT_DOUBLE_EQ(parallel.mean_sojourn, serial.mean_sojourn)
          << policy->name() << " replicas=" << replicas;
      EXPECT_DOUBLE_EQ(parallel.p99_sojourn, serial.p99_sojourn)
          << policy->name() << " replicas=" << replicas;
    }
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Every ClusterResult statistic, bit for bit (the report aside).
void expect_same_statistics(const ClusterResult& a, const ClusterResult& b) {
  EXPECT_TRUE(same_bits(a.mean_sojourn, b.mean_sojourn));
  EXPECT_TRUE(same_bits(a.mean_wait, b.mean_wait));
  EXPECT_TRUE(same_bits(a.ci95_sojourn, b.ci95_sojourn));
  EXPECT_TRUE(same_bits(a.mean_jobs_in_system, b.mean_jobs_in_system));
  EXPECT_TRUE(same_bits(a.utilization, b.utilization));
  EXPECT_TRUE(same_bits(a.p50_sojourn, b.p50_sojourn));
  EXPECT_TRUE(same_bits(a.p95_sojourn, b.p95_sojourn));
  EXPECT_TRUE(same_bits(a.p99_sojourn, b.p99_sojourn));
  EXPECT_EQ(a.jobs_measured, b.jobs_measured);
  EXPECT_TRUE(same_bits(a.sim_time, b.sim_time));
  EXPECT_EQ(a.sla_violations, b.sla_violations);
}

TEST(ClusterSim, FixedForwarderRunsTheFixedPlanFromItsConfig) {
  // The plan-less forwarder is the plan entry on AdaptivePlan::fixed of
  // cfg's budget fields, with the stopping report left default.
  ClusterConfig cfg = quick_config(5, 60'000);
  cfg.replicas = 3;
  cfg.sla_threshold = 3.0;
  SqdPolicy policy(5, 2);
  const auto arr = make_exponential(0.85 * 5);
  RenewalArrivals arrivals(*arr);
  const auto svc = make_exponential(1.0);
  rlb::util::ThreadBudget budget(2);
  const auto forwarded = simulate_cluster(cfg, policy, arrivals, *svc, budget);
  const auto planned = simulate_cluster(
      cfg, policy, arrivals, *svc,
      AdaptivePlan::fixed(3, 60'000, 6'000, 12345), budget);
  expect_same_statistics(forwarded, planned);
  EXPECT_EQ(planned.adaptive.rounds, 1);
  EXPECT_EQ(forwarded.adaptive.rounds, 0);
  EXPECT_EQ(forwarded.adaptive.jobs_used, 0u);
  EXPECT_EQ(forwarded.adaptive.half_width, 0.0);
  EXPECT_FALSE(forwarded.adaptive.converged);
}

TEST(ClusterSim, AdaptiveForwarderIsThePlanEntry) {
  ClusterConfig cfg;
  cfg.servers = 5;
  SqdPolicy policy(5, 2);
  const auto arr = make_exponential(0.85 * 5);
  RenewalArrivals arrivals(*arr);
  const auto svc = make_exponential(1.0);
  AdaptivePlan plan;
  plan.replicas = 2;
  plan.target_ci = 0.05;
  plan.initial_jobs = 20'000;
  plan.max_jobs = 160'000;
  plan.warmup_jobs = 1'000;
  plan.base_seed = 77;
  rlb::util::ThreadBudget budget(2);
  const auto forwarded =
      simulate_cluster_adaptive(cfg, policy, arrivals, *svc, plan, budget);
  const auto planned =
      simulate_cluster(cfg, policy, arrivals, *svc, plan, budget);
  expect_same_statistics(forwarded, planned);
  EXPECT_GT(planned.adaptive.rounds, 1);
  EXPECT_EQ(forwarded.adaptive.rounds, planned.adaptive.rounds);
  EXPECT_EQ(forwarded.adaptive.jobs_used, planned.adaptive.jobs_used);
  EXPECT_TRUE(same_bits(forwarded.adaptive.half_width,
                        planned.adaptive.half_width));
  EXPECT_EQ(forwarded.adaptive.converged, planned.adaptive.converged);
}

}  // namespace
