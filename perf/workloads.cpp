#include "workloads.h"

#include <cmath>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "checks.h"
#include "engine/sweep.h"
#include "qbd/solver.h"
#include "sim/fast_sqd.h"
#include "sqd/bound_solver.h"
#include "sqd/exact_reference.h"
#include "trace.h"

namespace rlb::perf {

namespace {

// fleet_1m: the compact engine at a million servers, where per-event cost
// is memory latency (the fleet state outgrows the last-level cache).
constexpr int kFleetServers = 1'000'000;
constexpr double kFleetRho = 0.90;
constexpr std::uint64_t kFleetJobsPerServer = 5;

// racked_10k: every branch the topology, workload and windowing features
// added is live, on state that fits in cache.
constexpr int kRackedServers = 10'000;
constexpr int kRacks = 4;
constexpr double kCrossRackLatency = 0.25;
constexpr double kRackedRho = 0.85;
constexpr double kBurstFactor = 1.1;  // MMPP phases at 1.1x and 0.9x the mean
constexpr double kBurstHold = 5.0;    // mean phase holding time
constexpr double kServiceCv = 1.5;
constexpr std::uint64_t kRackedJobs = 2'500'000;
constexpr double kWindowWidth = 50.0;
constexpr double kSlaThreshold = 4.0;

// paper_n10_adaptive: the power_of_d policy set at N = 10 run to a stated
// accuracy, on two threads. A four-thread pass needs the whole 4-vCPU host,
// and its wall time followed whatever else the host ran (27-37% between
// sets of runs); --scaling measures 1, 2 and 4 threads. Each (policy, rho)
// runs as three independently seeded cells: the geometric planner's job
// count jumps by the round size, and with one cell per pair a single extra
// round of the sq(1) cell at rho 0.8 moves the total by 7% between seeds.
// The heaviest load comes first so the longest cells start first.
constexpr int kPaperThreads = 2;
constexpr int kPaperReplicates = 3;
constexpr int kPaperServers = 10;
constexpr double kTargetHalfWidth = 0.02;
constexpr int kPaperReplicas = 4;
constexpr std::uint64_t kPaperInitialJobs = 200'000;
constexpr std::uint64_t kPaperMaxJobs = kPaperInitialJobs * 1023;  // 10 rounds
constexpr std::uint64_t kPaperWarmupJobs = 5'000;  // per replica
constexpr int kLowerBoundThreshold = 2;            // T of the check's bound

// bound_sweep: SQ(2) bounds with T = 3 over rho = 0.05, 0.10, ..., 0.95.
constexpr int kSweepD = 2;
constexpr int kSweepThreshold = 3;
constexpr std::uint64_t kSweepFastJobs = 100'000;
constexpr int kExactCap = 40;  // cap 26 leaves 6e-5 mass at rho 0.7

std::uint64_t scaled(std::uint64_t jobs, double scale) {
  return static_cast<std::uint64_t>(std::llround(static_cast<double>(jobs) *
                                                 scale));
}

Workload fleet_1m(std::uint64_t seed) {
  Workload w{"fleet_1m", 1, {}};
  for (const char* policy : {"sq(2)", "jiq"}) {
    ClusterCell c;
    c.policy = policy;
    c.rho = kFleetRho;
    c.config.servers = kFleetServers;
    c.config.jobs = kFleetJobsPerServer * kFleetServers;
    c.config.warmup = c.config.jobs / 10;
    c.config.seed = engine::cell_seed(seed, w.cells.size());
    c.expect_unit_delay = c.policy == "jiq";
    w.cells.emplace_back(std::move(c));
  }
  return w;
}

Workload racked_10k(std::uint64_t seed) {
  Workload w{"racked_10k", 1, {}};
  for (const char* policy : {"rack-sq(2)", "rack-jiq"}) {
    ClusterCell c;
    c.policy = policy;
    c.rho = kRackedRho;
    c.config.servers = kRackedServers;
    c.config.jobs = kRackedJobs;
    c.config.warmup = kRackedJobs / 10;
    c.config.seed = engine::cell_seed(seed, w.cells.size());
    c.config.topology.racks = kRacks;
    c.config.topology.cross_latency = kCrossRackLatency;
    c.config.window_width = kWindowWidth;
    c.config.sla_threshold = kSlaThreshold;
    c.mmpp = true;
    c.lognormal = true;
    w.cells.emplace_back(std::move(c));
  }
  return w;
}

Workload paper_n10_adaptive(std::uint64_t seed) {
  Workload w{"paper_n10_adaptive", kPaperThreads, {}};
  const struct {
    const char* name;
    int lower_bound_d;
  } policies[] = {{"sq(1)", 1}, {"sq(2)", 2},       {"sq(5)", 5},
                  {"jsq", 0},   {"round-robin", 0}, {"least-work", 0}};
  for (const double rho : {0.8, 0.7, 0.5}) {
    for (const auto& p : policies) {
      for (int rep = 0; rep < kPaperReplicates; ++rep) {
        ClusterCell c;
        c.policy = p.name;
        c.rho = rho;
        c.config.servers = kPaperServers;
        sim::AdaptivePlan plan;
        plan.replicas = kPaperReplicas;
        plan.target_ci = kTargetHalfWidth;
        plan.initial_jobs = kPaperInitialJobs;
        plan.max_jobs = kPaperMaxJobs;
        plan.warmup_jobs = kPaperWarmupJobs;
        plan.base_seed = engine::cell_seed(seed, w.cells.size());
        c.plan = plan;
        c.lower_bound_d = p.lower_bound_d;
        w.cells.emplace_back(std::move(c));
      }
    }
  }
  return w;
}

Workload bound_sweep(std::uint64_t seed) {
  Workload w{"bound_sweep", 1, {}};
  // Largest N first: the warm-up cell (the first) then exercises the
  // large-block solver paths and takes long enough to time steadily.
  for (const int n : {12, 6, 3}) {
    for (int k = 1; k <= 19; ++k) {  // rho = k / 20
      BoundCell c;
      c.servers = n;
      c.rho = k / 20.0;
      // N = 12 full solves only at rho 0.3, 0.5, 0.7: they dominate.
      c.full = n < 12 || k == 6 || k == 10 || k == 14;
      c.exact_cap = n == 3 && (k == 10 || k == 14) ? kExactCap : 0;
      c.seed = engine::cell_seed(seed, w.cells.size());
      w.cells.emplace_back(c);
    }
  }
  return w;
}

void add_cluster_values(const sim::ClusterResult& r, std::vector<double>& v) {
  v.insert(v.end(),
           {r.mean_sojourn, r.mean_wait, r.ci95_sojourn, r.mean_jobs_in_system,
            r.utilization, r.p50_sojourn, r.p95_sojourn, r.p99_sojourn,
            static_cast<double>(r.jobs_measured), r.sim_time,
            static_cast<double>(r.sla_violations), r.sla_violation_fraction,
            r.adaptive.half_width, static_cast<double>(r.adaptive.jobs_used),
            static_cast<double>(r.adaptive.rounds),
            r.adaptive.converged ? 1.0 : 0.0});
  for (const sim::WindowSummary& ws : r.windows)
    v.insert(v.end(), {ws.start, static_cast<double>(ws.count),
                       ws.mean_sojourn, ws.p99_sojourn});
}

void add_bound_values(const sqd::BoundResult& r, std::vector<double>& v) {
  v.insert(v.end(), {r.mean_delay, r.mean_jobs, r.total_probability,
                     r.r_residual, static_cast<double>(r.logred_iterations)});
}

CellOutput run_cluster(const ClusterCell& c, util::ThreadBudget& budget,
                       double scale, bool check, int index) {
  CellOutput out;
  const auto policy = make_policy(c);
  const ArrivalLaw arrivals = make_arrivals(c);
  const auto service = make_service(c);
  out.compact = policy->symmetric();
  sim::ClusterConfig cfg = c.config;
  sim::ClusterResult r;
  {
    const ScopedSpan span(out.compact ? "sim.simulate_cluster.compact"
                                      : "sim.simulate_cluster.legacy",
                          index);
    if (c.plan) {
      sim::AdaptivePlan plan = *c.plan;
      plan.initial_jobs = scaled(plan.initial_jobs, scale);
      plan.max_jobs = scaled(plan.max_jobs, scale);
      plan.warmup_jobs = scaled(plan.warmup_jobs, scale);
      r = sim::simulate_cluster_adaptive(cfg, *policy, *arrivals.process,
                                         *service, plan, budget);
    } else {
      cfg.jobs = scaled(cfg.jobs, scale);
      cfg.warmup = scaled(cfg.warmup, scale);
      r = sim::simulate_cluster(cfg, *policy, *arrivals.process, *service,
                                budget);
    }
  }
  if (c.plan) {
    out.jobs = r.adaptive.jobs_used;
    out.rounds = r.adaptive.rounds;
    out.replicas = static_cast<std::uint64_t>(r.adaptive.rounds) *
                   static_cast<std::uint64_t>(c.plan->replicas);
    out.warmup = out.replicas * scaled(c.plan->warmup_jobs, scale);
  } else {
    out.jobs = cfg.jobs;
    out.warmup = cfg.warmup;
    out.replicas = static_cast<std::uint64_t>(cfg.replicas);
  }
  add_cluster_values(r, out.values);
  if (!check) return out;

  ClusterOutcome o;
  o.mean_sojourn = r.mean_sojourn;
  o.mean_jobs_in_system = r.mean_jobs_in_system;
  o.arrival_rate = arrivals.process->mean_rate();
  o.sim_time = r.sim_time;
  o.jobs_measured = static_cast<double>(r.jobs_measured);
  o.warmup_jobs = static_cast<double>(out.warmup);
  o.runs = static_cast<double>(out.replicas);
  o.adaptive = c.plan.has_value();
  o.converged = r.adaptive.converged;
  o.half_width = r.adaptive.half_width;
  o.expect_unit_delay = c.expect_unit_delay;
  if (c.lower_bound_d > 0) {
    // Block assembly calls lgamma, which writes the global signgam, so
    // concurrent cells take turns.
    static std::mutex lgamma_mutex;
    const std::lock_guard<std::mutex> lock(lgamma_mutex);
    const ScopedSpan span("sqd.solve_lower_improved", index);
    const sqd::BoundModel lower(
        sqd::Params{cfg.servers, c.lower_bound_d, c.rho, 1.0},
        kLowerBoundThreshold, sqd::BoundKind::Lower);
    o.lower_bound = sqd::solve_lower_improved(lower).mean_delay;
    ++out.solves;
  }
  out.failures = check_cluster(o);
  return out;
}

CellOutput run_bound(const BoundCell& c, util::ThreadBudget& budget,
                     double scale, bool check, int index) {
  CellOutput out;
  const auto build = [&](const sqd::BoundModel& model) {
    const ScopedSpan span("sqd.build_bound_qbd", index);
    ++out.builds;
    return sqd::build_bound_qbd(model);
  };
  BoundOutcome b;
  if (c.full) {
    const sqd::BoundModel upper = bound_model(c, sqd::BoundKind::Upper);
    const sqd::BoundQbd qbd = build(upper);
    try {
      const ScopedSpan span("sqd.solve_bound", index);
      ++out.solves;
      b.upper = sqd::solve_bound(upper, qbd);
    } catch (const qbd::UnstableError&) {
      ++out.wasted_builds;  // expected once rho leaves the stable region
    }
  }
  const sqd::BoundModel lower = bound_model(c, sqd::BoundKind::Lower);
  const sqd::BoundQbd qbd = build(lower);
  const sqd::Params& p = lower.params();
  if (c.full) {
    const ScopedSpan span("sqd.solve_bound", index);
    ++out.solves;
    b.lower = sqd::solve_bound(lower, qbd);
  }
  {
    const ScopedSpan span("sqd.solve_lower_improved", index);
    ++out.solves;
    b.improved = sqd::solve_lower_improved(lower, qbd, c.rho);
  }
  if (c.exact_cap > 0) {
    const ScopedSpan span("sqd.solve_exact_truncated", index);
    ++out.solves;
    b.exact = sqd::solve_exact_truncated(p, c.exact_cap);
  }
  sim::FastSqdConfig fast;
  fast.params = p;
  fast.jobs = scaled(kSweepFastJobs, scale);
  fast.warmup = fast.jobs / 10;
  fast.seed = c.seed;
  sim::FastSqdResult f;
  {
    const ScopedSpan span("sim.simulate_sqd_fast", index);
    f = sim::simulate_sqd_fast(fast, budget);
  }
  b.fast_delay = f.mean_delay;
  b.fast_ci = f.ci95_delay;
  out.jobs = fast.jobs;
  out.warmup = fast.warmup;

  out.values.push_back(b.upper ? b.upper->mean_delay : -1.0);
  if (b.upper) add_bound_values(*b.upper, out.values);
  if (b.lower) add_bound_values(*b.lower, out.values);
  add_bound_values(b.improved, out.values);
  if (b.exact)
    out.values.insert(out.values.end(),
                      {b.exact->mean_delay, b.exact->truncation_mass});
  out.values.insert(out.values.end(), {f.mean_delay, f.ci95_delay,
                                       f.mean_queue_seen});
  if (check) out.failures = check_bound(b);
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "fleet_1m", "racked_10k", "paper_n10_adaptive", "bound_sweep"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "fleet_1m") return fleet_1m(seed);
  if (name == "racked_10k") return racked_10k(seed);
  if (name == "paper_n10_adaptive") return paper_n10_adaptive(seed);
  if (name == "bound_sweep") return bound_sweep(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

std::unique_ptr<sim::Policy> make_policy(const ClusterCell& c) {
  using namespace sim;
  const int n = c.config.servers;
  const int racks = c.config.topology.racks;
  if (c.policy == "sq(1)") return std::make_unique<SqdPolicy>(n, 1);
  if (c.policy == "sq(2)") return std::make_unique<SqdPolicy>(n, 2);
  if (c.policy == "sq(5)") return std::make_unique<SqdPolicy>(n, 5);
  if (c.policy == "jsq") return std::make_unique<JsqPolicy>();
  if (c.policy == "round-robin") return std::make_unique<RoundRobinPolicy>();
  if (c.policy == "least-work")
    return std::make_unique<LeastWorkLeftPolicy>();
  if (c.policy == "jiq") return std::make_unique<JiqPolicy>(n);
  if (c.policy == "rack-sq(2)")
    return std::make_unique<RackLocalSqdPolicy>(n, racks, 2, 1);
  if (c.policy == "rack-jiq") return std::make_unique<RackJiqPolicy>(n, racks);
  throw std::invalid_argument("unknown policy: " + c.policy);
}

ArrivalLaw make_arrivals(const ClusterCell& c) {
  const double rate = c.rho * c.config.servers;
  ArrivalLaw law;
  if (c.mmpp) {
    law.process = std::make_unique<sim::MmppArrivals>(
        sim::MmppArrivals::bursty(rate, kBurstFactor, kBurstHold));
  } else {
    law.interarrival = sim::make_exponential(rate);
    law.process = std::make_unique<sim::RenewalArrivals>(*law.interarrival);
  }
  return law;
}

std::unique_ptr<sim::Distribution> make_service(const ClusterCell& c) {
  return c.lognormal ? sim::make_lognormal(1.0, kServiceCv)
                     : sim::make_exponential(1.0);
}

sqd::BoundModel bound_model(const BoundCell& c, sqd::BoundKind kind) {
  return sqd::BoundModel(sqd::Params{c.servers, kSweepD, c.rho, 1.0},
                         kSweepThreshold, kind);
}

CellOutput run_cell(const Cell& cell, util::ThreadBudget& budget,
                    double scale, bool check, int index) {
  try {
    return std::visit(
        [&](const auto& c) {
          if constexpr (std::is_same_v<std::decay_t<decltype(c)>,
                                       ClusterCell>)
            return run_cluster(c, budget, scale, check, index);
          else
            return run_bound(c, budget, scale, check, index);
        },
        cell);
  } catch (const std::exception& e) {
    CellOutput out;
    out.failures.push_back(std::string("exception: ") + e.what());
    return out;
  }
}

}  // namespace rlb::perf
