#include "replay.h"

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "qbd/drift.h"
#include "qbd/logred.h"
#include "qbd/solver.h"
#include "sim/calendar_queue.h"
#include "sim/cluster_accum.h"
#include "sim/compact_cluster.h"
#include "sim/level_directory.h"
#include "sqd/blocks_builder.h"
#include "trace.h"

namespace rlb::perf {

namespace {

constexpr std::size_t kOps = std::size_t{1} << 18;  // calls per probe
constexpr std::size_t kRing = 4096;                 // precomputed inputs

/// Results of probed calls land here, so the optimizer cannot drop them.
double g_sink = 0.0;

template <typename Body>
double seconds_of(Body&& body) {
  const double t0 = now_s();
  body();
  return now_s() - t0;
}

/// Median over three repetitions of `body`'s duration divided by `ops`.
template <typename Body>
double per_op(double ops, Body&& body) {
  std::vector<double> reps;
  for (int r = 0; r < 3; ++r) reps.push_back(seconds_of(body) / ops);
  return median(reps);
}

/// Forwards every decision to `inner` and copies the directory the
/// engine dispatches against at the `at`-th arrival.
class SnapshotPolicy final : public sim::Policy {
 public:
  SnapshotPolicy(sim::Policy& inner, std::uint64_t at)
      : inner_(inner), at_(at) {}

  int select(const sim::ClusterState& c, sim::Rng& rng) override {
    return inner_.select(c, rng);
  }
  int select(const sim::ClusterState& c, int home, sim::Rng& rng) override {
    return inner_.select(c, home, rng);
  }
  int select_direct(const sim::LevelDirectory& d, sim::Rng& rng) override {
    take(d);
    return inner_.select_direct(d, rng);
  }
  int select_direct(const sim::LevelDirectory& d, int home,
                    sim::Rng& rng) override {
    take(d);
    return inner_.select_direct(d, home, rng);
  }
  [[nodiscard]] bool symmetric() const override { return inner_.symmetric(); }
  [[nodiscard]] bool dispatches_to_idle_head() const override {
    return inner_.dispatches_to_idle_head();
  }
  [[nodiscard]] bool locality_aware() const override {
    return inner_.locality_aware();
  }
  [[nodiscard]] int required_racks() const override {
    return inner_.required_racks();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] std::unique_ptr<sim::Policy> clone() const override {
    return inner_.clone();
  }

  std::optional<sim::LevelDirectory> snapshot;

 private:
  void take(const sim::LevelDirectory& d) {
    if (++seen_ == at_) snapshot.emplace(d);
  }

  sim::Policy& inner_;
  std::uint64_t at_;
  std::uint64_t seen_ = 0;
};

/// Per-call costs of one compact-engine configuration (seconds).
struct Probe {
  double construct = 0.0, select = 0.0, next = 0.0, sample = 0.0,
         hold = 0.0, move = 0.0, record = 0.0, merge = 0.0;
};

Probe probe_cell(const ClusterCell& c) {
  const sim::ClusterConfig& cfg = c.config;
  const std::uint64_t replicas =
      static_cast<std::uint64_t>(c.plan ? c.plan->replicas : cfg.replicas);
  // One replica as the cell runs it (round 0 for adaptive cells).
  const std::uint64_t jobs =
      (c.plan ? c.plan->initial_jobs : cfg.jobs) / replicas;
  const std::uint64_t warmup =
      c.plan ? c.plan->warmup_jobs : cfg.warmup / replicas;
  const std::uint64_t batch = std::max<std::uint64_t>(1, (jobs - warmup) / 30);
  const std::uint64_t seed = c.plan ? c.plan->base_seed : cfg.seed;
  const auto policy = make_policy(c);
  const ArrivalLaw law = make_arrivals(c);
  const auto service = make_service(c);
  const auto fresh_arrivals = [&] {
    auto a = law.process->clone();
    a->reset();
    return a;
  };

  Probe p;
  {
    std::vector<double> reps;
    for (int r = 0; r < 3; ++r) {
      const auto a = fresh_arrivals();
      const double t0 = now_s();
      const sim::CompactClusterEngine engine(cfg, jobs, warmup, batch, seed,
                                             *policy, *a, *service);
      reps.push_back(now_s() - t0);
      g_sink += engine.directory().idle_count();
    }
    p.construct = median(reps);
  }

  const auto inner = policy->clone();
  SnapshotPolicy snap(*inner, jobs / 2);
  const auto a = fresh_arrivals();
  sim::CompactClusterEngine engine(cfg, jobs, warmup, batch, seed, snap, *a,
                                   *service);
  const sim::ClusterAccum acc = engine.run();
  if (!snap.snapshot) return p;
  const sim::LevelDirectory& dir = *snap.snapshot;
  const int n = cfg.servers;

  sim::Rng rng(seed ^ 0x7265706c6179ull);
  std::vector<double> svc(kRing);
  for (double& s : svc) s = service->sample(rng);
  const bool rack_mode = cfg.topology.racks > 1 &&
                         (cfg.topology.penalized() || policy->locality_aware());
  std::vector<int> homes(kRing);
  for (int& h : homes)
    h = static_cast<int>(
        rng.uniform_int(static_cast<std::uint64_t>(cfg.topology.racks)));
  std::vector<int> servers(kOps);
  for (int& s : servers)
    s = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(n)));
  const double ops = static_cast<double>(kOps);

  const auto select_policy = policy->clone();
  p.select = per_op(ops, [&] {
    long sum = 0;
    for (std::size_t k = 0; k < kOps; ++k)
      sum += rack_mode
                 ? select_policy->select_direct(dir, homes[k % kRing], rng)
                 : select_policy->select_direct(dir, rng);
    g_sink += static_cast<double>(sum);
  });
  const auto next_arrivals = fresh_arrivals();
  p.next = per_op(ops, [&] {
    double sum = 0.0;
    for (std::size_t k = 0; k < kOps; ++k) sum += next_arrivals->next(rng);
    g_sink += sum;
  });
  p.sample = per_op(ops, [&] {
    double sum = 0.0;
    for (std::size_t k = 0; k < kOps; ++k) sum += service->sample(rng);
    g_sink += sum;
  });

  // The calendar holds one departure per busy server; a hold is the
  // pop-then-push each job costs it.
  const int busy = n - dir.idle_count();
  if (busy > 0) {
    sim::CalendarQueue calendar;
    for (int s = 0; s < busy; ++s)
      calendar.push(svc[static_cast<std::size_t>(s) % kRing], s);
    p.hold = per_op(ops, [&] {
      for (std::size_t k = 0; k < kOps; ++k) {
        const auto [t, id] = calendar.pop();
        calendar.push(t + svc[k % kRing], id);
      }
    });
  }

  sim::LevelDirectory moved = dir;
  p.move = per_op(2.0 * ops, [&] {
    for (std::size_t k = 0; k < kOps; ++k) {
      moved.increment(servers[k]);
      moved.decrement(servers[k]);
    }
  });

  // A departure record once the quantile reservoir is full, as in any
  // replica that measured more jobs than the reservoir holds.
  sim::ClusterAccum rec;
  rec.sojourn_ci = sim::BatchMeans(batch);
  rec.sojourn_quantiles =
      sim::ReservoirQuantiles(cfg.quantile_reservoir,
                              seed ^ cfg.quantile_seed_salt);
  rec.sla_threshold = cfg.sla_threshold;
  if (cfg.window_width > 0.0)
    rec.enable_windows(cfg.window_width, cfg.window_reservoir,
                       seed ^ cfg.window_seed_salt);
  const double gap = 1.0 / law.process->mean_rate();
  double clock = 0.0;
  const auto record = [&](std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) {
      clock += gap;
      const double s = svc[k % kRing];
      rec.record_departure(clock, clock - 1.5 * s, s, true);
    }
  };
  record(cfg.quantile_reservoir);
  p.record = per_op(ops, [&] { record(kOps); });

  std::vector<double> merges;
  for (int r = 0; r < 3; ++r) {
    sim::ClusterAccum into = acc;
    merges.push_back(seconds_of([&] { into.merge(acc); }));
    g_sink += into.area_jobs;
  }
  p.merge = median(merges);
  return p;
}

}  // namespace

std::vector<Metric> replay_des(const Workload& w,
                               const std::vector<CellOutput>& outs,
                               double compact_self_s) {
  // Cells of one configuration (policy, load) share one probe; their
  // totals weight it.
  struct Group {
    const ClusterCell* cell = nullptr;
    double jobs = 0.0, replicas = 0.0, merges = 0.0;
  };
  std::map<std::string, Group> groups;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const auto* c = std::get_if<ClusterCell>(&w.cells[i]);
    if (c == nullptr || !outs[i].compact) continue;
    Group& g = groups[c->policy + "@" + std::to_string(c->rho)];
    g.cell = c;
    g.jobs += static_cast<double>(outs[i].jobs);
    g.replicas += static_cast<double>(outs[i].replicas);
    g.merges += static_cast<double>(outs[i].replicas) - 1.0;
  }

  double jobs = 0.0;
  Probe per_job;  // jobs-weighted mean per-call costs
  Probe total;    // seconds per pass attributed to each step
  for (const auto& [key, g] : groups) {
    const Probe p = probe_cell(*g.cell);
    jobs += g.jobs;
    per_job.select += p.select * g.jobs;
    per_job.next += p.next * g.jobs;
    per_job.sample += p.sample * g.jobs;
    per_job.hold += p.hold * g.jobs;
    per_job.move += p.move * g.jobs;
    per_job.record += p.record * g.jobs;
    total.construct += p.construct * g.replicas;
    total.select += p.select * g.jobs;
    total.next += p.next * g.jobs;
    total.sample += p.sample * g.jobs;
    total.hold += p.hold * g.jobs;
    total.move += 2.0 * p.move * g.jobs;
    total.record += p.record * g.jobs;
    total.merge += p.merge * g.merges;
  }
  const auto mean_ns = [&](double weighted) {
    return jobs > 0.0 ? 1e9 * weighted / jobs : 0.0;
  };
  const auto share = [&](double seconds) {
    return compact_self_s > 0.0 ? seconds / compact_self_s : 0.0;
  };
  const double attributed = total.construct + total.select + total.next +
                            total.sample + total.hold + total.move +
                            total.record + total.merge;
  return {
      {"sim.compact.construct_s", total.construct, "s"},
      {"sim.policy.select_ns", mean_ns(per_job.select), "ns"},
      {"sim.arrivals.next_ns", mean_ns(per_job.next), "ns"},
      {"sim.service.sample_ns", mean_ns(per_job.sample), "ns"},
      {"sim.calendar.hold_ns", mean_ns(per_job.hold), "ns"},
      {"sim.directory.move_ns", mean_ns(per_job.move), "ns"},
      {"sim.accum.record_ns", mean_ns(per_job.record), "ns"},
      {"sim.accum.merge_s", total.merge, "s"},
      {"sim.compact.construct_frac", share(total.construct), "ratio"},
      {"sim.policy.select_frac", share(total.select), "ratio"},
      {"sim.arrivals.next_frac", share(total.next), "ratio"},
      {"sim.service.sample_frac", share(total.sample), "ratio"},
      {"sim.calendar.hold_frac", share(total.hold), "ratio"},
      {"sim.directory.move_frac", share(total.move), "ratio"},
      {"sim.accum.record_frac", share(total.record), "ratio"},
      {"sim.accum.merge_frac", share(total.merge), "ratio"},
      {"sim.replay.unattributed_frac",
       groups.empty() ? 0.0 : 1.0 - share(attributed), "ratio"},
  };
}

std::vector<Metric> replay_qbd(const Workload& w, double solve_bound_self_s) {
  double drift = 0.0, logred = 0.0, rate = 0.0, residual = 0.0, solve = 0.0;
  double iterations = 0.0, gflop = 0.0, block = 0.0, boundary = 0.0;
  for (const Cell& cell : w.cells) {
    const auto* c = std::get_if<BoundCell>(&cell);
    if (c == nullptr || !c->full) continue;
    for (const auto kind : {sqd::BoundKind::Upper, sqd::BoundKind::Lower}) {
      const sqd::BoundQbd q = sqd::build_bound_qbd(bound_model(*c, kind));
      const qbd::Blocks& b = q.blocks;
      qbd::Drift d;
      drift += seconds_of([&] { d = qbd::drift_condition(b.A0, b.A1, b.A2); });
      if (d.stable) {
        qbd::GResult g;
        linalg::Matrix r;
        logred += seconds_of(
            [&] { g = qbd::logarithmic_reduction(b.A0, b.A1, b.A2); });
        rate += seconds_of(
            [&] { r = qbd::rate_matrix_from_g(b.A0, b.A1, g.G); });
        residual += seconds_of(
            [&] { g_sink += qbd::r_residual(b.A0, b.A1, b.A2, r); });
        iterations += g.iterations;
        const double n =
            static_cast<double>(b.boundary_size() + 2 * b.block_size());
        gflop += 2.0 / 3.0 * n * n * n / 1e9;
      }
      solve += seconds_of([&] {
        try {
          g_sink += qbd::solve(b).total_probability;
        } catch (const qbd::UnstableError&) {
        }
      });
      block = std::max(block, static_cast<double>(b.block_size()));
      boundary = std::max(boundary, static_cast<double>(b.boundary_size()));
    }
  }
  const double boundary_s = solve - drift - logred - rate - residual;
  const auto share = [&](double s) { return solve > 0.0 ? s / solve : 0.0; };
  return {
      {"qbd.drift_condition.s", drift, "s"},
      {"qbd.logarithmic_reduction.s", logred, "s"},
      {"qbd.logarithmic_reduction.iters", iterations, "count"},
      {"qbd.rate_matrix_from_g.s", rate, "s"},
      {"qbd.r_residual.s", residual, "s"},
      {"qbd.boundary.s", boundary_s, "s"},
      {"qbd.drift_condition.frac", share(drift), "ratio"},
      {"qbd.logarithmic_reduction.frac", share(logred), "ratio"},
      {"qbd.rate_matrix_from_g.frac", share(rate), "ratio"},
      {"qbd.r_residual.frac", share(residual), "ratio"},
      {"qbd.boundary.frac", share(boundary_s), "ratio"},
      {"qbd.replay.coverage",
       solve_bound_self_s > 0.0 ? solve / solve_bound_self_s : 0.0, "ratio"},
      {"linalg.lu.gflop", gflop, "GFLOP"},
      {"linalg.lu.gflops_rate", boundary_s > 0.0 ? gflop / boundary_s : 0.0,
       "GFLOP/s"},
      {"qbd.block_size.max", block, "count"},
      {"qbd.boundary_size.max", boundary, "count"},
  };
}

}  // namespace rlb::perf
