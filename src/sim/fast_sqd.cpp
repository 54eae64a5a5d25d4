#include "sim/fast_sqd.h"

#include <algorithm>
#include <vector>

#include "sim/replica.h"
#include "sim/rng.h"
#include "sim/stats.h"
#include "util/require.h"

namespace rlb::sim {

namespace {

/// Raw per-replica statistics; merged in replica-index order before any
/// derived quantity is computed.
struct Accum {
  StreamingMoments delay_stats;
  StreamingMoments queue_seen;
  BatchMeans delay_ci{1};
  std::vector<std::uint64_t> tail_hist;

  void merge(const Accum& other) {
    delay_stats.merge(other.delay_stats);
    queue_seen.merge(other.queue_seen);
    delay_ci.merge(other.delay_ci);
    RLB_ASSERT(tail_hist.size() == other.tail_hist.size(),
               "replica tail histograms disagree in size");
    for (std::size_t k = 0; k < tail_hist.size(); ++k)
      tail_hist[k] += other.tail_hist[k];
  }
};

Accum run_one_replica(const FastSqdConfig& cfg, std::uint64_t jobs,
                      std::uint64_t warmup, std::uint64_t batch,
                      std::uint64_t seed) {
  const sqd::Params& p = cfg.params;
  Rng rng(seed);
  DistinctSampler sampler(p.N);
  std::vector<int> polled;

  std::vector<int> queue(p.N, 0);
  // Busy-server bookkeeping for O(1) departure sampling.
  std::vector<int> busy;          // indices of busy servers
  std::vector<int> busy_pos(p.N, -1);
  busy.reserve(p.N);

  const double arrival_rate = p.total_arrival_rate();
  Accum acc;
  acc.delay_ci = BatchMeans(batch);
  // Histogram of a uniformly sampled server's queue length at arrival
  // epochs (PASTA makes these time-stationary samples).
  acc.tail_hist.assign(cfg.tail_kmax > 0 ? cfg.tail_kmax + 2 : 0, 0);

  std::uint64_t arrivals = 0;
  while (arrivals < jobs) {
    const double total_rate =
        arrival_rate + p.mu * static_cast<double>(busy.size());
    const bool is_arrival =
        rng.next_double() * total_rate < arrival_rate;
    if (is_arrival) {
      sampler.sample(p.d, rng, polled);
      int best = polled[0];
      int best_len = queue[best];
      int ties = 1;
      for (int i = 1; i < p.d; ++i) {
        const int s = polled[i];
        if (queue[s] < best_len) {
          best = s;
          best_len = queue[s];
          ties = 1;
        } else if (queue[s] == best_len) {
          ++ties;
          if (rng.uniform_int(ties) == 0) best = s;
        }
      }
      if (arrivals >= warmup) {
        const double delay = (best_len + 1) / p.mu;
        acc.delay_stats.add(delay);
        acc.delay_ci.add(delay);
        acc.queue_seen.add(best_len);
        if (!acc.tail_hist.empty()) {
          const int probe = queue[rng.uniform_int(p.N)];
          acc.tail_hist[std::min<int>(probe, cfg.tail_kmax + 1)] += 1;
        }
      }
      if (queue[best] == 0) {
        busy_pos[best] = static_cast<int>(busy.size());
        busy.push_back(best);
      }
      ++queue[best];
      ++arrivals;
    } else {
      // Uniform busy server departs (all busy servers have equal rate mu).
      const auto idx = rng.uniform_int(busy.size());
      const int s = busy[idx];
      if (--queue[s] == 0) {
        // Swap-remove from the busy list.
        const int last = busy.back();
        busy[idx] = last;
        busy_pos[last] = static_cast<int>(idx);
        busy.pop_back();
        busy_pos[s] = -1;
      }
    }
  }
  return acc;
}

FastSqdResult assemble(const FastSqdConfig& cfg, const Accum& acc) {
  FastSqdResult out;
  out.mean_delay = acc.delay_stats.mean();
  out.mean_wait = out.mean_delay - 1.0 / cfg.params.mu;
  out.ci95_delay = acc.delay_ci.half_width(0.95);
  out.mean_queue_seen = acc.queue_seen.mean();
  out.jobs_measured = acc.delay_stats.count();
  if (!acc.tail_hist.empty()) {
    // Suffix sums of the histogram give the tail probabilities; the last
    // bucket collects all probes longer than kmax.
    out.marginal_tail.assign(cfg.tail_kmax + 1, 0.0);
    const double total = static_cast<double>(acc.delay_stats.count());
    double cum = static_cast<double>(acc.tail_hist[cfg.tail_kmax + 1]);
    for (int k = cfg.tail_kmax; k >= 0; --k) {
      cum += static_cast<double>(acc.tail_hist[k]);
      out.marginal_tail[k] = cum / total;
    }
  }
  return out;
}

}  // namespace

FastSqdResult simulate_sqd_fast(const FastSqdConfig& cfg,
                                const AdaptivePlan& plan,
                                util::ThreadBudget& budget) {
  cfg.params.validate();
  plan.validate();
  const std::uint64_t batch = plan.batch_size();

  AdaptiveReport report;
  const Accum acc = run_replicas<Accum>(
      plan, budget,
      [&](std::uint64_t /*global_replica*/, std::uint64_t seed,
          std::uint64_t jobs, std::uint64_t warmup) {
        return run_one_replica(cfg, jobs, warmup, batch, seed);
      },
      [](Accum& into, const Accum& from) { into.merge(from); },
      [&](const Accum& merged) {
        return merged.delay_ci.half_width_or_infinity(plan.confidence);
      },
      report);

  FastSqdResult out = assemble(cfg, acc);
  out.adaptive = report;
  return out;
}

FastSqdResult simulate_sqd_fast(const FastSqdConfig& cfg,
                                util::ThreadBudget& budget) {
  FastSqdResult out = simulate_sqd_fast(
      cfg, AdaptivePlan::fixed(cfg.replicas, cfg.jobs, cfg.warmup, cfg.seed),
      budget);
  out.adaptive = AdaptiveReport{};
  return out;
}

}  // namespace rlb::sim
