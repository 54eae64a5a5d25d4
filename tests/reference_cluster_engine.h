// The per-server reference implementation of the cluster DES — the test
// oracle the engine equivalence tests compare CompactClusterEngine
// against, replica by replica on the same seeds.
//
// It models the same cluster as the engine in the most direct way: a
// std::deque of jobs per server, a std::priority_queue of departures, a
// std::vector I-queue of idle servers in became-idle order, and each
// server's remaining work kept as (completion - now) + queued_work. It
// dispatches EVERY policy through Policy::select on its own ClusterState
// view, so equality with the engine also pins each symmetric policy's
// select_direct against its select. Costs O(N) per arrival that lands on
// an idle server (ordered I-queue erase); test fleets are small.
//
// It also runs the engine's memoryless loop, under the same condition:
// Exp(mu) service, unit speeds, no observable cross-rack penalty and a
// symmetric policy. There one Exp(busy * mu) clock replaces the heap,
// each server keeps its head job's service start, and the departing
// server comes from the candidate's rejection loop, checked server by
// server, or from a LevelDirectory the oracle feeds with its own
// arrivals and departures and reads only as its index of busy servers.
//
// The RNG draw order (compact_cluster.h's class comment), the (time,
// server) event order and the statistics accumulation order are the
// engine's, statement for statement.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "sim/arrival_process.h"
#include "sim/cluster_accum.h"
#include "sim/cluster_sim.h"
#include "sim/distributions.h"
#include "sim/level_directory.h"
#include "sim/policy.h"
#include "sim/rng.h"
#include "util/require.h"

namespace rlb::sim {

/// One replica's event loop: `jobs` arrivals with `warmup` discarded,
/// everything seeded from `seed`. The engine itself is the policy-visible
/// cluster state. Same constructor and run() as CompactClusterEngine.
class ReferenceClusterEngine final : public ClusterState {
 public:
  ReferenceClusterEngine(const ClusterConfig& cfg, std::uint64_t jobs,
                         std::uint64_t warmup, std::uint64_t batch,
                         std::uint64_t seed, Policy& policy,
                         ArrivalProcess& arrivals,
                         const Distribution& service)
      : cfg_(cfg),
        jobs_(jobs),
        warmup_(warmup),
        batch_(batch),
        seed_(seed),
        policy_(policy),
        arrivals_(arrivals),
        service_(service),
        rng_(seed),
        rack_mode_(cfg.topology.racks > 1 &&
                   (cfg.topology.penalized() || policy.locality_aware())),
        per_rack_(cfg.topology.servers_per_rack(cfg.servers)),
        rate_(policy.symmetric() && cfg.server_speeds.empty() &&
                      !(rack_mode_ && cfg.topology.penalized())
                  ? service.exponential_rate()
                  : 0.0),
        queues_(cfg.servers),
        completion_(cfg.servers, 0.0),
        queued_work_(cfg.servers, 0.0),
        start_(cfg.servers, 0.0),
        busy_index_(cfg.servers) {
    // Every server starts idle; the I-queue begins in server-index order.
    idle_queue_.reserve(cfg.servers);
    for (int s = 0; s < cfg.servers; ++s) idle_queue_.push_back(s);
  }

  int servers() const override { return cfg_.servers; }

  int queue_length(int server) const override {
    return static_cast<int>(queues_[server].size());
  }

  double remaining_work(int server) const override {
    const auto& q = queues_[server];
    if (q.empty()) return 0.0;
    return (completion_[server] - now_) + queued_work_[server];
  }

  // The dispatcher's JIQ I-queue: servers in the order they became idle.
  int idle_servers() const override {
    return static_cast<int>(idle_queue_.size());
  }

  int idle_server(int i) const override { return idle_queue_[i]; }

  ClusterAccum run() {
    ClusterAccum acc;
    acc.sojourn_ci = BatchMeans(batch_);
    acc.sojourn_quantiles = ReservoirQuantiles(
        cfg_.quantile_reservoir, seed_ ^ cfg_.quantile_seed_salt);
    acc.sla_threshold = cfg_.sla_threshold;
    if (cfg_.window_width > 0.0)
      acc.enable_windows(cfg_.window_width, cfg_.window_reservoir,
                         seed_ ^ cfg_.window_seed_salt);

    const bool memoryless = rate_ > 0.0;
    double next_arrival = arrivals_.next(rng_);
    double next_departure = std::numeric_limits<double>::infinity();
    int candidate = 0;
    if (memoryless) candidate = draw_server();
    std::uint64_t arrivals = 0;
    std::uint64_t departures = 0;

    double measure_start = -1.0;
    std::uint64_t in_system = 0;

    const auto advance_to = [&](double t) {
      if (measure_start >= 0.0) {
        acc.area_jobs += static_cast<double>(in_system) * (t - now_);
        acc.busy_area += static_cast<double>(busy_servers_) * (t - now_);
      }
      now_ = t;
    };

    while (departures < jobs_) {
      const bool have_arrival = arrivals < jobs_;
      const bool arrival_next =
          have_arrival &&
          (memoryless ? next_arrival <= next_departure
                      : departure_heap_.empty() ||
                            next_arrival <= departure_heap_.top().first);

      if (arrival_next) {
        advance_to(next_arrival);
        if (arrivals == warmup_ && measure_start < 0.0)
          measure_start = now_;
        Job job{arrivals, now_, memoryless ? 0.0 : service_.sample(rng_)};
        // Home rack: one draw per arrival, taken right after the service
        // sample. Skipped entirely when the topology is unobservable.
        int home = 0;
        if (rack_mode_)
          home = static_cast<int>(rng_.uniform_int(
              static_cast<std::uint64_t>(cfg_.topology.racks)));
        ++arrivals;
        ++in_system;
        const int s = rack_mode_ ? policy_.select(*this, home, rng_)
                                 : policy_.select(*this, rng_);
        RLB_ASSERT(s >= 0 && s < cfg_.servers, "policy picked a bad server");
        if (!cfg_.server_speeds.empty())
          job.service_time /= cfg_.server_speeds[s];
        if (rack_mode_ && s / per_rack_ != home)
          job.service_time = cfg_.topology.penalize(job.service_time);
        auto& q = queues_[s];
        if (q.empty()) {
          if (memoryless) {
            start_[s] = now_;
            if (busy_servers_ == 0)
              next_departure = now_ + rng_.exponential(rate_);
            else
              next_departure =
                  now_ + (next_departure - now_) *
                             (static_cast<double>(busy_servers_) /
                              static_cast<double>(busy_servers_ + 1));
          } else {
            completion_[s] = now_ + job.service_time;
            departure_heap_.emplace(completion_[s], s);
          }
          ++busy_servers_;
          retire_idle(s);
        } else if (!memoryless) {
          queued_work_[s] += job.service_time;
        }
        q.push_back(job);
        busy_index_.increment(s);
        next_arrival = now_ + arrivals_.next(rng_);
      } else {
        int s;
        if (memoryless) {
          advance_to(next_departure);
          if (busy_servers_ < cfg_.servers - busy_servers_) {
            s = busy_index_.sample_busy(rng_);
          } else {
            while (queues_[candidate].empty()) candidate = draw_server();
            s = candidate;
          }
        } else {
          RLB_ASSERT(!departure_heap_.empty(), "no events left");
          const auto [t, server] = departure_heap_.top();
          departure_heap_.pop();
          advance_to(t);
          s = server;
        }
        auto& q = queues_[s];
        RLB_ASSERT(!q.empty(), "departure from empty server");
        Job done = q.front();
        q.pop_front();
        busy_index_.decrement(s);
        if (memoryless) done.service_time = now_ - start_[s];
        ++departures;
        --in_system;
        acc.record_departure(now_, done.arrival_time, done.service_time,
                             done.index >= warmup_);
        if (!q.empty()) {
          if (memoryless) {
            start_[s] = now_;
          } else {
            const Job& next = q.front();
            queued_work_[s] -= next.service_time;
            completion_[s] = now_ + next.service_time;
            departure_heap_.emplace(completion_[s], s);
          }
        } else {
          --busy_servers_;
          idle_queue_.push_back(s);
        }
        if (memoryless) {
          next_departure = busy_servers_ > 0
                               ? now_ + rng_.exponential(busy_servers_ * rate_)
                               : std::numeric_limits<double>::infinity();
          candidate = draw_server();
        }
      }
    }

    acc.window = now_ - std::max(measure_start, 0.0);
    acc.sim_time = now_;
    return acc;
  }

 private:
  struct Job {
    std::uint64_t index = 0;
    double arrival_time = 0.0;
    double service_time = 0.0;
  };
  using Event = std::pair<double, int>;  // (time, server)

  int draw_server() {
    return static_cast<int>(
        rng_.uniform_int(static_cast<std::uint64_t>(cfg_.servers)));
  }

  void retire_idle(int s) {
    // O(N) erase; N is small and JIQ-style policies take the front anyway.
    const auto it = std::find(idle_queue_.begin(), idle_queue_.end(), s);
    RLB_ASSERT(it != idle_queue_.end(), "busy server missing from I-queue");
    idle_queue_.erase(it);
  }

  const ClusterConfig& cfg_;
  std::uint64_t jobs_;
  std::uint64_t warmup_;
  std::uint64_t batch_;
  std::uint64_t seed_;
  Policy& policy_;
  ArrivalProcess& arrivals_;
  const Distribution& service_;
  Rng rng_;
  /// Topology observable this run (sim/topology.h gating rule).
  bool rack_mode_;
  int per_rack_;
  double rate_;  ///< mu when the cell runs the memoryless loop, else 0

  std::vector<std::deque<Job>> queues_;
  std::vector<double> completion_;
  std::vector<double> queued_work_;
  std::vector<double> start_;  ///< head job's service start (memoryless)
  LevelDirectory busy_index_;  ///< sample_busy only (memoryless)
  std::vector<int> idle_queue_;  ///< idle servers, first-idle first
  std::priority_queue<Event, std::vector<Event>, std::greater<>>
      departure_heap_;
  double now_ = 0.0;
  int busy_servers_ = 0;
};

}  // namespace rlb::sim
