#include "sim/compact_cluster.h"

#include <algorithm>
#include <limits>

#include "util/prefetch.h"
#include "util/require.h"

namespace rlb::sim {

CompactClusterEngine::CompactClusterEngine(
    const ClusterConfig& cfg, std::uint64_t jobs, std::uint64_t warmup,
    std::uint64_t batch, std::uint64_t seed, Policy& policy,
    ArrivalProcess& arrivals, const Distribution& service)
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
      symmetric_(policy.symmetric()),
      service_rate_(symmetric_ && cfg.server_speeds.empty() &&
                            !(rack_mode_ && cfg.topology.penalized())
                        ? service.exponential_rate()
                        : 0.0),
      dir_(cfg.servers),
      next_departure_(std::numeric_limits<double>::infinity()),
      slot_(cfg.servers) {
  // Per-rack idle FIFOs only when a locality-aware policy will consult
  // them — at any rack count, one rack included; blind runs (even
  // penalized ones) skip the maintenance cost.
  if (policy.locality_aware()) dir_.arm_racks(cfg.topology.racks);
}

double CompactClusterEngine::remaining_work(int server) const {
  RLB_ASSERT(service_rate_ == 0.0,
             "the memoryless loop keeps no per-server remaining work");
  if (dir_.level_of(server) == 0) return 0.0;
  const ServerSlot& q = slot_[server];
  return (q.completion - now_) + q.queued_work;
}

int CompactClusterEngine::idle_server(int i) const {
  RLB_REQUIRE(i >= 0 && i < dir_.idle_count(),
              "idle_server index out of range");
  int s = dir_.idle_head();
  for (; i > 0; --i) s = dir_.idle_next(s);
  return s;
}

std::int32_t CompactClusterEngine::acquire_slot() {
  if (free_head_ >= 0) {
    const std::int32_t slot = free_head_;
    free_head_ = pool_[slot].next;
    return slot;
  }
  pool_.emplace_back();
  return static_cast<std::int32_t>(pool_.size() - 1);
}

void CompactClusterEngine::release_slot(std::int32_t slot) {
  pool_[slot].next = free_head_;
  free_head_ = slot;
}

template <bool Memoryless>
void CompactClusterEngine::push_job(int server, const Job& job) {
  ServerSlot& q = slot_[server];
  if (dir_.level_of(server) == 0) {
    // Idle server: the job goes straight into service, inline in the
    // server's own slot — no pool traffic on this path.
    q.head = job;
    q.next = -1;
    q.tail = -1;
    if constexpr (Memoryless) {
      q.start = now_;
      // busy rises from b to b + 1: a fresh Exp(mu) clock from b = 0,
      // else the Exp(b mu) residual scaled to Exp((b + 1) mu).
      const int busy = busy_servers();
      if (busy == 0)
        next_departure_ = now_ + rng_.exponential(service_rate_);
      else
        next_departure_ = now_ + (next_departure_ - now_) *
                                     (static_cast<double>(busy) /
                                      static_cast<double>(busy + 1));
    } else {
      q.completion = now_ + job.service_time;
      calendar_.push(q.completion, server);
    }
    return;
  }
  if constexpr (!Memoryless) q.queued_work += job.service_time;
  const std::int32_t slot = acquire_slot();
  pool_[slot].job = job;
  pool_[slot].next = -1;
  if (q.tail >= 0)
    pool_[q.tail].next = slot;
  else
    q.next = slot;
  q.tail = slot;
}

template <bool Memoryless>
CompactClusterEngine::Job CompactClusterEngine::pop_job(int server) {
  ServerSlot& q = slot_[server];
  Job done = q.head;
  if constexpr (Memoryless) done.service_time = now_ - q.start;
  if (q.next >= 0) {
    // Promote the first queued job into the inline slot and start it.
    const std::int32_t promoted = q.next;
    const PoolRec rec = pool_[promoted];
    if (rec.next >= 0) util::prefetch(&pool_[rec.next]);
    q.head = rec.job;
    q.next = rec.next;
    if (rec.next < 0) q.tail = -1;
    release_slot(promoted);
    if constexpr (Memoryless) {
      q.start = now_;
    } else {
      q.queued_work -= q.head.service_time;
      q.completion = now_ + q.head.service_time;
      calendar_.push(q.completion, server);
    }
  }
  return done;
}

int CompactClusterEngine::uniform_server() {
  return static_cast<int>(
      rng_.uniform_int(static_cast<std::uint64_t>(cfg_.servers)));
}

int CompactClusterEngine::departing_server() {
  const int busy = busy_servers();
  if (busy < cfg_.servers - busy) return dir_.sample_busy(rng_);
  // At least half the fleet is busy: at most two expected draws.
  while (dir_.level_of(candidate_) == 0) candidate_ = uniform_server();
  return candidate_;
}

void CompactClusterEngine::rearm_departure() {
  const int busy = busy_servers();
  next_departure_ =
      busy > 0 ? now_ + rng_.exponential(busy * service_rate_)
               : std::numeric_limits<double>::infinity();
  candidate_ = uniform_server();
  dir_.prefetch_server(candidate_);
  util::prefetch(&slot_[candidate_]);
}

ClusterAccum CompactClusterEngine::run() {
  return service_rate_ > 0.0 ? run_loop<true>() : run_loop<false>();
}

template <bool Memoryless>
ClusterAccum CompactClusterEngine::run_loop() {
  // The RNG draw order, event ordering, and statistics accumulation
  // order below are the model's specification (see the class comment):
  // the test oracle (tests/reference_cluster_engine.h) follows them
  // statement for statement, and the equivalence tests fail if either
  // drifts. The prefetch calls are layout hints only: they stage the
  // cache lines the NEXT event will touch while the current one
  // finishes, and never change any decision.
  ClusterAccum acc;
  acc.sojourn_ci = BatchMeans(batch_);
  acc.sojourn_quantiles = ReservoirQuantiles(cfg_.quantile_reservoir,
                                             seed_ ^ cfg_.quantile_seed_salt);
  acc.sla_threshold = cfg_.sla_threshold;
  if (cfg_.window_width > 0.0)
    acc.enable_windows(cfg_.window_width, cfg_.window_reservoir,
                       seed_ ^ cfg_.window_seed_salt);

  const bool idle_head_hint = policy_.dispatches_to_idle_head();
  double next_arrival = arrivals_.next(rng_);
  if constexpr (Memoryless) candidate_ = uniform_server();
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;

  double measure_start = -1.0;
  std::uint64_t in_system = 0;

  const auto advance_to = [&](double t) {
    if (measure_start >= 0.0) {
      const int busy = busy_servers();
      acc.area_jobs += static_cast<double>(in_system) * (t - now_);
      acc.busy_area += static_cast<double>(busy) * (t - now_);
    }
    now_ = t;
  };

  while (departures < jobs_) {
    bool arrival_next = arrivals < jobs_;
    if constexpr (Memoryless)
      arrival_next = arrival_next && next_arrival <= next_departure_;
    else
      arrival_next = arrival_next && (calendar_.empty() ||
                                      next_arrival <= calendar_.min_time());

    if (arrival_next) {
      advance_to(next_arrival);
      if (arrivals == warmup_ && measure_start < 0.0) measure_start = now_;
      Job job;
      job.index = arrivals;
      job.arrival_time = now_;
      if constexpr (!Memoryless) job.service_time = service_.sample(rng_);
      // Home rack: one draw per arrival, after any service sample and
      // before the policy's draws. Skipped entirely when the topology is
      // unobservable, so those runs stay bit-identical to a
      // topology-blind run.
      int home = 0;
      if (rack_mode_)
        home = static_cast<int>(rng_.uniform_int(
            static_cast<std::uint64_t>(cfg_.topology.racks)));
      ++arrivals;
      ++in_system;
      const int s =
          symmetric_ ? (rack_mode_ ? policy_.select_direct(dir_, home, rng_)
                                   : policy_.select_direct(dir_, rng_))
                     : (rack_mode_ ? policy_.select(*this, home, rng_)
                                   : policy_.select(*this, rng_));
      RLB_ASSERT(s >= 0 && s < cfg_.servers, "policy picked a bad server");
      util::prefetch(&slot_[s]);
      if constexpr (!Memoryless) {
        if (!cfg_.server_speeds.empty())
          job.service_time /= cfg_.server_speeds[s];
        if (rack_mode_ && s / per_rack_ != home)
          job.service_time = cfg_.topology.penalize(job.service_time);
      }
      push_job<Memoryless>(s, job);
      dir_.increment(s);
      next_arrival = now_ + arrivals_.next(rng_);
    } else {
      int s;
      if constexpr (Memoryless) {
        advance_to(next_departure_);
        s = departing_server();
      } else {
        RLB_ASSERT(!calendar_.empty(), "no events left");
        const auto [t, server] = calendar_.pop();
        advance_to(t);
        s = server;
      }
      const Job done = pop_job<Memoryless>(s);
      dir_.decrement(s);
      ++departures;
      --in_system;
      acc.record_departure(now_, done.arrival_time, done.service_time,
                           done.index >= warmup_);
      if constexpr (Memoryless) rearm_departure();
    }

    // Stage the next event's state: the heap's top names the next
    // departure's server (the memoryless candidate was staged when it
    // was drawn); under JIQ the idle-FIFO head names the next arrival's
    // server before that arrival is even drawn.
    if constexpr (!Memoryless) {
      if (!calendar_.empty()) {
        const std::int32_t ns = calendar_.top().second;
        dir_.prefetch_server(ns);
        util::prefetch(&slot_[ns]);
      }
    }
    if (idle_head_hint && dir_.idle_count() > 0) {
      const int h = dir_.idle_head();
      dir_.prefetch_server(h);
      util::prefetch(&slot_[h]);
    }
  }

  acc.window = now_ - std::max(measure_start, 0.0);
  acc.sim_time = now_;
  return acc;
}

}  // namespace rlb::sim
