// The cluster engine: one replica's event loop over the queue-length
// histogram.
//
// The engine stores the queue-length HISTOGRAM — a by-level directory of
// exchangeable server handles (sim/level_directory.h) — so every state
// update a dispatch decision needs is O(1), and the per-job cost grows
// only with the O(log N) departure heap as the fleet grows to N = 10^6
// (the fleet_scaling scenario measures this).
//
// Symmetric policies (Policy::symmetric) see the cluster only through
// queue-length information — counts per level, the idle FIFO head,
// levels of sampled handles — and dispatch through Policy::select_direct,
// one virtual call per arrival. Identity-aware policies (round-robin,
// least-work-left) dispatch through Policy::select on the engine's own
// ClusterState view, which adds each server's remaining work. The test
// suite's per-server reference engine (tests/reference_cluster_engine.h)
// runs the same model job by job; the two are BIT-IDENTICAL under the
// same seed for every policy (tests/test_compact_cluster.cpp pins this).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/arrival_process.h"
#include "sim/calendar_queue.h"
#include "sim/cluster_accum.h"
#include "sim/cluster_sim.h"
#include "sim/distributions.h"
#include "sim/level_directory.h"
#include "sim/policy.h"
#include "sim/rng.h"

namespace rlb::sim {

/// One replica's event loop over compressed state: RNG draws in the
/// order service sample, home rack, policy draws, next interarrival;
/// events in (time, server) order; statistics accumulated in departure
/// order. The test oracle follows the same order statement for
/// statement, which is what makes the two bit-identical.
///
/// Job storage is laid out for locality, not pooled uniformly: the job a
/// server is CURRENTLY serving lives inline in that server's own
/// cache-line slot (slot_), so the arrival-to-idle-server and departure
/// paths — the only paths most jobs ever take — touch one line of job
/// state and no shared pool. Only jobs queued BEHIND the head go to the
/// free-list pool, chained into the slot's intrusive FIFO. The event loop
/// also stages the next event's memory while finishing the current one
/// (the event heap's top names the next departure's server; JIQ names
/// the next arrival's), so the random-access misses overlap event
/// processing instead of serializing in front of it.
class CompactClusterEngine final : public ClusterState {
 public:
  CompactClusterEngine(const ClusterConfig& cfg, std::uint64_t jobs,
                       std::uint64_t warmup, std::uint64_t batch,
                       std::uint64_t seed, Policy& policy,
                       ArrivalProcess& arrivals, const Distribution& service);

  /// The directory the policies dispatch against; exposed for tests.
  [[nodiscard]] const LevelDirectory& directory() const { return dir_; }

  ClusterAccum run();

  // ClusterState: the per-server view identity-aware policies read.
  [[nodiscard]] int servers() const override { return cfg_.servers; }
  [[nodiscard]] int queue_length(int server) const override {
    return dir_.level_of(server);
  }
  /// (completion - now) + queued_work, 0 for an idle server.
  [[nodiscard]] double remaining_work(int server) const override;
  /// The idle FIFO, first-idle-first-out.
  [[nodiscard]] int idle_servers() const override {
    return dir_.idle_count();
  }
  [[nodiscard]] int idle_server(int i) const override;

 private:
  /// In-flight job payload.
  struct Job {
    std::uint64_t index = 0;
    double arrival_time = 0.0;
    double service_time = 0.0;
  };

  /// Pooled record for jobs waiting behind a server's head job; `next`
  /// chains the per-server FIFO or the free list.
  struct PoolRec {
    Job job;
    std::int32_t next = -1;
  };

  /// One cache line per server: the head (in-service) job inline — valid
  /// iff the server is busy, i.e. its directory level is > 0 — plus the
  /// FIFO links into the pool for any jobs queued behind it, and the two
  /// terms of remaining_work. queued_work is never reset when the queue
  /// empties: it carries the rounding residue of its += / -= history,
  /// which least-work's exact tie-break reads.
  struct alignas(64) ServerSlot {
    Job head;
    std::int32_t next = -1;    ///< pool slot of the 2nd job, -1 if none
    std::int32_t tail = -1;    ///< pool slot of the last queued job
    double completion = 0.0;   ///< head job's departure time
    double queued_work = 0.0;  ///< service time queued behind the head
  };
  static_assert(sizeof(ServerSlot) == 64, "one cache line per server");

  std::int32_t acquire_slot();
  void release_slot(std::int32_t slot);
  /// Queue `job` at `server`; a job reaching an idle server starts
  /// service and schedules its departure.
  void push_job(int server, const Job& job);
  /// Remove `server`'s head job; the next queued job, if any, starts
  /// service and schedules its departure.
  Job pop_job(int server);

  // By value: replicas run on worker threads and adaptive runs re-enter
  // with short-lived configs, so the engine must not hold a reference
  // into caller storage.
  ClusterConfig cfg_;
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
  bool symmetric_;  ///< dispatch through select_direct, else select

  LevelDirectory dir_;
  CalendarQueue calendar_;      ///< pending departures, one per busy server
  std::vector<ServerSlot> slot_;  ///< per-server head job + FIFO links
  std::vector<PoolRec> pool_;     ///< jobs queued behind a head
  std::int32_t free_head_ = -1;
  double now_ = 0.0;
};

}  // namespace rlb::sim
