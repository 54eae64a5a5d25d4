// The cluster engine: one replica's event loop over the queue-length
// histogram.
//
// The engine stores the queue-length HISTOGRAM — a by-level directory of
// exchangeable server handles (sim/level_directory.h) — so every state
// update a dispatch decision needs is O(1). Departures come from one of
// two sources, and the service law picks which:
//
// - The MEMORYLESS loop runs when the service law is Exp(mu)
//   (Distribution::exponential_rate), every server runs at speed 1, no
//   cross-rack penalty is observable and the policy is symmetric. Then
//   the busy servers' residual services are i.i.d. Exp(mu), so the next
//   departure is one Exp(busy * mu) clock and the departing server is
//   uniform among the busy ones. There is no event heap, and a job's
//   service time is read off the clock at its departure. Every arrival
//   process qualifies: the loop keeps a real clock, so it is not a
//   time-free jump chain.
// - The EVENT loop runs every other cell: each job draws its service time
//   at arrival and its departure waits in an O(log N) heap
//   (sim/calendar_queue.h).
//
// Both loops are one templated body; they differ only in whether an
// arrival draws a service time, where the next departure time and the
// departing server come from, and what follows a departure. Per-job
// FIFO stamps are kept in both, so sojourn, wait, quantiles, windows and
// the SLA counter keep their definitions.
//
// Symmetric policies (Policy::symmetric) see the cluster only through
// queue-length information — counts per level, the idle FIFO head,
// levels of sampled handles — and dispatch through Policy::select_direct,
// one virtual call per arrival. Identity-aware policies (round-robin,
// least-work-left) dispatch through Policy::select on the engine's own
// ClusterState view, which adds each server's remaining work. The test
// suite's per-server reference engine (tests/reference_cluster_engine.h)
// runs the same model job by job, in both loops; the two are
// BIT-IDENTICAL under the same seed for every policy
// (tests/test_compact_cluster.cpp pins this).
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

/// One replica's event loop over compressed state. RNG draws, in order:
/// - run start: the first interarrival; in the memoryless loop then the
///   first departure's candidate server, uniform over [0, N).
/// - arrival: the service sample (event loop only), the home rack (when
///   the topology is observable), the policy's draws; in the memoryless
///   loop an Exp(mu) clock when the job finds every server idle; then
///   the next interarrival.
/// - memoryless departure: when 2 * busy >= N, redraws of the candidate
///   until it names a busy server (none when it already does); otherwise
///   one LevelDirectory::sample_busy draw. Then, with the departure
///   recorded, an Exp(busy * mu) clock when any server is still busy, and
///   the next departure's candidate.
/// An arrival that raises busy from b >= 1 to b + 1 rescales the clock's
/// residual by b / (b + 1), which keeps it Exp((b + 1) * mu) without a
/// draw. Events run in (time, server) order in the event loop, and a tie
/// between an arrival and a departure goes to the arrival in both;
/// statistics are accumulated in departure order. The test oracle
/// follows the same order statement for statement, which is what makes
/// the two bit-identical.
///
/// The candidate never steers a decision, so at the departure it is
/// uniform over [0, N) and independent of the state, and rejection from
/// it is uniform over the busy servers. It is drawn one departure ahead
/// so that its server's lines can be prefetched; the sample_busy branch
/// keeps drains and light loads at one draw per departure.
///
/// Job storage is laid out for locality, not pooled uniformly: the job a
/// server is CURRENTLY serving lives inline in that server's own
/// cache-line slot (slot_), so the arrival-to-idle-server and departure
/// paths — the only paths most jobs ever take — touch one line of job
/// state and no shared pool. Only jobs queued BEHIND the head go to the
/// free-list pool, chained into the slot's intrusive FIFO. The loop
/// also stages the next event's memory while finishing the current one
/// (the event heap's top, or the memoryless candidate, names the next
/// departure's server; JIQ names the next arrival's), so the
/// random-access misses overlap event processing instead of serializing
/// in front of it.
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
  /// (completion - now) + queued_work, 0 for an idle server. Only
  /// identity-aware policies read it, and they never run memoryless.
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
    double service_time = 0.0;  ///< memoryless loop: set at departure
  };

  /// Pooled record for jobs waiting behind a server's head job; `next`
  /// chains the per-server FIFO or the free list.
  struct PoolRec {
    Job job;
    std::int32_t next = -1;
  };

  /// One cache line per server: the head (in-service) job inline — valid
  /// iff the server is busy, i.e. its directory level is > 0 — plus the
  /// FIFO links into the pool for any jobs queued behind it, the two
  /// terms of remaining_work (event loop) and the head job's service
  /// start (memoryless loop). queued_work is never reset when the queue
  /// empties: it carries the rounding residue of its += / -= history,
  /// which least-work's exact tie-break reads.
  struct alignas(64) ServerSlot {
    Job head;
    std::int32_t next = -1;    ///< pool slot of the 2nd job, -1 if none
    std::int32_t tail = -1;    ///< pool slot of the last queued job
    double completion = 0.0;   ///< head job's departure time
    double queued_work = 0.0;  ///< service time queued behind the head
    double start = 0.0;        ///< head job's service start
  };
  static_assert(sizeof(ServerSlot) == 64, "one cache line per server");

  std::int32_t acquire_slot();
  void release_slot(std::int32_t slot);
  template <bool Memoryless>
  ClusterAccum run_loop();
  /// Queue `job` at `server`; a job reaching an idle server starts
  /// service and schedules its departure (event loop) or speeds up the
  /// departure clock (memoryless loop).
  template <bool Memoryless>
  void push_job(int server, const Job& job);
  /// Remove `server`'s head job; the next queued job, if any, starts
  /// service and, in the event loop, schedules its departure.
  template <bool Memoryless>
  Job pop_job(int server);
  [[nodiscard]] int busy_servers() const {
    return cfg_.servers - dir_.idle_count();
  }
  /// One uniform_int draw over [0, N).
  int uniform_server();
  /// Memoryless loop: the departing server, uniform among the busy ones.
  int departing_server();
  /// Memoryless loop, after a departure: the next clock and candidate.
  void rearm_departure();

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
  /// mu when the cell runs the memoryless loop, else 0.
  double service_rate_;

  LevelDirectory dir_;
  CalendarQueue calendar_;  ///< event loop: one departure per busy server
  /// Memoryless loop: the next departure time, +inf while all are idle,
  /// and the next departure's candidate server.
  double next_departure_;
  int candidate_ = 0;
  std::vector<ServerSlot> slot_;  ///< per-server head job + FIFO links
  std::vector<PoolRec> pool_;     ///< jobs queued behind a head
  std::int32_t free_head_ = -1;
  double now_ = 0.0;
};

}  // namespace rlb::sim
