// The queue-length histogram with O(1) updates and O(1) uniform sampling
// within a level — the state behind the cluster engine
// (sim/compact_cluster.h) and the concrete type the symmetric policies'
// dispatch path (Policy::select_direct) compiles against.
//
// Memory layout: the per-server hot fields — queue length, position in
// the by-level permutation, and the intrusive idle-FIFO links — live in
// ONE packed 16-byte record per server, so the level move an event
// performs touches a single cache line of per-server state instead of
// four parallel arrays. All widths are 32-bit (the fleet size is an
// `int`, so n < 2^31 by construction); at n = 10^6 the whole per-server
// state is 16 MB + 4 MB of permutation instead of the 24 MB of scattered
// `std::vector<int>`s the first version kept. The by-level arrays
// (block starts, block sizes) stay separate: they are indexed by queue
// length, tiny under any stable load, and effectively cache-resident.
//
// The class is `final` and has no virtual functions, so every accessor
// inlines into the policies' dispatch code.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.h"
#include "util/prefetch.h"
#include "util/require.h"

namespace rlb::sim {

/// Servers live in a permutation `by_level_` grouped into contiguous
/// blocks, one block per queue length; moving a server between adjacent
/// levels is a swap-to-boundary plus two counter updates. Level-0 servers
/// are additionally threaded onto an intrusive doubly-linked FIFO in
/// became-idle order (server-index order at time zero): the dispatcher's
/// I-queue that JIQ reads, with O(1) removal from the middle.
class LevelDirectory final {
 public:
  explicit LevelDirectory(int servers);

  [[nodiscard]] int servers() const { return n_; }

  /// Largest queue length currently held by any server (0 when all idle).
  [[nodiscard]] int max_level() const { return max_level_; }

  /// Number of servers with queue length EXACTLY `level`; 0 for levels
  /// above max_level().
  [[nodiscard]] int count_at(int level) const {
    RLB_REQUIRE(level >= 0, "queue-length level must be non-negative");
    return level < static_cast<int>(count_.size()) ? count_[level] : 0;
  }

  /// Number of idle servers, == count_at(0).
  [[nodiscard]] int idle_count() const { return count_[0]; }

  /// The idle server that has been idle the longest, -1 when none. The
  /// I-queue is first-idle-first-out — servers enter at the tail the
  /// moment their queue empties and leave when a job is dispatched to
  /// them — and holds the servers in index order at time zero.
  [[nodiscard]] int idle_head() const { return idle_head_; }

  /// The idle server queued right behind idle `server` in the I-queue,
  /// -1 at the tail. Walking idle_head() then idle_next() visits the
  /// idle servers first-idle-first-out.
  [[nodiscard]] int idle_next(int server) const {
    return rec_[server].idle_next;
  }

  [[nodiscard]] int level_of(int server) const { return rec_[server].level; }

  /// Uniform among the count_at(level) servers at `level` (must be
  /// non-empty); exactly one uniform_int draw.
  [[nodiscard]] int sample_at_level(int level, Rng& rng) const {
    const int c = count_at(level);
    RLB_REQUIRE(c > 0, "sample_at_level on an empty level");
    return by_level_[offset_[level] +
                     static_cast<std::int32_t>(
                         rng.uniform_int(static_cast<std::uint64_t>(c)))];
  }

  /// Uniform among the busy servers, those at level >= 1 (there must be
  /// one); exactly one uniform_int draw. Level 0's block starts at slot
  /// 0, so the busy servers fill the slots from idle_count() on.
  [[nodiscard]] int sample_busy(Rng& rng) const {
    const std::int32_t busy = n_ - count_[0];
    RLB_REQUIRE(busy > 0, "sample_busy with every server idle");
    return by_level_[count_[0] +
                     static_cast<std::int32_t>(
                         rng.uniform_int(static_cast<std::uint64_t>(busy)))];
  }

  /// The longest-idle server of the rack [begin, end), -1 when that rack
  /// has none; O(1). Requires arm_racks, and the slice must be exactly
  /// one armed rack. The per-rack FIFOs are maintained by the same
  /// idle_remove/idle_append calls as the global one, so their order is
  /// the global I-queue order restricted to the rack — first-idle-first-
  /// out, server-index order at time zero.
  [[nodiscard]] int rack_idle_head(int begin, int end) const {
    RLB_REQUIRE(racks_ != 0, "rack_idle_head requires arm_racks");
    RLB_REQUIRE(begin % per_rack_ == 0 && end - begin == per_rack_,
                "rack_idle_head slice must be one armed rack");
    return rack_head_[begin / per_rack_];
  }

  /// Thread the level-0 servers onto one idle FIFO per rack (side arrays;
  /// the packed ServerRec stays 16 bytes). Must be called in the initial
  /// all-idle state, before any increment — the per-rack FIFOs then track
  /// every idle transition. The engine arms this only for locality-aware
  /// policies; blind runs never pay the extra FIFO maintenance.
  void arm_racks(int racks);

  /// Rack count armed via arm_racks, 0 when unarmed.
  [[nodiscard]] int racks() const { return racks_; }

  /// The i-th server of the level's block, 0 <= i < count_at(level).
  /// Block order is an implementation detail (it changes as servers move
  /// between levels); exposed for tests.
  [[nodiscard]] int at(int level, int i) const;

  /// Hint that `server`'s packed record is about to be read (polling
  /// policies issue this for every sampled server before the tie-break
  /// scan, so the d record loads overlap instead of serializing).
  void prefetch_server(int server) const { util::prefetch(&rec_[server]); }

  /// One job joined `server`: its level rises by one. Removes the server
  /// from the idle FIFO when it leaves level 0.
  void increment(int server) {
    ServerRec& r = rec_[server];
    const std::int32_t k = r.level;
    if (k == 0) idle_remove(server);
    ensure_level(k + 1);
    // Swap the server to its block's last slot; that slot then becomes
    // the first slot of block k+1 by moving the boundary one to the left.
    swap_slots(r.pos, offset_[k] + count_[k] - 1);
    --count_[k];
    --offset_[k + 1];
    ++count_[k + 1];
    r.level = k + 1;
    if (k + 1 > max_level_) max_level_ = k + 1;
  }

  /// One job departed `server`: its level drops by one (must be >= 1).
  /// Appends the server to the idle FIFO tail when it reaches level 0.
  void decrement(int server) {
    ServerRec& r = rec_[server];
    const std::int32_t k = r.level;
    RLB_REQUIRE(k >= 1, "decrement on an idle server");
    // Mirror image: swap to the block's first slot, move the boundary one
    // to the right, and the slot joins the end of block k-1.
    swap_slots(r.pos, offset_[k]);
    --count_[k];
    ++offset_[k];
    ++count_[k - 1];
    r.level = k - 1;
    if (k == 1) idle_append(server);
    while (max_level_ > 0 && count_[max_level_] == 0) --max_level_;
  }

 private:
  /// The per-server hot state, fused so one event's level move touches
  /// one cache line of per-server data.
  struct ServerRec {
    std::int32_t level = 0;      ///< queue length
    std::int32_t pos = 0;        ///< slot in by_level_
    std::int32_t idle_next = -1; ///< intrusive idle-FIFO links
    std::int32_t idle_prev = -1;
  };
  static_assert(sizeof(ServerRec) == 16, "four records per cache line");

  void ensure_level(int level) {
    while (static_cast<int>(count_.size()) <= level) {
      // A new trailing (empty) block begins where the last one ends.
      offset_.push_back(offset_.back() + count_.back());
      count_.push_back(0);
    }
  }

  void swap_slots(std::int32_t a, std::int32_t b) {
    if (a == b) return;
    const std::int32_t sa = by_level_[a];
    const std::int32_t sb = by_level_[b];
    by_level_[a] = sb;
    by_level_[b] = sa;
    rec_[sb].pos = a;
    rec_[sa].pos = b;
  }

  void rack_idle_remove(int server) {
    const int r = server / per_rack_;
    const std::int32_t nx = rack_next_[server];
    const std::int32_t pv = rack_prev_[server];
    if (pv >= 0)
      rack_next_[pv] = nx;
    else
      rack_head_[r] = nx;
    if (nx >= 0)
      rack_prev_[nx] = pv;
    else
      rack_tail_[r] = pv;
    rack_next_[server] = -1;
    rack_prev_[server] = -1;
  }

  void rack_idle_append(int server) {
    const int r = server / per_rack_;
    rack_prev_[server] = rack_tail_[r];
    rack_next_[server] = -1;
    if (rack_tail_[r] >= 0)
      rack_next_[rack_tail_[r]] = server;
    else
      rack_head_[r] = server;
    rack_tail_[r] = server;
  }

  void idle_remove(int server) {
    if (racks_ != 0) rack_idle_remove(server);
    ServerRec& r = rec_[server];
    const std::int32_t nx = r.idle_next;
    const std::int32_t pv = r.idle_prev;
    if (pv >= 0)
      rec_[pv].idle_next = nx;
    else
      idle_head_ = nx;
    if (nx >= 0)
      rec_[nx].idle_prev = pv;
    else
      idle_tail_ = pv;
    r.idle_next = -1;
    r.idle_prev = -1;
  }

  void idle_append(int server) {
    if (racks_ != 0) rack_idle_append(server);
    ServerRec& r = rec_[server];
    r.idle_prev = idle_tail_;
    r.idle_next = -1;
    if (idle_tail_ >= 0)
      rec_[idle_tail_].idle_next = server;
    else
      idle_head_ = server;
    idle_tail_ = server;
  }

  int n_;
  int max_level_ = 0;
  std::vector<ServerRec> rec_;          ///< packed per-server hot state
  std::vector<std::int32_t> by_level_;  ///< servers grouped by level
  std::vector<std::int32_t> count_;     ///< block sizes per level
  /// Block starts; invariant: offset_[k+1] == offset_[k] + count_[k].
  std::vector<std::int32_t> offset_;
  std::int32_t idle_head_ = -1, idle_tail_ = -1;
  /// Per-rack idle FIFOs (arm_racks). Side arrays rather than ServerRec
  /// fields: the packed record must stay 16 bytes (four per cache line —
  /// perf/'s fleet_1m workload times the engine's event rate), and blind
  /// runs never allocate or touch any of this.
  int racks_ = 0;      ///< 0 = unarmed
  int per_rack_ = 0;
  std::vector<std::int32_t> rack_next_, rack_prev_;  ///< per server
  std::vector<std::int32_t> rack_head_, rack_tail_;  ///< per rack
};

}  // namespace rlb::sim
