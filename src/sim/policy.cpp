#include "sim/policy.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "sim/level_directory.h"
#include "util/require.h"

namespace rlb::sim {

namespace {

/// Shortest queue among the polled servers, ties broken uniformly
/// (reservoir style: one uniform_int draw per tie encountered). Shared by
/// SqdPolicy and JbtPolicy's fallback so their tie-breaking —
/// and RNG consumption — can never diverge. Templated on the
/// queue-length accessor so the ClusterState and LevelDirectory paths run
/// the exact same draws (the bit-identity contract between select and
/// select_direct).
template <typename LenFn>
int shortest_polled_by(const std::vector<int>& polled, Rng& rng,
                       LenFn&& len_of) {
  int best = polled[0];
  int best_len = len_of(best);
  int ties = 1;
  for (std::size_t i = 1; i < polled.size(); ++i) {
    const int s = polled[i];
    const int len = len_of(s);
    if (len < best_len) {
      best = s;
      best_len = len;
      ties = 1;
    } else if (len == best_len) {
      ++ties;
      if (rng.uniform_int(ties) == 0) best = s;
    }
  }
  return best;
}

int shortest_polled(const ClusterState& cluster,
                    const std::vector<int>& polled, Rng& rng) {
  return shortest_polled_by(
      polled, rng, [&](int s) { return cluster.queue_length(s); });
}

/// JSQ's full scan with the same reservoir tie-breaking, templated the
/// same way.
template <typename LenFn>
int jsq_scan_by(int servers, Rng& rng, LenFn&& len_of) {
  int best = 0;
  int best_len = len_of(0);
  int ties = 1;
  for (int s = 1; s < servers; ++s) {
    const int len = len_of(s);
    if (len < best_len) {
      best = s;
      best_len = len;
      ties = 1;
    } else if (len == best_len) {
      ++ties;
      if (rng.uniform_int(ties) == 0) best = s;
    }
  }
  return best;
}

/// Prefetch the packed records of the polled servers before the
/// tie-break scan reads them, so the d loads overlap.
void prefetch_polled(const LevelDirectory& dir,
                     const std::vector<int>& polled) {
  for (int s : polled) dir.prefetch_server(s);
}

/// SQ(d)'s dispatch over the directory: poll, prefetch, shortest with
/// reservoir ties.
int sqd_dispatch(const LevelDirectory& dir, DistinctSampler& sampler, int d,
                 std::vector<int>& polled, Rng& rng) {
  sampler.sample(d, rng, polled);
  prefetch_polled(dir, polled);
  return shortest_polled_by(polled, rng,
                            [&](int s) { return dir.level_of(s); });
}

/// The minimum occupied queue length: 0 when any server is idle, else the
/// smallest level with a nonzero count. O(1) expected — queue lengths are
/// tiny under any stable load.
int min_occupied_level(const LevelDirectory& dir) {
  if (dir.idle_count() > 0) return 0;
  for (int k = 1; k <= dir.max_level(); ++k)
    if (dir.count_at(k) > 0) return k;
  return dir.max_level();
}

/// JBT(d)'s dispatch over the directory; see sqd_dispatch.
int jbt_dispatch(const LevelDirectory& dir, DistinctSampler& sampler, int d,
                 int threshold, std::vector<int>& polled,
                 std::vector<int>& below, Rng& rng) {
  sampler.sample(d, rng, polled);
  prefetch_polled(dir, polled);
  below.clear();
  for (int s : polled)
    if (dir.level_of(s) < threshold) below.push_back(s);
  if (!below.empty()) return below[rng.uniform_int(below.size())];
  return shortest_polled_by(polled, rng,
                            [&](int s) { return dir.level_of(s); });
}

}  // namespace

int Policy::select_direct(const LevelDirectory&, Rng&) {
  RLB_ASSERT(false, "policy '" + name() +
                        "' has no histogram dispatch (symmetric() is "
                        "false); the engine must call select");
  return -1;
}

int ClusterState::idle_servers() const {
  int idle = 0;
  for (int s = 0; s < servers(); ++s)
    if (queue_length(s) == 0) ++idle;
  return idle;
}

int ClusterState::idle_server(int i) const {
  for (int s = 0; s < servers(); ++s) {
    if (queue_length(s) != 0) continue;
    if (i == 0) return s;
    --i;
  }
  RLB_REQUIRE(false, "idle_server index out of range");
  return -1;
}

int ClusterState::rack_idle_head(int begin, int end) const {
  // Walk the idle view in its own order, so an engine exposing true
  // became-idle FIFO order (the cluster engine's I-queue) yields the rack's
  // longest-idle server, and the default index-order scan stays the
  // per-rack analogue of idle_server(0).
  const int idle = idle_servers();
  for (int i = 0; i < idle; ++i) {
    const int s = idle_server(i);
    if (s >= begin && s < end) return s;
  }
  return -1;
}

SqdPolicy::SqdPolicy(int n, int d) : d_(d), sampler_(n) {
  // d > N clamps to a full poll (the sampler enumerates everyone), so
  // only non-positive d is a configuration error.
  RLB_REQUIRE(d >= 1, "need d >= 1");
}

int SqdPolicy::select(const ClusterState& cluster, Rng& rng) {
  sampler_.sample(d_, rng, polled_);
  return shortest_polled(cluster, polled_, rng);
}

int SqdPolicy::select_direct(const LevelDirectory& dir, Rng& rng) {
  return sqd_dispatch(dir, sampler_, d_, polled_, rng);
}

std::string SqdPolicy::name() const { return "sq(" + std::to_string(d_) + ")"; }

int JsqPolicy::select(const ClusterState& cluster, Rng& rng) {
  return jsq_scan_by(cluster.servers(), rng,
                     [&](int s) { return cluster.queue_length(s); });
}

int JsqPolicy::select_direct(const LevelDirectory& dir, Rng& rng) {
  return jsq_scan_by(dir.servers(), rng,
                     [&](int s) { return dir.level_of(s); });
}

int HistogramJsqPolicy::select(const ClusterState& cluster, Rng& rng) {
  // Per-server path: same distribution as select_direct (uniform among
  // the servers at the minimum queue length) computed by scan — min
  // level, count of minima, then the j-th minimum with one draw.
  int min_len = cluster.queue_length(0);
  for (int s = 1; s < cluster.servers(); ++s)
    min_len = std::min(min_len, cluster.queue_length(s));
  int minima = 0;
  for (int s = 0; s < cluster.servers(); ++s)
    if (cluster.queue_length(s) == min_len) ++minima;
  auto j = rng.uniform_int(static_cast<std::uint64_t>(minima));
  for (int s = 0; s < cluster.servers(); ++s) {
    if (cluster.queue_length(s) != min_len) continue;
    if (j == 0) return s;
    --j;
  }
  RLB_ASSERT(false, "histogram-jsq scan lost its minimum");
  return -1;
}

int HistogramJsqPolicy::select_direct(const LevelDirectory& dir, Rng& rng) {
  return dir.sample_at_level(min_occupied_level(dir), rng);
}

int RoundRobinPolicy::select(const ClusterState& cluster, Rng&) {
  const int s = next_;
  next_ = (next_ + 1) % cluster.servers();
  return s;
}

JiqPolicy::JiqPolicy(int n) : fallback_(n, 1) {}

int JiqPolicy::select(const ClusterState& cluster, Rng& rng) {
  if (cluster.idle_servers() > 0) return cluster.idle_server(0);
  return fallback_.select(cluster, rng);
}

int JiqPolicy::select_direct(const LevelDirectory& dir, Rng& rng) {
  if (dir.idle_count() > 0) return dir.idle_head();
  return fallback_.select_direct(dir, rng);
}

std::string JiqPolicy::name() const {
  return "jiq/" + fallback_.name();
}

JbtPolicy::JbtPolicy(int n, int d, int threshold)
    : d_(d), threshold_(threshold), sampler_(n) {
  // As in SqdPolicy: d > N is a full poll, not an error.
  RLB_REQUIRE(d >= 1, "need d >= 1");
  RLB_REQUIRE(threshold >= 0, "threshold must be non-negative");
}

int JbtPolicy::select(const ClusterState& cluster, Rng& rng) {
  sampler_.sample(d_, rng, polled_);
  below_.clear();
  for (int s : polled_)
    if (cluster.queue_length(s) < threshold_) below_.push_back(s);
  if (!below_.empty())
    return below_[rng.uniform_int(below_.size())];
  return shortest_polled(cluster, polled_, rng);
}

int JbtPolicy::select_direct(const LevelDirectory& dir, Rng& rng) {
  return jbt_dispatch(dir, sampler_, d_, threshold_, polled_, below_, rng);
}

std::string JbtPolicy::name() const {
  return "jbt(" + std::to_string(d_) + ",t=" + std::to_string(threshold_) +
         ")";
}

RackLocalSqdPolicy::RackLocalSqdPolicy(int n, int racks, int d,
                                       int spill_threshold)
    : n_(n),
      racks_(racks),
      per_rack_(racks >= 1 ? n / racks : 0),
      d_(d),
      spill_threshold_(spill_threshold),
      local_sampler_(racks >= 1 && n % racks == 0 ? n / racks : 1),
      remote_sampler_(std::max(1, n - per_rack_)) {
  RLB_REQUIRE(racks >= 1, "need at least one rack");
  RLB_REQUIRE(n % racks == 0, "servers must divide evenly into racks");
  RLB_REQUIRE(d >= 1, "need d >= 1");
  RLB_REQUIRE(spill_threshold >= 0, "spill threshold must be non-negative");
}

/// Rack-local SQ(d) over any queue-length accessor: poll the home rack,
/// spill to a cross-rack poll only when every local polled queue is at
/// least spill_threshold_ long, and only move for a STRICT improvement.
/// One template so the ClusterState and directory paths consume
/// identical RNG draws — the bit-identity contract extends to the rack
/// variants.
template <typename LenFn>
int RackLocalSqdPolicy::dispatch(int home_rack, Rng& rng, LenFn&& len_of) {
  const int base = home_rack * per_rack_;
  local_sampler_.sample(d_, rng, polled_);  // clamps to the rack size
  for (int& s : polled_) s += base;
  const int local_best = shortest_polled_by(polled_, rng, len_of);
  const int local_len = len_of(local_best);
  if (racks_ == 1 || spill_threshold_ == 0 || local_len < spill_threshold_)
    return local_best;
  // Saturated locally: poll the other racks. Remote sampler indices run
  // over [0, n - per_rack); skip the home rack's block when mapping back
  // to server ids.
  remote_sampler_.sample(d_, rng, polled_);  // clamps to n - per_rack
  for (int& s : polled_) s = s >= base ? s + per_rack_ : s;
  const int remote_best = shortest_polled_by(polled_, rng, len_of);
  return len_of(remote_best) < local_len ? remote_best : local_best;
}

int RackLocalSqdPolicy::select(const ClusterState& cluster, Rng& rng) {
  return select(cluster, 0, rng);
}

int RackLocalSqdPolicy::select(const ClusterState& cluster, int home_rack,
                               Rng& rng) {
  return dispatch(home_rack, rng,
                  [&](int s) { return cluster.queue_length(s); });
}

int RackLocalSqdPolicy::select_direct(const LevelDirectory& dir, Rng& rng) {
  return select_direct(dir, 0, rng);
}

int RackLocalSqdPolicy::select_direct(const LevelDirectory& dir,
                                      int home_rack, Rng& rng) {
  return dispatch(home_rack, rng, [&](int s) { return dir.level_of(s); });
}

std::string RackLocalSqdPolicy::name() const {
  std::string s = "rack-sq(" + std::to_string(d_) + ")";
  if (spill_threshold_ == 0)
    s += "/local";
  else if (spill_threshold_ != 1)
    s += "/spill=" + std::to_string(spill_threshold_);
  return s;
}

RackJiqPolicy::RackJiqPolicy(int n, int racks)
    : racks_(racks),
      per_rack_(racks >= 1 ? n / racks : 0),
      fallback_(n, racks, 1) {}

int RackJiqPolicy::select(const ClusterState& cluster, Rng& rng) {
  return select(cluster, 0, rng);
}

int RackJiqPolicy::select(const ClusterState& cluster, int home_rack,
                          Rng& rng) {
  const int base = home_rack * per_rack_;
  const int local = cluster.rack_idle_head(base, base + per_rack_);
  if (local >= 0) return local;
  // Steal the globally longest-idle server (necessarily cross-rack: the
  // home rack has no idle server) — the first-idle-first-out contract
  // holds across the steal on both dispatch paths.
  if (cluster.idle_servers() > 0) return cluster.idle_server(0);
  return fallback_.select(cluster, home_rack, rng);
}

int RackJiqPolicy::select_direct(const LevelDirectory& dir, Rng& rng) {
  return select_direct(dir, 0, rng);
}

int RackJiqPolicy::select_direct(const LevelDirectory& dir, int home_rack,
                                 Rng& rng) {
  const int base = home_rack * per_rack_;
  const int local = dir.rack_idle_head(base, base + per_rack_);
  if (local >= 0) return local;
  if (dir.idle_count() > 0) return dir.idle_head();
  return fallback_.select_direct(dir, home_rack, rng);
}

std::string RackJiqPolicy::name() const {
  return "rack-jiq/" + fallback_.name();
}

int LeastWorkLeftPolicy::select(const ClusterState& cluster, Rng& rng) {
  int best = 0;
  double best_work = cluster.remaining_work(0);
  int ties = 1;
  for (int s = 1; s < cluster.servers(); ++s) {
    const double w = cluster.remaining_work(s);
    if (w < best_work) {
      best = s;
      best_work = w;
      ties = 1;
    } else if (w == best_work) {
      ++ties;
      if (rng.uniform_int(ties) == 0) best = s;
    }
  }
  return best;
}

}  // namespace rlb::sim
