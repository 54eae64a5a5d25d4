// Dispatch policies for the cluster simulator.
//
// SqdPolicy(d) is the paper's policy family: d = 1 is uniform random
// routing, d = N is JSQ. RoundRobin and LeastWorkLeft are classic
// comparators used in the example scenarios; JiqPolicy (join-idle-queue,
// Lu et al. 2011) and JbtPolicy (join-below-threshold-d) are the
// low-feedback alternatives SQ(d) competes with in the comparison
// scenarios.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/rng.h"

namespace rlb::sim {

class LevelDirectory;  // sim/level_directory.h — the engine's histogram

/// Read-only per-server view of the cluster, for identity-aware policies
/// (round-robin, least-work-left) and test doubles.
class ClusterState {
 public:
  virtual ~ClusterState() = default;
  [[nodiscard]] virtual int servers() const = 0;
  [[nodiscard]] virtual int queue_length(int server) const = 0;
  [[nodiscard]] virtual double remaining_work(int server) const = 0;

  /// Number of currently idle (empty-queue) servers. The default scans
  /// queue_length; simulators that track the dispatcher's I-queue
  /// override it.
  [[nodiscard]] virtual int idle_servers() const;

  /// The i-th idle server, 0 <= i < idle_servers(). Index 0 is the head
  /// of the dispatcher's idle queue — first-idle-first-out where the
  /// simulator tracks becoming-idle order (the cluster engine does),
  /// server-index order in the default scan.
  [[nodiscard]] virtual int idle_server(int i) const;

  /// The longest-idle server with index in [begin, end) — a rack's slice
  /// of the dispatcher's I-queue — or -1 when no server in the range is
  /// idle. The default walks the idle view in its order, so it inherits
  /// whatever ordering idle_server provides (true first-idle-first-out in
  /// the cluster engine, index order in the default scan). Per-rack JIQ
  /// dispatches through this.
  [[nodiscard]] virtual int rack_idle_head(int begin, int end) const;
};

class Policy {
 public:
  virtual ~Policy() = default;
  /// Choose the server for an arriving job.
  [[nodiscard]] virtual int select(const ClusterState& cluster, Rng& rng) = 0;
  [[nodiscard]] virtual std::string name() const = 0;
  virtual void reset() {}
  /// An independent copy for parallel simulation replicas (each replica
  /// must own its mutable policy state).
  [[nodiscard]] virtual std::unique_ptr<Policy> clone() const = 0;

  /// Capability flag: true when the policy's decision depends on the
  /// cluster only through exchangeable queue-length information, i.e. it
  /// implements select_direct. The engine dispatches symmetric policies
  /// through select_direct and the rest (round-robin, least-work-left)
  /// through select on its per-server ClusterState view.
  [[nodiscard]] virtual bool symmetric() const { return false; }

  /// Choose the server for an arriving job from the engine's queue-length
  /// histogram. Only called when symmetric() is true; the default throws.
  /// The directory's accessors inline (LevelDirectory is final), so the
  /// per-event path pays ONE virtual call (this one). For the paper's
  /// policies the implementation consumes the SAME random draws as
  /// select() on an identical cluster, so both paths reach the same
  /// server (the oracle equivalence tests pin this).
  [[nodiscard]] virtual int select_direct(const LevelDirectory& dir,
                                          Rng& rng);

  /// Layout hint, queried once per run, never per event: true when the
  /// policy dispatches to the idle-FIFO head whenever one exists (JIQ).
  /// The engine stages memory between events and uses it to prefetch the
  /// head server's state before the next arrival is even drawn; it never
  /// affects which server is selected.
  [[nodiscard]] virtual bool dispatches_to_idle_head() const { return false; }

  /// Capability flag: true when the policy's decision depends on the
  /// arriving job's home rack (docs/TOPOLOGY.md). The engine arms the
  /// directory's per-rack idle FIFOs for such a policy, and under a
  /// racked topology draws one home rack per arrival and routes the
  /// dispatch through the rack-aware select overloads below.
  [[nodiscard]] virtual bool locality_aware() const { return false; }

  /// The rack count this policy was built for, 0 when the policy is
  /// topology-blind and runs under any topology. Config validation
  /// rejects a mismatch with ClusterConfig::topology.racks, which would
  /// otherwise silently corrupt the policy's rack arithmetic.
  [[nodiscard]] virtual int required_racks() const { return 0; }

  /// Rack-aware select variants, one per dispatch path. The engine calls
  /// these (instead of the overloads above) whenever the run's topology is
  /// observable — racks > 1 with a penalty or a locality-aware policy —
  /// passing the arriving job's home rack. The defaults forward to the
  /// topology-blind overloads, so blind policies under a penalized
  /// topology dispatch exactly as they always did (and simply pay the
  /// penalty when they land cross-rack).
  [[nodiscard]] virtual int select(const ClusterState& cluster, int home_rack,
                                   Rng& rng) {
    (void)home_rack;
    return select(cluster, rng);
  }
  [[nodiscard]] virtual int select_direct(const LevelDirectory& dir,
                                          int home_rack, Rng& rng) {
    (void)home_rack;
    return select_direct(dir, rng);
  }
};

/// SQ(d): poll d distinct servers uniformly, join the shortest polled queue
/// (ties resolved uniformly among the polled minima).
class SqdPolicy final : public Policy {
 public:
  SqdPolicy(int n, int d);
  int select(const ClusterState& cluster, Rng& rng) override;
  [[nodiscard]] bool symmetric() const override { return true; }
  int select_direct(const LevelDirectory& dir, Rng& rng) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<Policy> clone() const override {
    return std::make_unique<SqdPolicy>(*this);
  }

 private:
  int d_;
  DistinctSampler sampler_;
  std::vector<int> polled_;
};

/// JSQ = SQ(N), implemented with a full scan (no sampling overhead).
/// select_direct runs the same scan over levels — bit-identical with
/// select but still O(N) per arrival (JSQ inherently consumes full-fleet
/// information). For O(1) JSQ dispatch at fleet scale, use
/// HistogramJsqPolicy.
class JsqPolicy final : public Policy {
 public:
  int select(const ClusterState& cluster, Rng& rng) override;
  [[nodiscard]] bool symmetric() const override { return true; }
  int select_direct(const LevelDirectory& dir, Rng& rng) override;
  [[nodiscard]] std::string name() const override { return "jsq"; }
  [[nodiscard]] std::unique_ptr<Policy> clone() const override {
    return std::make_unique<JsqPolicy>(*this);
  }
};

/// JSQ through the histogram: join a uniformly random server among those
/// at the minimum occupied queue length, in O(1) via
/// LevelDirectory::sample_at_level. The selected server is
/// distributed EXACTLY like JsqPolicy's scan (uniform among the minima),
/// but with one RNG draw instead of one per tie — so the two are
/// statistically interchangeable while their sample paths differ. This is
/// the policy that makes JSQ feasible at N = 10^6 in fleet_scaling.
class HistogramJsqPolicy final : public Policy {
 public:
  int select(const ClusterState& cluster, Rng& rng) override;
  [[nodiscard]] bool symmetric() const override { return true; }
  int select_direct(const LevelDirectory& dir, Rng& rng) override;
  [[nodiscard]] std::string name() const override { return "jsq-h"; }
  [[nodiscard]] std::unique_ptr<Policy> clone() const override {
    return std::make_unique<HistogramJsqPolicy>(*this);
  }
};

class RoundRobinPolicy final : public Policy {
 public:
  int select(const ClusterState& cluster, Rng& rng) override;
  [[nodiscard]] std::string name() const override { return "round-robin"; }
  void reset() override { next_ = 0; }
  [[nodiscard]] std::unique_ptr<Policy> clone() const override {
    return std::make_unique<RoundRobinPolicy>(*this);
  }

 private:
  int next_ = 0;
};

/// Join-idle-queue (Lu et al.): the dispatcher keeps a queue of servers
/// that reported going idle and sends each arrival to its head; when no
/// server is idle the job is routed uniformly at random (the classic JIQ
/// fallback, SQ(1)). Near-zero feedback per job, JSQ-like delay at low
/// and moderate load.
class JiqPolicy final : public Policy {
 public:
  explicit JiqPolicy(int n);
  int select(const ClusterState& cluster, Rng& rng) override;
  [[nodiscard]] bool symmetric() const override { return true; }
  int select_direct(const LevelDirectory& dir, Rng& rng) override;
  [[nodiscard]] bool dispatches_to_idle_head() const override { return true; }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<Policy> clone() const override {
    return std::make_unique<JiqPolicy>(*this);
  }

 private:
  SqdPolicy fallback_;
};

/// Join-below-threshold-d: poll d distinct servers and join a uniformly
/// random polled server whose queue length is strictly below `threshold`
/// (JBT needs only a below/above bit per server, so candidates are
/// indistinguishable). When no polled server qualifies, fall back to the
/// shortest polled queue, so threshold = 0 is SQ(d).
class JbtPolicy final : public Policy {
 public:
  JbtPolicy(int n, int d, int threshold);
  int select(const ClusterState& cluster, Rng& rng) override;
  [[nodiscard]] bool symmetric() const override { return true; }
  int select_direct(const LevelDirectory& dir, Rng& rng) override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<Policy> clone() const override {
    return std::make_unique<JbtPolicy>(*this);
  }

 private:
  int d_;
  int threshold_;
  DistinctSampler sampler_;
  std::vector<int> polled_;
  std::vector<int> below_;
};

/// Rack-local SQ(d) (docs/TOPOLOGY.md): poll up to d distinct servers in
/// the arriving job's home rack and join the shortest polled local queue
/// — unless the local pool is saturated (every local polled queue is at
/// least `spill_threshold` long), in which case the policy polls up to d
/// distinct servers OUTSIDE the home rack and joins the remote best only
/// when it is STRICTLY shorter than the local best (a tie never pays the
/// cross-rack penalty). spill_threshold == 0 disables spilling entirely:
/// the policy stays rack-local at any load, making each rack an
/// independent SQ(d) system of N/racks servers — the exact-solver
/// cross-check configuration of the rack_locality scenario.
///
/// Poll sizes clamp to the pool: d > servers-per-rack polls the whole
/// rack, d > N - servers-per-rack polls every remote server. With
/// racks == 1 the policy degenerates to plain SQ(d) (the home rack is
/// the whole cluster and the remote pool is empty).
class RackLocalSqdPolicy final : public Policy {
 public:
  RackLocalSqdPolicy(int n, int racks, int d, int spill_threshold = 1);
  int select(const ClusterState& cluster, Rng& rng) override;
  int select(const ClusterState& cluster, int home_rack, Rng& rng) override;
  [[nodiscard]] bool symmetric() const override { return true; }
  int select_direct(const LevelDirectory& dir, Rng& rng) override;
  int select_direct(const LevelDirectory& dir, int home_rack,
                    Rng& rng) override;
  [[nodiscard]] bool locality_aware() const override { return true; }
  [[nodiscard]] int required_racks() const override { return racks_; }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<Policy> clone() const override {
    return std::make_unique<RackLocalSqdPolicy>(*this);
  }

 private:
  template <typename LenFn>
  int dispatch(int home_rack, Rng& rng, LenFn&& len_of);

  int n_;
  int racks_;
  int per_rack_;
  int d_;
  int spill_threshold_;
  DistinctSampler local_sampler_;   ///< over one rack's servers
  DistinctSampler remote_sampler_;  ///< over the other racks' servers
  std::vector<int> polled_;
};

/// Per-rack join-idle-queue (docs/TOPOLOGY.md): the dispatcher keeps one
/// idle FIFO per rack and sends each arrival to its HOME rack's head.
/// When the home rack has no idle server the policy STEALS the
/// longest-idle server anywhere — the global I-queue head, preserving
/// the first-idle-first-out contract across the steal (both dispatch
/// paths agree on the steal order bit-for-bit; the oracle audit test pins
/// it). When no server in the cluster is idle at all, the arrival falls
/// back to rack-local SQ(1) polling with the default spill threshold.
///
/// dispatches_to_idle_head() stays false: the dispatch target is the
/// home rack's head, not the global head, so the engine's idle-head
/// prefetch hint would stage the wrong server.
class RackJiqPolicy final : public Policy {
 public:
  RackJiqPolicy(int n, int racks);
  int select(const ClusterState& cluster, Rng& rng) override;
  int select(const ClusterState& cluster, int home_rack, Rng& rng) override;
  [[nodiscard]] bool symmetric() const override { return true; }
  int select_direct(const LevelDirectory& dir, Rng& rng) override;
  int select_direct(const LevelDirectory& dir, int home_rack,
                    Rng& rng) override;
  [[nodiscard]] bool locality_aware() const override { return true; }
  [[nodiscard]] int required_racks() const override { return racks_; }
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<Policy> clone() const override {
    return std::make_unique<RackJiqPolicy>(*this);
  }

 private:
  int racks_;
  int per_rack_;
  RackLocalSqdPolicy fallback_;
};

/// Joins the server with the least remaining work (an idealized policy that
/// needs full workload information).
class LeastWorkLeftPolicy final : public Policy {
 public:
  int select(const ClusterState& cluster, Rng& rng) override;
  [[nodiscard]] std::string name() const override { return "least-work"; }
  [[nodiscard]] std::unique_ptr<Policy> clone() const override {
    return std::make_unique<LeastWorkLeftPolicy>(*this);
  }
};

}  // namespace rlb::sim
