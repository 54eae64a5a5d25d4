// Raw per-replica statistics of one cluster-DES replica, filled by the
// cluster engine (compact_cluster.*) and, in the tests, by its per-server
// reference oracle (tests/reference_cluster_engine.h). Replica
// accumulators are merged in replica-index order before any derived
// quantity (utilization, quantiles, CIs) is computed, which is what keeps
// results bit-identical for every thread budget.
#pragma once

#include <cstdint>
#include <optional>

#include "sim/stats.h"
#include "sim/windowed_stats.h"

namespace rlb::sim {

struct ClusterAccum {
  StreamingMoments sojourn_stats;
  StreamingMoments wait_stats;
  BatchMeans sojourn_ci{1};
  ReservoirQuantiles sojourn_quantiles{1};
  double area_jobs = 0.0;  // integral of total jobs over measured window
  double busy_area = 0.0;  // integral of busy servers
  double window = 0.0;     // measured-window length
  double sim_time = 0.0;

  // Optional time-windowed recorders (cfg.window_width > 0) and the SLA
  // violation counter (cfg.sla_threshold > 0); both default off so a
  // plain ClusterAccum reproduces the pre-windowing layout exactly.
  std::optional<WindowedMoments> windowed_sojourn;
  std::optional<WindowedQuantiles> windowed_p99;
  std::uint64_t sla_violations = 0;
  double sla_threshold = 0.0;  // copied from the config by the engine

  /// Arm the windowed recorders; the engine calls this before its event
  /// loop when cfg.window_width > 0.
  void enable_windows(double width, std::size_t capacity,
                      std::uint64_t seed) {
    windowed_sojourn.emplace(width);
    windowed_p99.emplace(width, capacity, seed);
  }

  /// Record one departure at absolute replica time `now`. The engine and
  /// the test oracle route every departure through this single helper —
  /// any change to what a departure records must be made here, which is
  /// what keeps the two event loops statement-identical in their
  /// statistics. `measured` is the engine's done.index >= warmup test;
  /// windowed recording deliberately covers warmup departures too (the
  /// windows describe the transient), while everything else — including
  /// SLA counting — sees measured jobs only.
  void record_departure(double now, double arrival_time, double service_time,
                        bool measured) {
    const double sojourn = now - arrival_time;
    if (measured) {
      sojourn_stats.add(sojourn);
      wait_stats.add(sojourn - service_time);
      sojourn_ci.add(sojourn);
      sojourn_quantiles.add(sojourn);
      if (sla_threshold > 0.0 && sojourn > sla_threshold) ++sla_violations;
    }
    if (windowed_sojourn) {
      windowed_sojourn->add(now, sojourn);
      windowed_p99->add(now, sojourn);
    }
  }

  void merge(const ClusterAccum& other) {
    sojourn_stats.merge(other.sojourn_stats);
    wait_stats.merge(other.wait_stats);
    sojourn_ci.merge(other.sojourn_ci);
    sojourn_quantiles.merge(other.sojourn_quantiles);
    area_jobs += other.area_jobs;
    busy_area += other.busy_area;
    window += other.window;
    sim_time += other.sim_time;
    if (windowed_sojourn && other.windowed_sojourn) {
      windowed_sojourn->merge(*other.windowed_sojourn);
      windowed_p99->merge(*other.windowed_p99);
    }
    sla_violations += other.sla_violations;
  }
};

}  // namespace rlb::sim
