// Rack topology of a dispatch cluster (docs/TOPOLOGY.md).
//
// The paper's model is topology-blind: every server is one hop from the
// dispatcher. Real fleets are racked — servers share a top-of-rack
// switch, and dispatching a job outside the arrival's rack costs extra
// (the replicant-opera cluster shape). This struct describes that first
// deviation from the symmetric model: R equal racks and a cross-rack
// penalty, expressed as added latency, a service-capacity factor, or
// both. The paper's bounds are exactly the racks == 1 / zero-penalty
// limit, which the engine reproduces BIT-FOR-BIT (no rack arithmetic,
// no extra RNG draws — tests pin this).
//
// Penalty semantics: each arrival carries a HOME rack, drawn uniformly
// by the engine (one uniform_int draw per arrival, taken right after the
// service-time sample; the test oracle draws it at the same point). A job
// dispatched to a server outside its home rack is served as
//
//   service_time  =  service_time / cross_capacity + cross_latency
//
// applied AFTER any per-server speed scaling: the cross-rack transfer
// both slows the effective service rate (cross_capacity <= 1, think
// remote reads through the ToR uplink) and adds a fixed transfer delay
// (cross_latency, in service-time units) that occupies the server.
// Rack-local dispatch is never penalized.
//
// The home-rack draw is skipped entirely — preserving bit-identity with
// a topology-blind run — unless the run can observe it: racks > 1
// AND (the penalty is non-zero OR the policy is locality-aware).
#pragma once

#include <cmath>

#include "util/require.h"

namespace rlb::sim {

struct Topology {
  int racks = 1;               ///< equal racks; servers % racks == 0
  double cross_latency = 0.0;  ///< added to cross-rack service times
  double cross_capacity = 1.0; ///< cross-rack service-rate factor (<= 1 slows)

  /// Whether cross-rack dispatch costs anything at all.
  [[nodiscard]] bool penalized() const {
    return cross_latency != 0.0 || cross_capacity != 1.0;
  }

  [[nodiscard]] int servers_per_rack(int servers) const {
    return servers / racks;
  }

  /// The cross-rack service-time adjustment (see file comment). Applied
  /// only to jobs whose server lies outside their home rack.
  [[nodiscard]] double penalize(double service_time) const {
    return service_time / cross_capacity + cross_latency;
  }

  void validate(int servers) const {
    RLB_REQUIRE(racks >= 1, "topology needs at least one rack");
    RLB_REQUIRE(servers % racks == 0,
                "servers must divide evenly into racks");
    RLB_REQUIRE(std::isfinite(cross_latency) && cross_latency >= 0.0,
                "cross-rack latency must be finite and non-negative");
    RLB_REQUIRE(std::isfinite(cross_capacity) && cross_capacity > 0.0,
                "cross-rack capacity factor must be finite and positive");
  }
};

}  // namespace rlb::sim
