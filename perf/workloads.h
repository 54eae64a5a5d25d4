// The benchmark's four workloads: fixed offline batches of cells built
// from a seed, each cell one call (or a few) into the library's public
// entry points. perf/README.md says why each workload exists.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "sim/arrival_process.h"
#include "sim/cluster_sim.h"
#include "sim/distributions.h"
#include "sim/policy.h"
#include "sqd/bound_model.h"
#include "util/thread_budget.h"

namespace rlb::perf {

/// One cluster-DES cell: simulate_cluster, or simulate_cluster_adaptive
/// when `plan` is set.
struct ClusterCell {
  /// sq(1) sq(2) sq(5) jsq round-robin least-work jiq rack-sq(2) rack-jiq
  std::string policy;
  double rho = 0.0;
  sim::ClusterConfig config;  ///< servers, jobs, warmup, seed, topology, ...
  bool mmpp = false;          ///< two-phase bursty MMPP instead of Poisson
  bool lognormal = false;     ///< lognormal(mean 1, cv 1.5) service, not Exp(1)
  std::optional<sim::AdaptivePlan> plan;
  int lower_bound_d = 0;      ///< > 0: check against the SQ(d) lower bound
  bool expect_unit_delay = false;
};

/// One bound_sweep cell: SQ(2) at (servers, rho) with T = 3.
struct BoundCell {
  int servers = 0;
  double rho = 0.0;
  bool full = false;  ///< also solve the upper and full lower bound
  int exact_cap = 0;  ///< > 0: exact truncated solve with this job cap
  std::uint64_t seed = 0;
};

using Cell = std::variant<ClusterCell, BoundCell>;

struct Workload {
  std::string name;
  int threads = 1;
  std::vector<Cell> cells;
};

const std::vector<std::string>& workload_names();

/// The workload's cells for `seed`; the same seed gives the same cells.
/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// What one cell produced, as the benchmark counts it.
struct CellOutput {
  std::vector<double> values;  ///< result doubles, digested in cell order
  std::vector<std::string> failures;
  std::uint64_t jobs = 0;    ///< simulated arrivals, warmup included
  std::uint64_t warmup = 0;  ///< arrivals discarded as warmup
  std::uint64_t solves = 0;  ///< solver calls
  bool compact = false;      ///< the cluster cell ran the compact engine
  int rounds = 0;            ///< adaptive rounds
  std::uint64_t replicas = 0;  ///< engine replicas run (one engine each)
  std::uint64_t builds = 0;         ///< build_bound_qbd calls
  std::uint64_t wasted_builds = 0;  ///< ... whose upper solve was unstable
};

/// Run one cell with every job budget multiplied by `scale` (1 for the
/// measured cells, 1/50 for the warm-up), checking the result when
/// `check`. Spans carry `index`. Never throws: an exception other than the
/// upper bound's expected qbd::UnstableError becomes a failure.
CellOutput run_cell(const Cell& cell, util::ThreadBudget& budget,
                    double scale, bool check, int index);

/// A cell's arrival stream. For Poisson arrivals `process` is a renewal
/// stream that reads `interarrival`, so the two travel together.
struct ArrivalLaw {
  std::unique_ptr<sim::Distribution> interarrival;  ///< null for MMPP
  std::unique_ptr<sim::ArrivalProcess> process;
};

/// The cell's policy, arrival stream and service law, as run_cell builds
/// them (the replay probes rebuild them the same way).
std::unique_ptr<sim::Policy> make_policy(const ClusterCell& c);
ArrivalLaw make_arrivals(const ClusterCell& c);
std::unique_ptr<sim::Distribution> make_service(const ClusterCell& c);

/// The SQ(2), T = 3 bound model of a bound_sweep cell.
sqd::BoundModel bound_model(const BoundCell& c, sqd::BoundKind kind);

}  // namespace rlb::perf
