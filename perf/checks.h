// Per-cell correctness checks. Every measured cell is checked; a failed
// check (or an unexpected exception) marks the cell failed and feeds the
// run's `failed` count. Each function returns one message per failed
// check, so an empty vector means the cell passed.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sqd/bound_solver.h"
#include "sqd/exact_reference.h"

namespace rlb::perf {

/// Tolerances of the checks (see perf/README.md, "Checks").
inline constexpr double kLittleRelTol = 0.03;
/// Little's law is checked only when the warm-up jobs still in the system
/// at the start of the measured window (about lambda * W per replica)
/// are at most this share of the measured jobs; otherwise their residual
/// time, which the window's area includes, can exceed the tolerance.
inline constexpr double kLittleEdgeShare = 0.01;
inline constexpr double kUnitDelayRelTol = 0.01;
inline constexpr double kCiSlack = 3.0;  ///< CI half-widths of slack
inline constexpr double kProbabilityTol = 1e-9;
inline constexpr double kResidualTol = 1e-10;
inline constexpr double kImprovedRelTol = 1e-8;
inline constexpr double kTruncationTol = 1e-6;

/// What a cluster-DES cell's checks need from its result.
struct ClusterOutcome {
  double mean_sojourn = 0.0;
  double mean_jobs_in_system = 0.0;  ///< time average over the window
  double arrival_rate = 0.0;  ///< the arrival process's mean_rate()
  double sim_time = 0.0;      ///< summed over replica runs
  double jobs_measured = 0.0;
  double warmup_jobs = 0.0;   ///< arrivals discarded, all replica runs
  double runs = 1.0;          ///< replica runs
  bool adaptive = false;
  bool converged = false;
  double half_width = 0.0;  ///< adaptive CI half-width on mean sojourn
  /// SQ(d) improved lower bound the delay must not undercut by more than
  /// kCiSlack half-widths; absent when no bound applies.
  std::optional<double> lower_bound;
  /// Delay must be within kUnitDelayRelTol of 1 (JIQ in a huge fleet:
  /// almost every job finds an idle server).
  bool expect_unit_delay = false;
};

/// Little's law, convergence of adaptive cells, the lower bound and the
/// unit-delay expectation.
///
/// The engines average jobs in system over a window that runs from the
/// first measured arrival until the last departure, drain included, so
/// L = lambda W only holds for that window's own arrival rate. The check
/// therefore compares L times the window (sim time less the warm-up
/// arrivals' span, warmup_jobs / lambda) with jobs_measured * W, within
/// kLittleRelTol. Cells whose warm-up residue can exceed the tolerance
/// (see kLittleEdgeShare) skip it: fleet_1m's 5 jobs per server last
/// 5.6 time units against a mean sojourn of about 1.6.
std::vector<std::string> check_cluster(const ClusterOutcome& c);

/// A bound_sweep cell: SQ(2) bounds, exact solve and fast simulation at
/// one (N, rho).
struct BoundOutcome {
  std::optional<sqd::BoundResult> upper;  ///< absent when not run or unstable
  std::optional<sqd::BoundResult> lower;  ///< full (matrix-geometric) lower
  sqd::BoundResult improved;              ///< improved (scalar) lower
  std::optional<sqd::ExactResult> exact;
  double fast_delay = 0.0;
  double fast_ci = 0.0;  ///< 95% half-width of fast_delay
};

/// Solver certificates (total probability, R residual), improved == full
/// lower, lower <= exact <= upper with negligible truncation mass, and the
/// simulated delay inside [lower - 3 ci, upper + 3 ci].
std::vector<std::string> check_bound(const BoundOutcome& b);

}  // namespace rlb::perf
