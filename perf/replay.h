// Replay probes: after the traced pass, re-run the public sub-steps of the
// calls the spans cannot see inside, on the same inputs, and attribute the
// measured time to them. Replay numbers are labelled as such in the output
// ("replay" in perf/README.md's metric catalog).
#pragma once

#include <vector>

#include "report.h"
#include "workloads.h"

namespace rlb::perf {

/// Cluster-DES probes over the workload's compact-engine cells: engine
/// construction, policy select, arrival and service draws, calendar hold,
/// directory moves, departure recording and replica merges, each timed on
/// a state snapshot taken halfway through one replayed run() at the cell's
/// parameters. `outs` are one traced pass's cell outputs and
/// `compact_self_s` that pass's self time in compact simulate_cluster
/// spans; each probe's share of it is reported, and what no probe covers
/// is sim.replay.unattributed_frac. Every metric is 0 when the workload
/// runs no compact cell.
std::vector<Metric> replay_des(const Workload& w,
                               const std::vector<CellOutput>& outs,
                               double compact_self_s);

/// qbd::solve stages replayed on the blocks of every solve_bound call of
/// one bound_sweep pass: drift condition, logarithmic reduction, R from G,
/// R residual, and the boundary solve as the remainder of the replayed
/// qbd::solve. `solve_bound_self_s` is the traced sqd.solve_bound self
/// time of one pass; qbd.replay.coverage compares the replayed total with
/// it. Every metric is 0 when the workload has no solve_bound call.
std::vector<Metric> replay_qbd(const Workload& w, double solve_bound_self_s);

}  // namespace rlb::perf
