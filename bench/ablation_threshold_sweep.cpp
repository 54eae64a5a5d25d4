// Scenario "ablation_threshold_sweep" — the accuracy/complexity tradeoff
// in T (§V, first observation): upper bounds tighten as T grows, but
// block sizes — and hence the matrix-geometric cost — grow as
// C(N+T-1, T).
//
// Prints, per T: both bounds, the sandwich width, the lower bound's error
// against the exact value (small N) and the block/boundary sizes that
// set the solve cost (perf/'s bound_sweep workload times the solves).
// Each T is one sweep cell. The "reference" table holds the delays the
// bounds bracket: the exact truncated-CTMC value (N <= 3), the fast
// simulator's mean with its 95% CI (sharded across --replicas chains),
// and the N -> infinity approximation (Eq. 16):
//
//   rlb_run --scenario=ablation_threshold_sweep --n=6 --rho=0.9 --tmax=3
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/scenario.h"
#include "qbd/solver.h"
#include "sim/fast_sqd.h"
#include "sqd/asymptotic.h"
#include "sqd/bound_solver.h"
#include "sqd/exact_reference.h"
#include "util/require.h"
#include "util/table.h"

namespace {

using rlb::engine::ScenarioContext;
using rlb::engine::ScenarioOutput;
using rlb::sqd::BoundKind;
using rlb::sqd::BoundModel;
using rlb::sqd::Params;

struct CellResult {
  int block_size = 0;
  int boundary_size = 0;
  double lower = 0.0;
  std::string upper = "unstable";
  std::string width = "-";
};

ScenarioOutput run(ScenarioContext& ctx) {
  const int n = ctx.cli().get_int<int>("n", 3);
  const int d = ctx.cli().get_int<int>("d", 2);
  const double rho = ctx.cli().get_double("rho", 0.7);
  const auto t_max = ctx.cli().get_int<std::size_t>("tmax", 6);
  const auto jobs = ctx.cli().get_int<std::uint64_t>("jobs", 1'000'000);
  const auto seed = ctx.cli().get_int<std::uint64_t>("seed", 1);
  RLB_REQUIRE(t_max >= 1, "--tmax must be >= 1");
  const Params p{n, d, rho, 1.0};

  const double exact =
      n <= 3 ? rlb::sqd::solve_exact_truncated(p, 60).mean_delay : -1.0;

  const auto cells = ctx.map<CellResult>(t_max, [&](std::size_t i) {
    const int t = static_cast<int>(i) + 1;
    CellResult cell;
    const auto lower =
        rlb::sqd::solve_bound(BoundModel(p, t, BoundKind::Lower));
    cell.lower = lower.mean_delay;
    cell.block_size = lower.block_size;
    cell.boundary_size = lower.boundary_size;
    try {
      const auto upper =
          rlb::sqd::solve_bound(BoundModel(p, t, BoundKind::Upper));
      cell.upper = rlb::util::fmt(upper.mean_delay, 5);
      cell.width = rlb::util::fmt(upper.mean_delay - lower.mean_delay, 5);
    } catch (const rlb::qbd::UnstableError&) {
    }
    return cell;
  });

  // The simulated reference: the real system, sharded across --replicas
  // chains. A fixed plan: this row ignores --target-ci.
  rlb::sim::FastSqdConfig cfg;
  cfg.params = p;
  const auto sim = rlb::sim::simulate_sqd_fast(
      cfg,
      rlb::sim::AdaptivePlan::fixed(ctx.replicas(), jobs, jobs / 10,
                                    rlb::engine::cell_seed(seed, 0)),
      ctx.budget());

  ScenarioOutput out;
  out.preamble = "§V: threshold sweep, N = " + std::to_string(n) +
                 ", d = " + std::to_string(d) +
                 ", rho = " + rlb::util::fmt(rho, 2);

  auto& table = out.add_table("main", {"T", "block", "boundary", "lower",
                                       "upper", "width", "lower_err%"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& cell = cells[i];
    const std::string err =
        exact > 0
            ? rlb::util::fmt(100.0 * std::abs(exact - cell.lower) / exact, 3)
            : "-";
    table.add_row({std::to_string(i + 1), std::to_string(cell.block_size),
                   std::to_string(cell.boundary_size),
                   rlb::util::fmt(cell.lower, 5), cell.upper, cell.width,
                   err});
  }

  auto& reference = out.add_table("reference", {"quantity", "mean delay"});
  reference.add_row({"exact (truncated CTMC)",
                     exact > 0 ? rlb::util::fmt(exact, 6) : "-"});
  reference.add_row({"simulation (" + std::to_string(jobs) + " jobs)",
                     rlb::util::fmt(sim.mean_delay, 4) + " +/- " +
                         rlb::util::fmt(sim.ci95_delay, 4)});
  reference.add_row({"asymptotic (Eq. 16)",
                     rlb::util::fmt(rlb::sqd::asymptotic_delay(rho, d), 4)});
  out.note("The exact value needs N <= 3; +/- is the 95% CI half-width.");
  return out;
}

const rlb::engine::ScenarioRegistrar reg{{
    "ablation_threshold_sweep",
    "§V: accuracy/complexity tradeoff in the threshold T — bound width vs "
    "block size, against exact, simulated and asymptotic delays",
    {{"n", "number of servers", "3"},
     {"d", "polled servers per arrival", "2"},
     {"rho", "utilization", "0.7"},
     {"tmax", "largest threshold T to solve", "6"},
     {"jobs", "jobs for the simulated reference delay", "1000000"},
     {"seed", "base RNG seed", "1"}},
    run}};

}  // namespace
