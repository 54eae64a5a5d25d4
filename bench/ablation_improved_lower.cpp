// Scenario "ablation_improved_lower" — Theorems 2-3 ablation: the
// improved lower bound (scalar rate sigma^N = rho^N) against
// the generic matrix-geometric solve. Verifies the agreement numerically
// and checks sp(R) = rho^N, the fact that lets the improved bound skip
// the G/R iteration. Each configuration is one sweep cell. The time the
// skip saves is measured by perf/'s bound_sweep workload (its
// solve_bound / solve_lower_improved split), not by this table.
#include <cmath>
#include <string>
#include <vector>

#include "engine/scenario.h"
#include "linalg/eigen.h"
#include "qbd/logred.h"
#include "sqd/blocks_builder.h"
#include "sqd/bound_solver.h"
#include "util/table.h"

namespace {

using rlb::engine::ScenarioContext;
using rlb::engine::ScenarioOutput;
using rlb::sqd::BoundKind;
using rlb::sqd::BoundModel;
using rlb::sqd::Params;

struct Config {
  int n, t;
  double rho;
};

struct CellResult {
  int block_size = 0;
  double generic = 0.0;
  double improved = 0.0;
  double sp = 0.0;
};

ScenarioOutput run(ScenarioContext& ctx) {
  const std::vector<Config> configs{
      {3, 2, 0.70}, {3, 3, 0.90},  {6, 3, 0.70}, {6, 3, 0.90},
      {12, 3, 0.70}, {12, 3, 0.90}, {6, 4, 0.95},
  };

  const auto cells = ctx.map<CellResult>(
      configs.size(), [&](std::size_t i) {
        const Config& c = configs[i];
        const BoundModel model(Params{c.n, 2, c.rho, 1.0}, c.t,
                               BoundKind::Lower);
        const auto q = rlb::sqd::build_bound_qbd(model);

        CellResult cell;
        const auto generic = rlb::sqd::solve_bound(model, q);
        cell.generic = generic.mean_delay;
        cell.block_size = generic.block_size;
        cell.improved =
            rlb::sqd::solve_lower_improved(model, q, c.rho).mean_delay;

        const auto g = rlb::qbd::logarithmic_reduction(
            q.blocks.A0, q.blocks.A1, q.blocks.A2);
        const auto r =
            rlb::qbd::rate_matrix_from_g(q.blocks.A0, q.blocks.A1, g.G);
        cell.sp = rlb::linalg::power_iteration(r).value;
        return cell;
      });

  ScenarioOutput out;
  out.preamble =
      "Theorem 3: improved lower bound vs generic solve (Theorem 1).";
  auto& table = out.add_table(
      "main", {"N", "T", "rho", "block", "generic", "improved", "agree_rel",
               "sp(R)", "rho^N"});
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const Config& c = configs[i];
    const CellResult& cell = cells[i];
    table.add_row(
        {std::to_string(c.n), std::to_string(c.t), rlb::util::fmt(c.rho, 2),
         std::to_string(cell.block_size), rlb::util::fmt(cell.generic, 6),
         rlb::util::fmt(cell.improved, 6),
         rlb::util::fmt(std::abs(cell.generic - cell.improved) /
                            cell.generic,
                        12),
         rlb::util::fmt(cell.sp, 6),
         rlb::util::fmt(std::pow(c.rho, c.n), 6)});
  }
  return out;
}

const rlb::engine::ScenarioRegistrar reg{{
    "ablation_improved_lower",
    "Theorem 3: improved lower bound vs the generic matrix-geometric solve — "
    "agreement and sp(R) = rho^N",
    {},
    run}};

}  // namespace
