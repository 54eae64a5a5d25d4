// Scenario "logreduction_iters" — the in-text claim of §IV-A:
// "Latouche and Ramaswami claim that the algorithm to compute G needs only
// few iterations k. We confirm this to hold for our system configurations,
// for which the number of iterations is within k = 6."
//
// Reports the logarithmic-reduction iteration count and the residuals
// across the paper's configurations (and a few harder ones), for both
// bound models, plus the functional iteration count as contrast. Each
// (configuration, bound kind) pair is one sweep cell.
#include <string>
#include <vector>

#include "engine/scenario.h"
#include "qbd/logred.h"
#include "qbd/solver.h"
#include "sqd/blocks_builder.h"
#include "util/table.h"

namespace {

using rlb::engine::ScenarioContext;
using rlb::engine::ScenarioOutput;
using rlb::sqd::BoundKind;
using rlb::sqd::BoundModel;
using rlb::sqd::Params;

struct Config {
  int n, d, t;
  double rho;
};

struct CellResult {
  int block_size = 0;
  bool stable = false;
  int logred_k = 0;
  double residual = 0.0;
  int functional_k = 0;
};

ScenarioOutput run(ScenarioContext& ctx) {
  const std::vector<Config> configs{
      {3, 2, 2, 0.50}, {3, 2, 2, 0.90}, {3, 2, 3, 0.90}, {6, 2, 3, 0.90},
      {12, 2, 3, 0.90}, {6, 3, 2, 0.95}, {4, 4, 3, 0.95}, {2, 2, 4, 0.99},
  };
  const std::vector<BoundKind> kinds{BoundKind::Lower, BoundKind::Upper};

  const auto cells = ctx.map<CellResult>(
      configs.size() * kinds.size(), [&](std::size_t i) {
        const Config& c = configs[i / kinds.size()];
        const BoundKind kind = kinds[i % kinds.size()];
        const BoundModel model(Params{c.n, c.d, c.rho, 1.0}, c.t, kind);
        const auto q = rlb::sqd::build_bound_qbd(model);

        CellResult cell;
        cell.block_size = q.blocks.block_size();
        cell.stable =
            rlb::qbd::drift_condition(q.blocks.A0, q.blocks.A1, q.blocks.A2)
                .stable;
        if (!cell.stable) return cell;
        const auto g = rlb::qbd::logarithmic_reduction(
            q.blocks.A0, q.blocks.A1, q.blocks.A2);
        const auto f = rlb::qbd::functional_iteration(
            q.blocks.A0, q.blocks.A1, q.blocks.A2, 1e-12, 200000);
        cell.logred_k = g.iterations;
        cell.residual = g.residual;
        cell.functional_k = f.iterations;
        return cell;
      });

  ScenarioOutput out;
  out.preamble = "§IV-A: logarithmic-reduction convergence (paper: k <= 6).";
  auto& table = out.add_table(
      "main", {"model", "N", "d", "T", "rho", "block", "logred_k",
               "residual", "functional_k"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Config& c = configs[i / kinds.size()];
    const std::string name =
        kinds[i % kinds.size()] == BoundKind::Lower ? "lower" : "upper";
    const CellResult& cell = cells[i];
    if (!cell.stable) {
      table.add_row({name, std::to_string(c.n), std::to_string(c.d),
                     std::to_string(c.t), rlb::util::fmt(c.rho, 2),
                     std::to_string(cell.block_size), "unstable", "-", "-"});
      continue;
    }
    table.add_row({name, std::to_string(c.n), std::to_string(c.d),
                   std::to_string(c.t), rlb::util::fmt(c.rho, 2),
                   std::to_string(cell.block_size),
                   std::to_string(cell.logred_k),
                   rlb::util::fmt(cell.residual, 16),
                   std::to_string(cell.functional_k)});
  }
  return out;
}

const rlb::engine::ScenarioRegistrar reg{{
    "logreduction_iters",
    "§IV-A: logarithmic-reduction iteration counts and residuals across the "
    "paper's configurations",
    {},
    run}};

}  // namespace
