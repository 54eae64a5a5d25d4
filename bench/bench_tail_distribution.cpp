// Scenario "tail_distribution" — marginal queue-length tails P(Q >= i):
// the quantity Mitzenmacher's asymptotic fixed point describes (s_i =
// lambda^{(d^i-1)/(d-1)}, doubly exponential), compared at finite N against
// simulation and the lower bound model's closed-form tail. Shows both the
// celebrated doubly-exponential decay AND the finite-N deviation from it.
#include <cstdint>
#include <string>
#include <vector>

#include "engine/adaptive_columns.h"
#include "engine/scenario.h"
#include "sim/fast_sqd.h"
#include "sqd/asymptotic.h"
#include "sqd/tail_distribution.h"
#include "util/require.h"
#include "util/table.h"

namespace {

using rlb::engine::ScenarioContext;
using rlb::engine::ScenarioOutput;
using rlb::sqd::BoundKind;
using rlb::sqd::BoundModel;
using rlb::sqd::Params;

ScenarioOutput run(ScenarioContext& ctx) {
  const int n = ctx.cli().get_int<int>("n", 6);
  const int d = ctx.cli().get_int<int>("d", 2);
  const double rho = ctx.cli().get_double("rho", 0.9);
  const int t = ctx.cli().get_int<int>("T", 3);
  const int kmax = ctx.cli().get_int<int>("kmax", 8);
  // The simulator reads tail_kmax = 0 as "no tail" and the table indexes
  // it from 0, so the table needs at least one tail index.
  RLB_REQUIRE(kmax >= 1, "--kmax must be >= 1");
  const auto jobs = ctx.cli().get_int<std::uint64_t>("jobs", 4'000'000);
  const auto seed = ctx.cli().get_int<std::uint64_t>("seed", 31);
  const Params p{n, d, rho, 1.0};

  // Two independent cells: the analytic tail and the simulation.
  const auto lower_tail = rlb::sqd::marginal_queue_tail(
      BoundModel(p, t, BoundKind::Lower), kmax);
  const bool adaptive = ctx.adaptive().enabled();
  const auto sims =
      ctx.map<rlb::sim::FastSqdResult>(1, [&](std::size_t i) {
        rlb::sim::FastSqdConfig cfg;
        cfg.params = p;
        cfg.tail_kmax = kmax;
        // A single simulation cell: --replicas is the only parallelism
        // here. Under --target-ci the target statistic is the mean delay;
        // the tail histogram rides along on the budget the mean needed.
        return rlb::sim::simulate_sqd_fast(
            cfg, ctx.plan(rlb::engine::cell_seed(seed, i), jobs, jobs / 10),
            ctx.budget());
      });

  ScenarioOutput out;
  out.preamble = "Tail probabilities P(queue >= i), SQ(" +
                 std::to_string(d) + "), N = " + std::to_string(n) +
                 ", rho = " + rlb::util::fmt(rho, 2);
  auto& table = out.add_table(
      "main", {"i", "simulation",
               "lower bound (T=" + std::to_string(t) + ")",
               "asymptotic s_i"});
  for (int i = 0; i <= kmax; ++i) {
    table.add_row({std::to_string(i),
                   rlb::util::fmt(sims[0].marginal_tail[i], 6),
                   rlb::util::fmt(lower_tail.tail[i], 6),
                   rlb::util::fmt(rlb::sqd::asymptotic_queue_tail(rho, d, i),
                                  6)});
  }
  if (adaptive) {
    const auto& rep = sims[0].adaptive;
    std::vector<std::string> header;
    rlb::engine::add_adaptive_columns(header);
    header.push_back("rounds");
    auto& report = out.add_table("adaptive", header);
    std::vector<std::string> row;
    rlb::engine::add_adaptive_cells(row, rep);
    row.push_back(std::to_string(rep.rounds));
    report.add_row(std::move(row));
    out.note(rlb::engine::adaptive_note() +
             "\nTarget statistic: the mean delay of the jump chain; the "
             "tail histogram\nrides along on the budget the mean needed.");
  }
  out.postamble =
      "Expected shape: the asymptotic s_i decays doubly exponentially, but "
      "the finite-N\nsimulated tail is markedly heavier at high rho — the "
      "paper's core warning. The\nlower bound tracks the simulation for "
      "small i and stays below it (its far tail\ndecays geometrically at "
      "rho^N per level, the price of the gap truncation).";
  return out;
}

const rlb::engine::ScenarioRegistrar reg{{
    "tail_distribution",
    "Extension: marginal queue-length tails P(Q >= i), simulation vs "
    "lower-bound closed form vs Mitzenmacher asymptotic",
    {{"n", "number of servers", "6"},
     {"d", "polled servers per arrival", "2"},
     {"rho", "utilization", "0.9"},
     {"T", "bound model threshold", "3"},
     {"kmax", "largest tail index", "8"},
     {"jobs", "simulated jobs", "4000000"},
     {"seed", "base RNG seed; per-cell seeds are derived from it", "31"}},
    run}};

}  // namespace
