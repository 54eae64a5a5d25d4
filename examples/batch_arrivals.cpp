// Scenario "batch_arrivals" — what job batching does to SQ(d) delay at a
// fixed mean load. Batches (geometric or fixed sizes) arrive at Poisson
// epochs with the base rate scaled down by the batch mean, so every row
// carries the same job rate rho*N; only the clumping changes. Each
// (batch size, size law) simulation is one sweep cell; the two size-law
// columns of a row share random streams (common random numbers).
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/adaptive_columns.h"
#include "engine/scenario.h"
#include "sim/arrival_process.h"
#include "sim/cluster_sim.h"
#include "util/table.h"

namespace {

using rlb::engine::ScenarioContext;
using rlb::engine::ScenarioOutput;

constexpr std::size_t kKinds = 2;  // geometric, fixed

ScenarioOutput run(ScenarioContext& ctx) {
  const int n = ctx.cli().get_int<int>("n", 8);
  const int d = ctx.cli().get_int<int>("d", 2);
  const double rho = ctx.cli().get_double("rho", 0.85);
  const auto jobs = ctx.cli().get_int<std::uint64_t>("jobs", 400'000);
  const auto seed = ctx.cli().get_int<std::uint64_t>("seed", 13579);

  using namespace rlb::sim;
  const std::vector<int> batch_sizes{1, 2, 4, 8};

  struct CellResult {
    double mean = 0.0;
    double p99 = 0.0;
    rlb::sim::AdaptiveReport report;
  };
  const bool adaptive = ctx.adaptive().enabled();
  const auto cells = ctx.map<CellResult>(
      batch_sizes.size() * kKinds, [&](std::size_t i) {
        const std::size_t b = i / kKinds;
        const auto mean_batch = static_cast<double>(batch_sizes[b]);
        const auto kind = i % kKinds == 0
                              ? BatchArrivalProcess::BatchSizes::Geometric
                              : BatchArrivalProcess::BatchSizes::Fixed;
        ClusterConfig cfg;
        cfg.servers = n;
        // Batch epochs at rate rho*n / mean: the job rate stays rho*n.
        const auto epoch_gap = make_exponential(rho * n / mean_batch);
        BatchArrivalProcess arrivals(
            std::make_unique<RenewalArrivals>(*epoch_gap), mean_batch,
            kind);
        const auto svc = make_exponential(1.0);
        SqdPolicy policy(n, d);
        // One seed per batch-size row (common random numbers across the
        // two size-law columns).
        const auto res = simulate_cluster(
            cfg, policy, arrivals, *svc,
            ctx.plan(rlb::engine::cell_seed(seed, b), jobs, jobs / 10),
            ctx.budget());
        return CellResult{res.mean_sojourn, res.p99_sojourn, res.adaptive};
      });

  ScenarioOutput out;
  out.preamble =
      "Batch arrivals for sq(" + std::to_string(d) + "), N = " +
      std::to_string(n) + " servers at utilization " +
      rlb::util::fmt(rho, 2) +
      ".\nBatch epochs are Poisson at rate rho*N / E[batch]; every row "
      "carries the same\nmean job rate, only the clumping changes.";
  std::vector<std::string> header{"batch", "geom delay", "geom p99",
                                  "fixed delay", "fixed p99"};
  if (adaptive) rlb::engine::add_adaptive_columns(header);
  auto& table = out.add_table("main", header);
  for (std::size_t b = 0; b < batch_sizes.size(); ++b) {
    std::vector<std::string> row{std::to_string(batch_sizes[b])};
    auto report = rlb::sim::AdaptiveReport::row_identity();
    for (std::size_t k = 0; k < kKinds; ++k) {
      row.push_back(rlb::util::fmt(cells[b * kKinds + k].mean, 4));
      row.push_back(rlb::util::fmt(cells[b * kKinds + k].p99, 4));
      report.combine(cells[b * kKinds + k].report);
    }
    if (adaptive) rlb::engine::add_adaptive_cells(row, report);
    table.add_row(std::move(row));
  }
  if (adaptive)
    out.note(rlb::engine::adaptive_note("the two size-law columns"));
  out.postamble =
      "Reading: batching inflates delay well beyond the single-arrival "
      "model at equal\nload — geometric batches (occasionally huge) more "
      "than fixed ones. Batch = 1\nreproduces the plain Poisson stream.";
  return out;
}

const rlb::engine::ScenarioRegistrar reg{{
    "batch_arrivals",
    "Extension: geometric and fixed batch-arrival streams at equal mean load, "
    "delay and p99 vs batch size under SQ(d)",
    {{"n", "number of servers", "8"},
     {"d", "polled servers", "2"},
     {"rho", "utilization (mean job rate is rho*N)", "0.85"},
     {"jobs", "simulated jobs per cell", "400000"},
     {"seed", "base RNG seed; per-row seeds are derived from it", "13579"}},
    run}};

}  // namespace
