// Scenario "diurnal_surge" — capacity planning under a diurnal arrival
// pattern. Arrivals follow a sinusoidal nonhomogeneous Poisson process
// (rate lambda0 * (1 + amp * sin(2 pi t / period)), sampled by thinning)
// or, with --trace=<file>, replay a recorded trace (sim/trace.h). The
// capacity table sweeps the fleet size N at a FIXED arrival stream: the
// surge peak overloads small fleets and the per-window p99 / SLA columns
// show what that costs, which a single steady-state mean would hide.
// The windows table details the first fleet size window by window
// (replica-clock windows of --window time units; see docs/WORKLOADS.md).
//
// Each fleet size is one sweep cell seeded cell_seed(seed, row); the
// windowed recorders consume no simulation randomness, so the classic
// columns match an un-windowed run of the same seed bit for bit.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine/scenario.h"
#include "sim/arrival_process.h"
#include "sim/cluster_sim.h"
#include "sim/distributions.h"
#include "sim/trace.h"
#include "util/require.h"
#include "util/table.h"

namespace {

using rlb::engine::ScenarioContext;
using rlb::engine::ScenarioOutput;

/// Parse a comma-separated fleet-size list such as "10,12,14,16".
std::vector<int> parse_fleet_sizes(const std::string& spec) {
  std::vector<int> out;
  std::istringstream stream(spec);
  std::string field;
  while (std::getline(stream, field, ',')) {
    std::size_t used = 0;
    int value = 0;
    try {
      value = std::stoi(field, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    RLB_REQUIRE(used == field.size() && value >= 1,
                "--ns must be a comma-separated list of fleet sizes >= 1: " +
                    spec);
    out.push_back(value);
  }
  RLB_REQUIRE(!out.empty(), "--ns must name at least one fleet size");
  return out;
}

ScenarioOutput run(ScenarioContext& ctx) {
  const int d = ctx.cli().get_int<int>("d", 2);
  const auto jobs = ctx.cli().get_int<std::uint64_t>("jobs", 400'000);
  const auto seed = ctx.cli().get_int<std::uint64_t>("seed", 97531);
  const double lambda0 = ctx.cli().get_double("lambda0", 8.0);
  const double amp = ctx.cli().get_double("amp", 0.6);
  const double period = ctx.cli().get_double("period", 400.0);
  const double window = ctx.cli().get_double("window", 50.0);
  const double sla = ctx.cli().get_double("sla", 4.0);
  const auto max_windows = ctx.cli().get_int<std::size_t>("max-windows", 12);
  const std::string trace_path = ctx.cli().get("trace", "");
  const std::vector<int> fleet =
      parse_fleet_sizes(ctx.cli().get("ns", "10,12,14,16"));

  using namespace rlb::sim;

  // The arrival stream is FIXED across fleet sizes: a recorded trace when
  // --trace is given, the sinusoidal diurnal pattern otherwise. Cells
  // copy the prototype (trace storage is shared, not duplicated).
  std::unique_ptr<ArrivalProcess> proto;
  if (!trace_path.empty())
    proto = std::make_unique<TraceArrivalProcess>(load_trace(trace_path));
  else
    proto = std::make_unique<SinusoidalArrivalProcess>(lambda0, amp, period);

  const auto cells = ctx.map<ClusterResult>(fleet.size(), [&](std::size_t i) {
    ClusterConfig cfg;
    cfg.servers = fleet[i];
    cfg.window_width = window;
    cfg.sla_threshold = sla;
    const auto arrivals = proto->clone();
    const auto service = make_exponential(1.0);
    SqdPolicy policy(fleet[i], d);
    // A fixed plan: this scenario ignores --target-ci.
    const auto plan = AdaptivePlan::fixed(ctx.replicas(), jobs, jobs / 10,
                                          rlb::engine::cell_seed(seed, i));
    return simulate_cluster(cfg, policy, *arrivals, *service, plan,
                            ctx.budget());
  });

  ScenarioOutput out;
  out.preamble =
      "Diurnal surge capacity sweep for sq(" + std::to_string(d) +
      "): " + proto->name() + " arrivals (mean rate " +
      rlb::util::fmt(proto->mean_rate(), 3) +
      " jobs/time, mean service 1),\nfleet sizes N = {" +
      ctx.cli().get("ns", "10,12,14,16") + "}. SLA threshold: sojourn <= " +
      rlb::util::fmt(sla, 2) + "; windows of " + rlb::util::fmt(window, 1) +
      " time units on the replica clock.";

  auto& capacity = out.add_table(
      "capacity", {"N", "delay", "p99", "sla viol %", "worst win p99",
                   "util"});
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const ClusterResult& res = cells[i];
    double worst_p99 = 0.0;
    for (const WindowSummary& ws : res.windows)
      worst_p99 = std::max(worst_p99, ws.p99_sojourn);
    capacity.add_row({std::to_string(fleet[i]),
                      rlb::util::fmt(res.mean_sojourn, 4),
                      rlb::util::fmt(res.p99_sojourn, 4),
                      rlb::util::fmt(100.0 * res.sla_violation_fraction, 3),
                      rlb::util::fmt(worst_p99, 4),
                      rlb::util::fmt(res.utilization, 4)});
  }

  // Window-by-window transient detail for the first (tightest) fleet.
  auto& windows = out.add_table(
      "windows", {"t0", "jobs", "mean delay", "p99"});
  const ClusterResult& detail = cells.front();
  const std::size_t shown = std::min(max_windows, detail.windows.size());
  for (std::size_t w = 0; w < shown; ++w) {
    const WindowSummary& ws = detail.windows[w];
    windows.add_row({rlb::util::fmt(ws.start, 1),
                     std::to_string(ws.count),
                     rlb::util::fmt(ws.mean_sojourn, 4),
                     rlb::util::fmt(ws.p99_sojourn, 4)});
  }
  if (shown < detail.windows.size())
    out.note("windows table truncated to the first " +
             std::to_string(shown) + " of " +
             std::to_string(detail.windows.size()) +
             " windows (--max-windows raises the cap)");

  out.postamble =
      "Reading: a fleet sized for the MEAN rate melts at the peak — the "
      "per-window p99\nand SLA columns expose the surge that the overall "
      "delay column averages away.\nAdding servers buys headroom at the "
      "peak long before it moves the mean.";
  return out;
}

const rlb::engine::ScenarioRegistrar reg{{
    "diurnal_surge",
    "Extension: capacity sweep under diurnal (sinusoidal or trace-replayed) "
    "arrivals, SLA violation fraction and per-window p99 vs fleet size",
    {{"d", "polled servers", "2"},
     {"ns", "comma-separated fleet sizes to sweep", "10,12,14,16"},
     {"jobs", "simulated jobs per cell", "400000"},
     {"seed", "base RNG seed; per-cell seeds are derived from it", "97531"},
     {"lambda0", "mean total arrival rate (sinusoidal mode)", "8.0"},
     {"amp", "relative surge amplitude in [0, 1] (sinusoidal mode)", "0.6"},
     {"period", "diurnal period in time units (sinusoidal mode)", "400.0"},
     {"window", "statistics window width in time units", "50.0"},
     {"sla", "SLA sojourn threshold", "4.0"},
     {"max-windows", "rows shown in the windows table", "12"},
     {"trace", "replay this trace file instead of the sinusoidal "
               "stream", ""}},
    run}};

}  // namespace
