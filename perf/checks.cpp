#include "checks.h"

#include <cmath>
#include <limits>
#include <sstream>

namespace rlb::perf {

namespace {

std::string describe(const char* what, double got, const char* relation,
                     double limit) {
  std::ostringstream os;
  os.precision(10);
  os << what << ": " << got << ' ' << relation << ' ' << limit;
  return os.str();
}

void check_solution(const char* which, const sqd::BoundResult& r,
                    bool full_solve, std::vector<std::string>& out) {
  const double mass_error = std::fabs(r.total_probability - 1.0);
  if (!(mass_error <= kProbabilityTol))
    out.push_back(std::string(which) +
                  describe(" |total probability - 1|", mass_error, ">",
                           kProbabilityTol));
  if (full_solve && !(r.r_residual <= kResidualTol))
    out.push_back(std::string(which) +
                  describe(" R residual", r.r_residual, ">", kResidualTol));
  if (!std::isfinite(r.mean_delay))
    out.push_back(std::string(which) + " delay is not finite");
}

}  // namespace

std::vector<std::string> check_cluster(const ClusterOutcome& c) {
  std::vector<std::string> out;
  const double sojourn_total = c.jobs_measured * c.mean_sojourn;
  const double edge =
      c.runs * c.arrival_rate * c.mean_sojourn / c.jobs_measured;
  if (edge <= kLittleEdgeShare) {
    const double window = c.sim_time - c.warmup_jobs / c.arrival_rate;
    const double area = c.mean_jobs_in_system * window;
    if (!(std::fabs(area - sojourn_total) <= kLittleRelTol * sojourn_total))
      out.push_back(describe("Little's law: L x window", area,
                             "vs jobs x W =", sojourn_total));
  }
  if (c.adaptive && !c.converged)
    out.push_back(describe("adaptive cell did not converge; half-width",
                           c.half_width, "at cap, sojourn",
                           c.mean_sojourn));
  if (c.lower_bound &&
      !(c.mean_sojourn >= *c.lower_bound - kCiSlack * c.half_width))
    out.push_back(describe("delay below the SQ(d) lower bound",
                           c.mean_sojourn, "<", *c.lower_bound));
  if (c.expect_unit_delay &&
      !(std::fabs(c.mean_sojourn - 1.0) <= kUnitDelayRelTol))
    out.push_back(describe("delay not within 1% of 1", c.mean_sojourn,
                           "vs", 1.0));
  return out;
}

std::vector<std::string> check_bound(const BoundOutcome& b) {
  std::vector<std::string> out;
  if (b.upper) check_solution("upper", *b.upper, true, out);
  if (b.lower) check_solution("lower", *b.lower, true, out);
  check_solution("improved lower", b.improved, false, out);

  const double lower = b.improved.mean_delay;
  const double upper = b.upper ? b.upper->mean_delay
                               : std::numeric_limits<double>::infinity();
  if (b.lower && !(std::fabs(lower - b.lower->mean_delay) <=
                   kImprovedRelTol * b.lower->mean_delay))
    out.push_back(describe("improved lower differs from full lower", lower,
                           "vs", b.lower->mean_delay));
  if (!(lower <= upper))
    out.push_back(describe("lower bound above upper bound", lower, ">",
                           upper));
  if (b.exact) {
    if (!(b.exact->truncation_mass <= kTruncationTol))
      out.push_back(describe("exact truncation mass",
                             b.exact->truncation_mass, ">", kTruncationTol));
    if (!(lower <= b.exact->mean_delay && b.exact->mean_delay <= upper))
      out.push_back(describe("exact delay outside [lower, upper]",
                             b.exact->mean_delay, "vs lower", lower));
  }
  const double slack = kCiSlack * b.fast_ci;
  if (!(b.fast_delay >= lower - slack && b.fast_delay <= upper + slack))
    out.push_back(describe("simulated delay outside bounds +- 3 ci",
                           b.fast_delay, "vs lower", lower));
  return out;
}

}  // namespace rlb::perf
