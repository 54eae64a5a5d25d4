// Sampling distributions for service times and interarrival times in the
// discrete-event simulator. Each law is one class: its sampler, its mean
// and, for the exponential, Erlang, hyperexponential and deterministic
// laws, the Laplace-Stieltjes transform that Theorem 2's sigma equation
// reads (solve_sigma in sim/gi_bound_sim.h). The factory helpers keep
// bench code terse.
#pragma once

#include <memory>
#include <string>

#include "sim/rng.h"

namespace rlb::sim {

class Distribution {
 public:
  virtual ~Distribution() = default;
  [[nodiscard]] virtual double sample(Rng& rng) const = 0;
  [[nodiscard]] virtual double mean() const = 0;
  /// Laplace-Stieltjes transform E[e^{-sX}], s >= 0. The exponential,
  /// Erlang, hyperexponential and deterministic laws give it in closed
  /// form; every other law throws std::invalid_argument.
  [[nodiscard]] virtual double lst(double s) const;
  /// The rate mu of an Exp(mu) law, 0 for every other law. The cluster
  /// engine runs cells whose service law reports a rate without its
  /// event heap (sim/compact_cluster.h).
  [[nodiscard]] virtual double exponential_rate() const { return 0.0; }
  [[nodiscard]] virtual std::string name() const = 0;
};

std::unique_ptr<Distribution> make_exponential(double rate);
std::unique_ptr<Distribution> make_deterministic(double value);
std::unique_ptr<Distribution> make_erlang(int shape, double stage_rate);
std::unique_ptr<Distribution> make_hyperexp(double p1, double rate1,
                                            double rate2);
/// Lognormal parameterized by its MEAN and coefficient of variation.
std::unique_ptr<Distribution> make_lognormal(double mean, double cv);
std::unique_ptr<Distribution> make_uniform(double lo, double hi);

/// Balanced two-phase hyperexponential with given mean and squared
/// coefficient of variation scv > 1 (classic fitting used in queueing
/// studies).
std::unique_ptr<Distribution> make_hyperexp_fitted(double mean, double scv);

/// Pareto (type I): support [scale, inf), survival (scale/x)^alpha. The
/// canonical heavy tail — mean alpha*scale/(alpha-1) requires alpha > 1
/// (enforced: an infinite-mean service law starves every load balancer),
/// variance is finite only for alpha > 2. Sampled by inversion.
std::unique_ptr<Distribution> make_pareto(double alpha, double scale);

/// Pareto with the given MEAN and tail index alpha > 1 (the scale is
/// derived): the equal-mean-load construction heavy-tail studies need.
std::unique_ptr<Distribution> make_pareto_mean(double mean, double alpha);

/// Parse a service/interarrival law from a CLI spec string:
///
///   exp:rate=R            exponential
///   det:value=V           deterministic
///   erlang:shape=K,rate=R Erlang-K of stage rate R
///   uniform:lo=A,hi=B     uniform on [A, B]
///   pareto:mean=M,alpha=A Pareto with mean M, tail index A
///   lognormal:mean=M,cv=C lognormal with mean M, coeff. of variation C
///   hyperexp:mean=M,scv=S balanced 2-phase hyperexponential, scv S > 1
///
/// Keys may appear in any order; missing keys, unknown keys, unknown
/// families and malformed numbers throw std::invalid_argument with the
/// offending spec in the message. This is what policy_comparison's
/// --service flag parses (docs/WORKLOADS.md).
std::unique_ptr<Distribution> parse_distribution(const std::string& spec);

}  // namespace rlb::sim
