#include "sim/distributions.h"

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "sim/stats.h"

namespace {

using namespace rlb::sim;

void check_mean_and_cv(const Distribution& dist, double expected_mean,
                       double expected_cv, double tol) {
  Rng rng(97);
  StreamingMoments s;
  for (int i = 0; i < 400000; ++i) s.add(dist.sample(rng));
  EXPECT_NEAR(s.mean(), expected_mean, tol * expected_mean) << dist.name();
  const double cv = s.stddev() / s.mean();
  EXPECT_NEAR(cv, expected_cv, 0.03 + tol) << dist.name();
}

TEST(Distributions, ExponentialMoments) {
  check_mean_and_cv(*make_exponential(2.0), 0.5, 1.0, 0.01);
}

TEST(Distributions, DeterministicIsConstant) {
  const auto d = make_deterministic(1.5);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(d->sample(rng), 1.5);
  EXPECT_DOUBLE_EQ(d->mean(), 1.5);
}

TEST(Distributions, ErlangMoments) {
  // Erlang(4, 8): mean 0.5, CV = 1/2.
  check_mean_and_cv(*make_erlang(4, 8.0), 0.5, 0.5, 0.01);
}

TEST(Distributions, HyperExpMoments) {
  const auto h = make_hyperexp(0.5, 2.0, 0.5);
  EXPECT_DOUBLE_EQ(h->mean(), 0.5 / 2.0 + 0.5 / 0.5);
  Rng rng(3);
  StreamingMoments s;
  for (int i = 0; i < 300000; ++i) s.add(h->sample(rng));
  EXPECT_NEAR(s.mean(), h->mean(), 0.02);
  EXPECT_GT(s.stddev() / s.mean(), 1.0);  // CV above exponential
}

TEST(Distributions, HyperExpFittedMatchesTargets) {
  const double mean = 2.0, scv = 4.0;
  const auto h = make_hyperexp_fitted(mean, scv);
  EXPECT_NEAR(h->mean(), mean, 1e-12);
  Rng rng(5);
  StreamingMoments s;
  for (int i = 0; i < 500000; ++i) s.add(h->sample(rng));
  EXPECT_NEAR(s.mean(), mean, 0.05);
  const double measured_scv = s.variance() / (s.mean() * s.mean());
  EXPECT_NEAR(measured_scv, scv, 0.3);
}

TEST(Distributions, LstMatchesItsOwnSampler) {
  // Each closed-form transform against a Monte Carlo estimate of
  // E[e^{-sX}] from the law's own sampler. e^{-sX} lies in [0, 1], so
  // its variance is at most 1/4 and the standard error of a 200000-draw
  // mean at most 1.1e-3; the 5e-3 tolerance is over 4.4 of them.
  std::vector<std::unique_ptr<Distribution>> laws;
  laws.push_back(make_exponential(1.7));
  laws.push_back(make_erlang(3, 2.5));
  laws.push_back(make_hyperexp_fitted(0.8, 4.0));
  laws.push_back(make_deterministic(0.6));
  for (const auto& law : laws) {
    for (double s : {0.3, 1.0, 2.5}) {
      Rng rng(23);
      double sum = 0.0;
      const int draws = 200000;
      for (int i = 0; i < draws; ++i) sum += std::exp(-s * law->sample(rng));
      EXPECT_NEAR(law->lst(s), sum / draws, 5e-3) << law->name() << " s=" << s;
    }
  }
}

TEST(Distributions, LstThrowsWithoutClosedForm) {
  EXPECT_THROW((void)make_lognormal(1.0, 0.8)->lst(1.0), std::invalid_argument);
  EXPECT_THROW((void)make_pareto(3.0, 2.0)->lst(1.0), std::invalid_argument);
  EXPECT_THROW((void)make_uniform(1.0, 3.0)->lst(1.0), std::invalid_argument);
}

TEST(Distributions, LognormalMoments) {
  check_mean_and_cv(*make_lognormal(1.0, 0.8), 1.0, 0.8, 0.02);
}

TEST(Distributions, UniformMoments) {
  check_mean_and_cv(*make_uniform(1.0, 3.0),
                    2.0, (2.0 / std::sqrt(12.0)) / 2.0, 0.01);
}

TEST(Distributions, SamplesNonNegative) {
  Rng rng(7);
  for (const auto& d :
       {make_exponential(1.0), make_erlang(2, 2.0),
        make_hyperexp(0.3, 1.0, 3.0), make_lognormal(1.0, 1.0),
        make_uniform(0.0, 1.0), make_deterministic(0.0)}) {
    for (int i = 0; i < 1000; ++i) EXPECT_GE(d->sample(rng), 0.0);
  }
}

TEST(Distributions, InvalidParametersThrow) {
  EXPECT_THROW(make_exponential(0.0), std::invalid_argument);
  EXPECT_THROW(make_erlang(0, 1.0), std::invalid_argument);
  EXPECT_THROW(make_hyperexp(1.5, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(make_lognormal(-1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(make_uniform(2.0, 1.0), std::invalid_argument);
  EXPECT_THROW(make_hyperexp_fitted(1.0, 0.5), std::invalid_argument);
  EXPECT_THROW(make_pareto(1.0, 1.0), std::invalid_argument);   // alpha > 1
  EXPECT_THROW(make_pareto(2.0, 0.0), std::invalid_argument);   // scale > 0
  EXPECT_THROW(make_pareto_mean(0.0, 2.0), std::invalid_argument);
  EXPECT_THROW(make_pareto_mean(1.0, 0.5), std::invalid_argument);
}

TEST(Distributions, ParetoMeanAndSupport) {
  // make_pareto(3, 2): mean = 3*2/2 = 3, support [2, inf).
  const auto d = make_pareto(3.0, 2.0);
  EXPECT_NEAR(d->mean(), 3.0, 1e-12);
  EXPECT_EQ(d->name(), "pareto");
  Rng rng(11);
  StreamingMoments s;
  for (int i = 0; i < 400000; ++i) s.add(d->sample(rng));
  EXPECT_NEAR(s.mean(), 3.0, 0.05);
  EXPECT_GE(s.min(), 2.0);
  // make_pareto_mean derives the scale: mean 1 at alpha 2.5 -> scale 0.6.
  const auto m = make_pareto_mean(1.0, 2.5);
  EXPECT_NEAR(m->mean(), 1.0, 1e-12);
  Rng rng2(13);
  EXPECT_GE(m->sample(rng2), 0.6 - 1e-12);
}

TEST(Distributions, ParseDistributionBuildsEveryFamily) {
  struct Case {
    const char* spec;
    const char* name;
    double mean;
  };
  const Case cases[]{
      {"exp:rate=2", "exp", 0.5},
      {"det:value=1.5", "det", 1.5},
      {"erlang:shape=4,rate=8", "erlang4", 0.5},
      {"uniform:lo=1,hi=3", "uniform", 2.0},
      {"pareto:mean=2,alpha=2.5", "pareto", 2.0},
      {"lognormal:mean=2,cv=1.5", "lognormal", 2.0},
      {"hyperexp:mean=1,scv=4", "hyperexp2", 1.0},
  };
  for (const Case& c : cases) {
    const auto d = parse_distribution(c.spec);
    EXPECT_EQ(d->name(), c.name) << c.spec;
    EXPECT_NEAR(d->mean(), c.mean, 1e-12) << c.spec;
  }
  // Keys bind by name, not position.
  EXPECT_NEAR(parse_distribution("erlang:rate=8,shape=4")->mean(), 0.5,
              1e-12);
}

TEST(Distributions, ParseDistributionProducesTheFactorysStream) {
  const auto parsed = parse_distribution("pareto:mean=2,alpha=2.5");
  const auto direct = make_pareto_mean(2.0, 2.5);
  Rng rng1(17), rng2(17);
  for (int i = 0; i < 1000; ++i)
    EXPECT_DOUBLE_EQ(parsed->sample(rng1), direct->sample(rng2)) << i;
}

TEST(Distributions, ParseDistributionRejectsMalformedSpecs) {
  for (const char* spec :
       {"gamma:shape=2",          // unknown family
        "exp",                    // missing params
        "exp:rate=2,extra=1",     // unknown key
        "exp:rate=2,rate=3",      // duplicate key
        "exp:2.0",                // not key=value
        "exp:rate=abc",           // malformed number
        "exp:rate=inf",           // non-finite
        "pareto:mean=2",          // missing key
        "erlang:shape=2.5,rate=1",  // non-integer shape
        "exp:rate=0"})            // domain error from the factory
    EXPECT_THROW((void)parse_distribution(spec), std::invalid_argument)
        << spec;
}

/// Assert that `spec` is rejected with a message ENDING in
/// `expected_tail`. --arrival/--service errors surface these messages to
/// the CLI user (RLB_REQUIRE prepends its mechanical "requirement
/// failed" preamble; the human-readable diagnosis is the tail), so the
/// wording is contract, not decoration.
void expect_rejection(const std::string& spec,
                      const std::string& expected_tail) {
  try {
    (void)parse_distribution(spec);
    ADD_FAILURE() << "spec unexpectedly parsed: " << spec;
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_TRUE(message.size() >= expected_tail.size() &&
                message.compare(message.size() - expected_tail.size(),
                                expected_tail.size(), expected_tail) == 0)
        << "message: " << message << "\nexpected tail: " << expected_tail;
  }
}

TEST(Distributions, RejectionMessagesNameTheProblemAndEchoTheSpec) {
  // Each message states WHAT is wrong (the family, the key, the token)
  // and repeats the offending spec so a user with several --arrival
  // flags can tell which one misfired.
  expect_rejection("gamma:shape=2",
                   "unknown distribution family in spec: gamma:shape=2 "
                   "(known: exp, det, erlang, uniform, pareto, lognormal, "
                   "hyperexp)");
  expect_rejection("exp:rate=2,extra=1",
                   "unknown key 'extra' in distribution spec: "
                   "exp:rate=2,extra=1");
  expect_rejection("exp:rate=2,rate=3",
                   "duplicate key 'rate' in distribution spec: "
                   "exp:rate=2,rate=3");
  expect_rejection("exp:rate=abc",
                   "malformed number in distribution spec: exp:rate=abc");
  expect_rejection("pareto:mean=2",
                   "distribution spec is missing 'alpha': pareto:mean=2");
  expect_rejection("erlang:shape=2.5,rate=1",
                   "erlang shape must be an integer >= 1: "
                   "erlang:shape=2.5,rate=1");
}

}  // namespace
