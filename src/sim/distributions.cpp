#include "sim/distributions.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/require.h"

namespace rlb::sim {

double Distribution::lst(double) const {
  throw std::invalid_argument(
      "no closed-form Laplace-Stieltjes transform for the " + name() + " law");
}

namespace {

class Exponential final : public Distribution {
 public:
  explicit Exponential(double rate) : rate_(rate) {
    RLB_REQUIRE(rate > 0.0, "rate must be positive");
  }
  double sample(Rng& rng) const override { return rng.exponential(rate_); }
  double mean() const override { return 1.0 / rate_; }
  double lst(double s) const override { return rate_ / (rate_ + s); }
  double exponential_rate() const override { return rate_; }
  std::string name() const override { return "exp"; }

 private:
  double rate_;
};

class Deterministic final : public Distribution {
 public:
  explicit Deterministic(double value) : value_(value) {
    RLB_REQUIRE(value >= 0.0, "value must be non-negative");
  }
  double sample(Rng&) const override { return value_; }
  double mean() const override { return value_; }
  double lst(double s) const override { return std::exp(-s * value_); }
  std::string name() const override { return "det"; }

 private:
  double value_;
};

class Erlang final : public Distribution {
 public:
  Erlang(int shape, double stage_rate) : shape_(shape), rate_(stage_rate) {
    RLB_REQUIRE(shape >= 1, "shape >= 1");
    RLB_REQUIRE(stage_rate > 0.0, "rate must be positive");
  }
  double sample(Rng& rng) const override {
    double total = 0.0;
    for (int i = 0; i < shape_; ++i) total += rng.exponential(rate_);
    return total;
  }
  double mean() const override { return shape_ / rate_; }
  double lst(double s) const override {
    return std::pow(rate_ / (rate_ + s), shape_);
  }
  std::string name() const override {
    return "erlang" + std::to_string(shape_);
  }

 private:
  int shape_;
  double rate_;
};

class HyperExp final : public Distribution {
 public:
  HyperExp(double p1, double rate1, double rate2)
      : p1_(p1), rate1_(rate1), rate2_(rate2) {
    RLB_REQUIRE(p1 >= 0.0 && p1 <= 1.0, "mixing probability in [0,1]");
    RLB_REQUIRE(rate1 > 0.0 && rate2 > 0.0, "rates must be positive");
  }
  double sample(Rng& rng) const override {
    return rng.next_double() < p1_ ? rng.exponential(rate1_)
                                   : rng.exponential(rate2_);
  }
  double mean() const override { return p1_ / rate1_ + (1.0 - p1_) / rate2_; }
  double lst(double s) const override {
    return p1_ * rate1_ / (rate1_ + s) + (1.0 - p1_) * rate2_ / (rate2_ + s);
  }
  std::string name() const override { return "hyperexp2"; }

 private:
  double p1_, rate1_, rate2_;
};

class LogNormal final : public Distribution {
 public:
  LogNormal(double mean, double cv) {
    RLB_REQUIRE(mean > 0.0 && cv > 0.0, "mean and cv must be positive");
    sigma2_ = std::log(1.0 + cv * cv);
    mu_ = std::log(mean) - 0.5 * sigma2_;
    mean_ = mean;
  }
  double sample(Rng& rng) const override {
    return std::exp(mu_ + std::sqrt(sigma2_) * rng.normal());
  }
  double mean() const override { return mean_; }
  std::string name() const override { return "lognormal"; }

 private:
  double mu_, sigma2_, mean_;
};

class Pareto final : public Distribution {
 public:
  Pareto(double alpha, double scale) : alpha_(alpha), scale_(scale) {
    RLB_REQUIRE(alpha > 1.0, "pareto tail index must exceed 1 (finite mean)");
    RLB_REQUIRE(scale > 0.0, "pareto scale must be positive");
  }
  double sample(Rng& rng) const override {
    // Inversion of the survival function: X = scale * U^(-1/alpha) with
    // U uniform on (0, 1]. next_double() is in [0, 1), so 1 - u is in
    // (0, 1] — the open end keeps the pow finite.
    const double u = 1.0 - rng.next_double();
    return scale_ * std::pow(u, -1.0 / alpha_);
  }
  double mean() const override { return alpha_ * scale_ / (alpha_ - 1.0); }
  std::string name() const override { return "pareto"; }

 private:
  double alpha_, scale_;
};

class Uniform final : public Distribution {
 public:
  Uniform(double lo, double hi) : lo_(lo), hi_(hi) {
    RLB_REQUIRE(0.0 <= lo && lo <= hi, "need 0 <= lo <= hi");
  }
  double sample(Rng& rng) const override {
    return lo_ + (hi_ - lo_) * rng.next_double();
  }
  double mean() const override { return 0.5 * (lo_ + hi_); }
  std::string name() const override { return "uniform"; }

 private:
  double lo_, hi_;
};

}  // namespace

std::unique_ptr<Distribution> make_exponential(double rate) {
  return std::make_unique<Exponential>(rate);
}
std::unique_ptr<Distribution> make_deterministic(double value) {
  return std::make_unique<Deterministic>(value);
}
std::unique_ptr<Distribution> make_erlang(int shape, double stage_rate) {
  return std::make_unique<Erlang>(shape, stage_rate);
}
std::unique_ptr<Distribution> make_hyperexp(double p1, double rate1,
                                            double rate2) {
  return std::make_unique<HyperExp>(p1, rate1, rate2);
}
std::unique_ptr<Distribution> make_lognormal(double mean, double cv) {
  return std::make_unique<LogNormal>(mean, cv);
}
std::unique_ptr<Distribution> make_uniform(double lo, double hi) {
  return std::make_unique<Uniform>(lo, hi);
}

std::unique_ptr<Distribution> make_hyperexp_fitted(double mean, double scv) {
  RLB_REQUIRE(scv > 1.0, "hyperexp fitting needs scv > 1");
  // Balanced means fit: p1/r1 = (1-p1)/r2 = mean/2.
  const double p1 =
      0.5 * (1.0 + std::sqrt((scv - 1.0) / (scv + 1.0)));
  const double rate1 = 2.0 * p1 / mean;
  const double rate2 = 2.0 * (1.0 - p1) / mean;
  return std::make_unique<HyperExp>(p1, rate1, rate2);
}

std::unique_ptr<Distribution> make_pareto(double alpha, double scale) {
  return std::make_unique<Pareto>(alpha, scale);
}

std::unique_ptr<Distribution> make_pareto_mean(double mean, double alpha) {
  RLB_REQUIRE(mean > 0.0, "pareto mean must be positive");
  RLB_REQUIRE(alpha > 1.0, "pareto tail index must exceed 1 (finite mean)");
  return std::make_unique<Pareto>(alpha, mean * (alpha - 1.0) / alpha);
}

namespace {

/// key=value pairs of a spec's parameter part, validated against the
/// family's expected keys.
std::map<std::string, double> parse_spec_params(
    const std::string& spec, const std::string& params,
    const std::vector<std::string>& keys) {
  std::map<std::string, double> out;
  std::istringstream stream(params);
  std::string field;
  while (std::getline(stream, field, ',')) {
    const auto eq = field.find('=');
    RLB_REQUIRE(eq != std::string::npos,
                "distribution spec field needs key=value: " + spec);
    const std::string key = field.substr(0, eq);
    RLB_REQUIRE(std::find(keys.begin(), keys.end(), key) != keys.end(),
                "unknown key '" + key + "' in distribution spec: " + spec);
    RLB_REQUIRE(out.find(key) == out.end(),
                "duplicate key '" + key + "' in distribution spec: " + spec);
    std::size_t used = 0;
    double value = 0.0;
    try {
      value = std::stod(field.substr(eq + 1), &used);
    } catch (const std::exception&) {
      used = 0;
    }
    RLB_REQUIRE(used == field.size() - eq - 1 && std::isfinite(value),
                "malformed number in distribution spec: " + spec);
    out[key] = value;
  }
  for (const std::string& key : keys)
    RLB_REQUIRE(out.find(key) != out.end(),
                "distribution spec is missing '" + key + "': " + spec);
  return out;
}

}  // namespace

std::unique_ptr<Distribution> parse_distribution(const std::string& spec) {
  const auto colon = spec.find(':');
  const std::string family = spec.substr(0, colon);
  const std::string params =
      colon == std::string::npos ? "" : spec.substr(colon + 1);
  const auto get = [&](const std::vector<std::string>& keys) {
    return parse_spec_params(spec, params, keys);
  };
  if (family == "exp") {
    const auto p = get({"rate"});
    return make_exponential(p.at("rate"));
  }
  if (family == "det") {
    const auto p = get({"value"});
    return make_deterministic(p.at("value"));
  }
  if (family == "erlang") {
    const auto p = get({"shape", "rate"});
    const double shape = p.at("shape");
    RLB_REQUIRE(shape == std::floor(shape) && shape >= 1.0,
                "erlang shape must be an integer >= 1: " + spec);
    return make_erlang(static_cast<int>(shape), p.at("rate"));
  }
  if (family == "uniform") {
    const auto p = get({"lo", "hi"});
    return make_uniform(p.at("lo"), p.at("hi"));
  }
  if (family == "pareto") {
    const auto p = get({"mean", "alpha"});
    return make_pareto_mean(p.at("mean"), p.at("alpha"));
  }
  if (family == "lognormal") {
    const auto p = get({"mean", "cv"});
    return make_lognormal(p.at("mean"), p.at("cv"));
  }
  if (family == "hyperexp") {
    const auto p = get({"mean", "scv"});
    return make_hyperexp_fitted(p.at("mean"), p.at("scv"));
  }
  throw std::invalid_argument(
      "unknown distribution family in spec: " + spec +
      " (known: exp, det, erlang, uniform, pareto, lognormal, hyperexp)");
}

}  // namespace rlb::sim
