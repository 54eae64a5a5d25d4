#include "sim/arrival_process.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/require.h"
#include "util/table.h"

namespace rlb::sim {

RenewalArrivals::RenewalArrivals(const Distribution& interarrival)
    : interarrival_(interarrival) {}

double RenewalArrivals::next(Rng& rng) { return interarrival_.sample(rng); }

double RenewalArrivals::mean_rate() const {
  return 1.0 / interarrival_.mean();
}

std::string RenewalArrivals::name() const {
  return "renewal(" + interarrival_.name() + ")";
}

MmppArrivals::MmppArrivals(double rate1, double rate2, double switch12,
                           double switch21)
    : rate_{rate1, rate2}, switch_{switch12, switch21} {
  RLB_REQUIRE(rate1 >= 0.0 && rate2 >= 0.0, "rates must be non-negative");
  RLB_REQUIRE(rate1 > 0.0 || rate2 > 0.0, "at least one phase must arrive");
  RLB_REQUIRE(switch12 > 0.0 && switch21 > 0.0,
              "switching rates must be positive");
}

double MmppArrivals::next(Rng& rng) {
  double elapsed = 0.0;
  for (;;) {
    const double arrival_rate = rate_[phase_];
    const double switch_rate = switch_[phase_];
    const double t_switch = rng.exponential(switch_rate);
    if (arrival_rate <= 0.0) {
      elapsed += t_switch;
      phase_ ^= 1;
      continue;
    }
    const double t_arrival = rng.exponential(arrival_rate);
    if (t_arrival <= t_switch) return elapsed + t_arrival;
    elapsed += t_switch;
    phase_ ^= 1;
  }
}

double MmppArrivals::mean_rate() const {
  // Stationary phase probabilities of the modulating chain.
  const double p1 = switch_[1] / (switch_[0] + switch_[1]);
  return p1 * rate_[0] + (1.0 - p1) * rate_[1];
}

std::string MmppArrivals::name() const { return "mmpp2"; }

BatchArrivalProcess::BatchArrivalProcess(std::unique_ptr<ArrivalProcess> base,
                                         double mean_batch, BatchSizes sizes)
    : base_(std::move(base)), mean_batch_(mean_batch), sizes_(sizes) {
  RLB_REQUIRE(base_ != nullptr, "batch process needs a base process");
  RLB_REQUIRE(mean_batch >= 1.0, "mean batch size must be at least 1");
  RLB_REQUIRE(sizes != BatchSizes::Fixed ||
                  mean_batch == std::floor(mean_batch),
              "fixed batch sizes must be integral");
}

BatchArrivalProcess::BatchArrivalProcess(const BatchArrivalProcess& other)
    : base_(other.base_->clone()),
      mean_batch_(other.mean_batch_),
      sizes_(other.sizes_),
      remaining_(other.remaining_) {}

double BatchArrivalProcess::next(Rng& rng) {
  if (remaining_ > 0) {
    --remaining_;
    return 0.0;
  }
  const double gap = base_->next(rng);
  std::uint64_t size = 1;
  if (sizes_ == BatchSizes::Fixed) {
    size = static_cast<std::uint64_t>(mean_batch_);
  } else if (mean_batch_ > 1.0) {
    // Geometric on {1, 2, ...} with success probability p = 1/mean via
    // inversion; u = 0 maps to the minimal batch of 1.
    const double p = 1.0 / mean_batch_;
    const double u = rng.next_double();
    size = 1 + static_cast<std::uint64_t>(
                   std::floor(std::log1p(-u) / std::log1p(-p)));
  }
  remaining_ = size - 1;
  return gap;
}

double BatchArrivalProcess::mean_rate() const {
  return base_->mean_rate() * mean_batch_;
}

std::string BatchArrivalProcess::name() const {
  const std::string kind =
      sizes_ == BatchSizes::Fixed ? "fixed" : "geom";
  std::string mean = util::fmt(mean_batch_, 3);
  mean.erase(mean.find_last_not_of('0') + 1);
  if (mean.back() == '.') mean.pop_back();
  return "batch(" + kind + "," + mean + ")/" + base_->name();
}

void BatchArrivalProcess::reset() {
  remaining_ = 0;
  base_->reset();
}

TraceArrivalProcess::TraceArrivalProcess(Trace trace)
    : trace_(std::make_shared<const Trace>(std::move(trace))) {
  trace_->validate();
}

double TraceArrivalProcess::next(Rng& /*rng*/) {
  if (remaining_ > 0) {
    --remaining_;
    return 0.0;
  }
  const std::size_t n = trace_->entries.size();
  const TraceEntry& entry = trace_->entries[cursor_];
  const double epoch =
      static_cast<double>(cycle_) * trace_->horizon + entry.time;
  const double gap = epoch - prev_epoch_;
  prev_epoch_ = epoch;
  remaining_ = entry.batch - 1;
  if (++cursor_ == n) {
    cursor_ = 0;
    ++cycle_;
  }
  return gap;
}

double TraceArrivalProcess::mean_rate() const { return trace_->mean_rate(); }

std::string TraceArrivalProcess::name() const {
  return "trace(" + std::to_string(trace_->total_jobs()) + " jobs/cycle)";
}

void TraceArrivalProcess::reset() {
  cursor_ = 0;
  cycle_ = 0;
  remaining_ = 0;
  prev_epoch_ = 0.0;
}

SinusoidalArrivalProcess::SinusoidalArrivalProcess(double lambda0,
                                                   double amplitude,
                                                   double period)
    : lambda0_(lambda0), amplitude_(amplitude), period_(period) {
  RLB_REQUIRE(lambda0 > 0.0 && std::isfinite(lambda0),
              "base rate lambda0 must be finite and positive");
  RLB_REQUIRE(amplitude >= 0.0 && amplitude <= 1.0,
              "amplitude must be in [0, 1] (rates stay non-negative)");
  RLB_REQUIRE(period > 0.0 && std::isfinite(period),
              "period must be finite and positive");
}

double SinusoidalArrivalProcess::rate_at(double t) const {
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  return lambda0_ * (1.0 + amplitude_ * std::sin(kTwoPi * t / period_));
}

double SinusoidalArrivalProcess::next(Rng& rng) {
  // Thinning (Lewis & Shedler): candidates from a homogeneous Poisson at
  // the peak rate; accept with probability lambda(t) / peak. The draw
  // order — candidate gap, then accept uniform — is fixed, so the stream
  // is a pure function of the seed.
  const double peak = lambda0_ * (1.0 + amplitude_);
  const double start = clock_;
  for (;;) {
    clock_ += rng.exponential(peak);
    if (rng.next_double() * peak < rate_at(clock_))
      return clock_ - start;
  }
}

std::string SinusoidalArrivalProcess::name() const { return "sinusoidal"; }

MmppArrivals MmppArrivals::bursty(double mean_rate, double burst_factor,
                                  double hold) {
  RLB_REQUIRE(mean_rate > 0.0, "mean rate must be positive");
  RLB_REQUIRE(burst_factor > 1.0, "burst factor must exceed 1");
  RLB_REQUIRE(hold > 0.0, "holding time must be positive");
  // Symmetric holding times: phases alternate every `hold` on average, so
  // rates (b*m, (2-b)*m) average to m; clamp the slow phase at 0.
  const double fast = burst_factor * mean_rate;
  const double slow = std::max(0.0, (2.0 - burst_factor) * mean_rate);
  // With asymmetric residual: adjust slow-phase holding so the mean is
  // exact even when clamped: p_fast * fast + (1-p_fast) * slow = mean.
  if (slow == 0.0) {
    // p_fast = mean / fast = 1 / burst_factor; holding times in ratio
    // p_fast : (1 - p_fast) with total scale `hold`.
    const double p_fast = 1.0 / burst_factor;
    const double s_fast = 1.0 / (hold * p_fast * 2.0);
    const double s_slow = 1.0 / (hold * (1.0 - p_fast) * 2.0);
    return MmppArrivals(fast, 0.0, s_fast, s_slow);
  }
  return MmppArrivals(fast, slow, 1.0 / hold, 1.0 / hold);
}

}  // namespace rlb::sim
