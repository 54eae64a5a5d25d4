#include "sim/stats.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "util/require.h"
#include "util/splitmix.h"

namespace rlb::sim {

void StreamingMoments::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void StreamingMoments::merge(const StreamingMoments& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(count_);
  const auto nb = static_cast<double>(other.count_);
  const double n = na + nb;
  const double delta = other.mean_ - mean_;
  mean_ += delta * (nb / n);
  m2_ += other.m2_ + delta * delta * (na * nb / n);
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double StreamingMoments::variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double StreamingMoments::stddev() const { return std::sqrt(variance()); }

MomentsState StreamingMoments::state() const {
  return MomentsState{count_, mean_, m2_, min_, max_};
}

BatchMeans::BatchMeans(std::uint64_t batch_size) : batch_size_(batch_size) {
  RLB_REQUIRE(batch_size >= 1, "batch size must be positive");
}

void BatchMeans::add(double x) {
  batch_sum_ += x;
  if (++in_batch_ == batch_size_) {
    batch_means_.add(batch_sum_ / static_cast<double>(batch_size_));
    in_batch_ = 0;
    batch_sum_ = 0.0;
  }
}

void BatchMeans::merge(const BatchMeans& other) {
  RLB_REQUIRE(batch_size_ == other.batch_size_,
              "cannot merge BatchMeans with different batch sizes");
  batch_means_.merge(other.batch_means_);
}

std::uint64_t BatchMeans::completed_batches() const {
  return batch_means_.count();
}

double BatchMeans::mean() const { return batch_means_.mean(); }

double BatchMeans::half_width(double confidence) const {
  const std::uint64_t b = batch_means_.count();
  if (b < 2) return 0.0;
  return t_quantile(confidence, b - 1) * batch_means_.stddev() /
         std::sqrt(static_cast<double>(b));
}

double BatchMeans::half_width_or_infinity(double confidence) const {
  if (completed_batches() < 2)
    return std::numeric_limits<double>::infinity();
  return half_width(confidence);
}

BatchMeansState BatchMeans::state() const {
  return BatchMeansState{batch_size_, in_batch_, batch_sum_,
                         batch_means_.state()};
}

WeightedBatchMeans::WeightedBatchMeans(std::uint64_t batch_size)
    : batch_size_(batch_size) {
  RLB_REQUIRE(batch_size >= 1, "batch size must be positive");
}

void WeightedBatchMeans::add(double x, double weight) {
  batch_wsum_ += weight;
  batch_wxsum_ += weight * x;
  if (++in_batch_ == batch_size_) {
    // Zero total weight cannot happen in the simulators (holding times
    // are positive), but guard the division anyway.
    batch_stats_.add(batch_wsum_ > 0.0 ? batch_wxsum_ / batch_wsum_ : 0.0);
    in_batch_ = 0;
    batch_wsum_ = 0.0;
    batch_wxsum_ = 0.0;
  }
}

void WeightedBatchMeans::merge(const WeightedBatchMeans& other) {
  RLB_REQUIRE(batch_size_ == other.batch_size_,
              "cannot merge WeightedBatchMeans with different batch sizes");
  batch_stats_.merge(other.batch_stats_);
}

std::uint64_t WeightedBatchMeans::completed_batches() const {
  return batch_stats_.count();
}

double WeightedBatchMeans::mean() const { return batch_stats_.mean(); }

double WeightedBatchMeans::half_width(double confidence) const {
  const std::uint64_t b = batch_stats_.count();
  if (b < 2) return 0.0;
  return t_quantile(confidence, b - 1) * batch_stats_.stddev() /
         std::sqrt(static_cast<double>(b));
}

double WeightedBatchMeans::half_width_or_infinity(double confidence) const {
  if (completed_batches() < 2)
    return std::numeric_limits<double>::infinity();
  return half_width(confidence);
}

ReservoirQuantiles::ReservoirQuantiles(std::size_t capacity,
                                       std::uint64_t seed)
    : capacity_(capacity), rng_state_(seed * 0x9e3779b97f4a7c15ull + 1) {
  RLB_REQUIRE(capacity >= 1, "reservoir capacity must be positive");
  sample_.reserve(capacity);
}

std::uint64_t ReservoirQuantiles::next_random() {
  return util::splitmix64_next(rng_state_);
}

void ReservoirQuantiles::add(double x) {
  ++seen_;
  sorted_ = false;
  if (sample_.size() < capacity_) {
    sample_.push_back(x);
    return;
  }
  const std::uint64_t slot = next_random() % seen_;
  if (slot < capacity_) sample_[slot] = x;
}

void ReservoirQuantiles::merge(const ReservoirQuantiles& other) {
  RLB_REQUIRE(capacity_ == other.capacity_,
              "cannot merge reservoirs with different capacities");
  if (other.seen_ == 0) return;
  sorted_ = false;
  if (seen_ == 0) {
    seen_ = other.seen_;
    sample_ = other.sample_;
    rng_state_ ^= other.rng_state_ * 0x9e3779b97f4a7c15ull + 1;
    return;
  }
  // A reservoir shorter than its capacity holds its whole stream, so two
  // such reservoirs that fit together concatenate exactly.
  if (seen_ == sample_.size() && other.seen_ == other.sample_.size() &&
      sample_.size() + other.sample_.size() <= capacity_) {
    sample_.insert(sample_.end(), other.sample_.begin(),
                   other.sample_.end());
    seen_ += other.seen_;
    return;
  }
  // Weighted without-replacement subsample of the union: each retained
  // element stands for seen/|sample| stream items, so a slot is filled
  // from the source whose remaining represented mass wins a proportional
  // coin flip, then a uniform element of that source is consumed.
  std::vector<double> a = std::move(sample_);
  std::vector<double> b = other.sample_;
  const double mass_a =
      static_cast<double>(seen_) / static_cast<double>(a.size());
  const double mass_b =
      static_cast<double>(other.seen_) / static_cast<double>(b.size());
  rng_state_ ^= other.rng_state_ * 0x9e3779b97f4a7c15ull + 1;
  sample_.clear();
  const std::size_t target = std::min(capacity_, a.size() + b.size());
  while (sample_.size() < target) {
    const double wa = mass_a * static_cast<double>(a.size());
    const double wb = mass_b * static_cast<double>(b.size());
    const double u = static_cast<double>(next_random() >> 11) *
                     0x1.0p-53 * (wa + wb);
    auto& src = (b.empty() || (!a.empty() && u < wa)) ? a : b;
    const std::size_t idx =
        static_cast<std::size_t>(next_random() % src.size());
    sample_.push_back(src[idx]);
    src[idx] = src.back();
    src.pop_back();
  }
  seen_ += other.seen_;
}

ReservoirState ReservoirQuantiles::state() const {
  return ReservoirState{static_cast<std::uint64_t>(capacity_), seen_,
                        rng_state_, sample_};
}

double ReservoirQuantiles::quantile(double q) const {
  RLB_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  RLB_REQUIRE(!sample_.empty(), "quantile of empty stream");
  if (!sorted_) {
    scratch_ = sample_;
    std::sort(scratch_.begin(), scratch_.end());
    sorted_ = true;
  }
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(scratch_.size() - 1) + 0.5);
  return scratch_[std::min(rank, scratch_.size() - 1)];
}

namespace {

/// One confidence level's clamped lookup: exact entries for df = 1..30,
/// then the conventional 30 < df < 60 and 60 <= df < 120 bands, then the
/// normal quantile.
struct TQuantileTable {
  std::array<double, 31> exact;  // index = df; [0] unused
  double below_60;
  double below_120;
  double normal;

  [[nodiscard]] double lookup(std::uint64_t df) const {
    if (df == 0) return exact[1];
    if (df < exact.size()) return exact[df];
    if (df < 60) return below_60;
    if (df < 120) return below_120;
    return normal;
  }
};

constexpr TQuantileTable kT90 = {
    {0.0,   6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895,
     1.860, 1.833, 1.812, 1.796, 1.782, 1.771, 1.761, 1.753,
     1.746, 1.740, 1.734, 1.729, 1.725, 1.721, 1.717, 1.714,
     1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697},
    1.68,
    1.66,
    1.645};

constexpr TQuantileTable kT95 = {
    {0.0,   12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365,
     2.306, 2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131,
     2.120, 2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069,
     2.064, 2.060,  2.056, 2.052, 2.048, 2.045, 2.042},
    2.00,
    1.98,
    1.96};

constexpr TQuantileTable kT99 = {
    {0.0,   63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499,
     3.355, 3.250,  3.169, 3.106, 3.055, 3.012, 2.977, 2.947,
     2.921, 2.898,  2.878, 2.861, 2.845, 2.831, 2.819, 2.807,
     2.797, 2.787,  2.779, 2.771, 2.763, 2.756, 2.750},
    2.66,
    2.62,
    2.576};

}  // namespace

double t_quantile(double confidence, std::uint64_t df) {
  if (confidence == 0.90) return kT90.lookup(df);
  if (confidence == 0.95) return kT95.lookup(df);
  if (confidence == 0.99) return kT99.lookup(df);
  throw std::invalid_argument(
      "unsupported confidence level (the t-quantile table covers 0.90, "
      "0.95, 0.99)");
}

}  // namespace rlb::sim
