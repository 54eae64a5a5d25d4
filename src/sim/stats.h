// Streaming statistics: Welford moments and batch-means confidence
// intervals (the standard way to get CIs from autocorrelated steady-state
// simulation output).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rlb::sim {

/// The full internal state of a StreamingMoments, exposed so tests can
/// compare two estimators bit for bit (the compact engine against its
/// per-server oracle in tests/test_compact_cluster.cpp).
struct MomentsState {
  std::uint64_t count = 0;
  double mean = 0.0;
  double m2 = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Numerically stable running mean/variance plus extrema.
class StreamingMoments {
 public:
  void add(double x);

  /// Fold another stream's moments into this one (Chan et al. parallel
  /// combine), as if both streams had been added to a single instance.
  /// Exact for count/mean/min/max; variance matches a single stream up to
  /// floating-point reassociation.
  void merge(const StreamingMoments& other);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double variance() const;  ///< sample variance (n-1)
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

  /// The exact internal state (see MomentsState).
  [[nodiscard]] MomentsState state() const;

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// The full internal state of a BatchMeans, including the open partial
/// batch, for bit-for-bit comparison in tests (see MomentsState).
struct BatchMeansState {
  std::uint64_t batch_size = 1;
  std::uint64_t in_batch = 0;
  double batch_sum = 0.0;
  MomentsState batch_means;
};

/// Batch means: observations are grouped into fixed-size batches; the batch
/// means are treated as approximately independent normal samples.
class BatchMeans {
 public:
  explicit BatchMeans(std::uint64_t batch_size);

  void add(double x);

  /// Fold another estimator's COMPLETED batches into this one; both must
  /// use the same batch size. `other`'s trailing partial batch is
  /// discarded — observations from different replicas are not contiguous,
  /// so gluing partial batches would fabricate a batch mean spanning
  /// independent streams. After merging R replicas the confidence
  /// interval is the honest pooled one: Student t with df = total
  /// completed batches - 1.
  void merge(const BatchMeans& other);

  [[nodiscard]] std::uint64_t completed_batches() const;
  [[nodiscard]] double mean() const;  ///< over completed batches

  /// Half-width of the two-sided confidence interval at `confidence`
  /// (Student t over the batch means, df = completed batches - 1); 0
  /// while fewer than two batches completed. `confidence` must be a
  /// level the t-quantile table supports (see t_quantile).
  [[nodiscard]] double half_width(double confidence) const;

  /// half_width(confidence), except +infinity while fewer than two
  /// batches completed — the spelling sequential-stopping rules must
  /// use: the bare half_width's 0 would read as "infinitely tight" and
  /// stop a run that has no interval yet.
  [[nodiscard]] double half_width_or_infinity(double confidence) const;

  /// The exact internal state (see BatchMeansState).
  [[nodiscard]] BatchMeansState state() const;

 private:
  std::uint64_t batch_size_;
  std::uint64_t in_batch_ = 0;
  double batch_sum_ = 0.0;
  StreamingMoments batch_means_;
};

/// Weighted batch means for time-average statistics: add(x, w) feeds an
/// observation with weight w (e.g. a state value weighted by its holding
/// time); every `batch_size` observations close one batch whose statistic
/// is the weighted mean sum(w*x)/sum(w). Batch statistics are treated as
/// approximately independent samples, exactly like BatchMeans, so the
/// bound-model simulators get honest pooled CIs on their time averages.
class WeightedBatchMeans {
 public:
  explicit WeightedBatchMeans(std::uint64_t batch_size);

  void add(double x, double weight);

  /// Fold another estimator's COMPLETED batches into this one; both must
  /// use the same batch size. `other`'s trailing partial batch is
  /// discarded (see BatchMeans::merge); pooled df = total completed
  /// batches - 1.
  void merge(const WeightedBatchMeans& other);

  [[nodiscard]] std::uint64_t completed_batches() const;
  [[nodiscard]] double mean() const;  ///< over completed batch statistics

  /// Half-width of the two-sided CI at `confidence` over the batch
  /// statistics; 0 while fewer than two batches completed.
  [[nodiscard]] double half_width(double confidence) const;

  /// As BatchMeans::half_width_or_infinity: +infinity below two batches,
  /// for sequential-stopping rules.
  [[nodiscard]] double half_width_or_infinity(double confidence) const;

 private:
  std::uint64_t batch_size_;
  std::uint64_t in_batch_ = 0;
  double batch_wsum_ = 0.0;
  double batch_wxsum_ = 0.0;
  StreamingMoments batch_stats_;
};

/// Two-sided Student-t quantile at `confidence` for `df` degrees of
/// freedom (clamped table lookup, converging to the normal quantile for
/// large df). Supported confidence levels: 0.90, 0.95, 0.99; anything
/// else throws — the tables are the documented statistics contract
/// (docs/PRECISION.md), not an approximation surface.
double t_quantile(double confidence, std::uint64_t df);

/// The full internal state of a ReservoirQuantiles: the retained sample,
/// the stream count it represents, and the sampler's RNG state, for
/// bit-for-bit comparison in tests (see MomentsState).
struct ReservoirState {
  std::uint64_t capacity = 1;
  std::uint64_t seen = 0;
  std::uint64_t rng_state = 0;
  std::vector<double> sample;
};

/// Streaming quantile estimation by uniform reservoir sampling: holds a
/// fixed-size uniform sample of the stream and answers arbitrary quantile
/// queries from it. Error ~ 1/sqrt(capacity) in probability, which is
/// plenty for reporting p50/p95/p99 of simulated sojourn times.
class ReservoirQuantiles {
 public:
  explicit ReservoirQuantiles(std::size_t capacity, std::uint64_t seed = 1);

  void add(double x);

  /// Fold another reservoir (same capacity) into this one. Exact — a
  /// plain concatenation — while both streams were fully retained and fit
  /// together; otherwise a weighted without-replacement subsample of the
  /// two reservoirs, each element representing its stream share, which
  /// keeps the ~1/sqrt(capacity) quantile error of a single-stream
  /// reservoir. Deterministic given the merge order (replica-index order
  /// under sim/replica.h).
  void merge(const ReservoirQuantiles& other);

  [[nodiscard]] std::uint64_t count() const { return seen_; }

  /// Quantile q in [0, 1] of the sampled distribution (nearest-rank).
  /// Requires at least one observation.
  [[nodiscard]] double quantile(double q) const;

  /// The exact internal state (see ReservoirState).
  [[nodiscard]] ReservoirState state() const;

 private:
  std::uint64_t next_random();

  std::size_t capacity_;
  std::uint64_t seen_ = 0;
  std::uint64_t rng_state_;
  std::vector<double> sample_;
  mutable bool sorted_ = false;
  mutable std::vector<double> scratch_;
};

}  // namespace rlb::sim
