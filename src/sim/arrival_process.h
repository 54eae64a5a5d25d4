// Arrival processes for the cluster simulator.
//
// Renewal streams (i.i.d. interarrival draws) cover the paper's Theorem 2
// setting; the Markov-modulated Poisson process (MMPP) implements the
// paper's stated future-work direction of Markov Arrival Processes —
// correlated, bursty traffic that no renewal process can express.
// BatchArrivalProcess compounds batches (fixed or geometric sizes) onto
// any base process — the classic "batch Poisson" traffic when wrapped
// around exponential renewals.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/distributions.h"
#include "sim/rng.h"
#include "sim/trace.h"

namespace rlb::sim {

class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// Time until the next arrival (stateful: successive calls walk the
  /// process).
  [[nodiscard]] virtual double next(Rng& rng) = 0;

  /// Long-run arrival rate.
  [[nodiscard]] virtual double mean_rate() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Return to the initial phase (used between simulation runs).
  virtual void reset() {}

  /// An independent copy for parallel simulation replicas (each replica
  /// must own its mutable process state).
  [[nodiscard]] virtual std::unique_ptr<ArrivalProcess> clone() const = 0;
};

/// I.i.d. interarrival times drawn from a Distribution (renewal process).
class RenewalArrivals final : public ArrivalProcess {
 public:
  explicit RenewalArrivals(const Distribution& interarrival);
  double next(Rng& rng) override;
  [[nodiscard]] double mean_rate() const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::unique_ptr<ArrivalProcess> clone() const override {
    return std::make_unique<RenewalArrivals>(*this);
  }

 private:
  const Distribution& interarrival_;
};

/// Two-phase Markov-modulated Poisson process: Poisson rate r_i while the
/// modulating chain sits in phase i, switching 1->2 at rate s12 and 2->1
/// at rate s21. The canonical simple MAP.
class MmppArrivals final : public ArrivalProcess {
 public:
  MmppArrivals(double rate1, double rate2, double switch12, double switch21);
  double next(Rng& rng) override;
  [[nodiscard]] double mean_rate() const override;
  [[nodiscard]] std::string name() const override;
  void reset() override { phase_ = 0; }
  [[nodiscard]] std::unique_ptr<ArrivalProcess> clone() const override {
    return std::make_unique<MmppArrivals>(*this);
  }

  /// Construct a bursty MMPP with the given mean rate: an "on" phase at
  /// `burst_factor` times the mean rate and a slow background phase, with
  /// mean phase holding time `hold`.
  [[nodiscard]] static MmppArrivals bursty(double mean_rate,
                                           double burst_factor, double hold);

 private:
  double rate_[2];
  double switch_[2];
  int phase_ = 0;
};

/// Batch arrivals over any base process: batches arrive at the base
/// process's epochs, and the jobs of a batch arrive simultaneously (zero
/// interarrival gaps). Batch sizes are deterministic (`Fixed`, integer
/// mean) or geometric on {1, 2, ...} with the given mean (`Geometric`,
/// the compound-Poisson classic when the base is exponential). The mean
/// job rate is base rate x mean batch size — divide the base rate by the
/// batch mean to compare against an unbatched stream at equal load.
class BatchArrivalProcess final : public ArrivalProcess {
 public:
  enum class BatchSizes { Fixed, Geometric };

  /// Takes ownership of `base`. mean_batch >= 1; Fixed requires an
  /// integral mean_batch.
  BatchArrivalProcess(std::unique_ptr<ArrivalProcess> base,
                      double mean_batch,
                      BatchSizes sizes = BatchSizes::Geometric);
  BatchArrivalProcess(const BatchArrivalProcess& other);
  BatchArrivalProcess& operator=(const BatchArrivalProcess&) = delete;

  double next(Rng& rng) override;
  [[nodiscard]] double mean_rate() const override;
  [[nodiscard]] std::string name() const override;
  void reset() override;
  [[nodiscard]] std::unique_ptr<ArrivalProcess> clone() const override {
    return std::make_unique<BatchArrivalProcess>(*this);
  }

 private:
  std::unique_ptr<ArrivalProcess> base_;
  double mean_batch_;
  BatchSizes sizes_;
  std::uint64_t remaining_ = 0;  ///< jobs still due at the current epoch
};

/// Replays a recorded Trace (sim/trace.h) cyclically: arrivals fall at
/// the trace's timestamps, batch entries expand into zero-gap arrivals,
/// and after the last epoch the replay wraps — the gap back to the first
/// epoch is (horizon - last timestamp) + first timestamp, so the trace's
/// trailing quiet period is preserved. Consumes NO randomness: the replay
/// is the same for every seed, and clones replay the same schedule (each
/// replica re-treads the trace from its own t = 0).
class TraceArrivalProcess final : public ArrivalProcess {
 public:
  explicit TraceArrivalProcess(Trace trace);

  double next(Rng& rng) override;
  [[nodiscard]] double mean_rate() const override;
  [[nodiscard]] std::string name() const override;
  void reset() override;
  [[nodiscard]] std::unique_ptr<ArrivalProcess> clone() const override {
    return std::make_unique<TraceArrivalProcess>(*this);
  }

  [[nodiscard]] const Trace& trace() const { return *trace_; }

 private:
  std::shared_ptr<const Trace> trace_;  ///< immutable, shared by clones
  std::size_t cursor_ = 0;              ///< next entry (mod trace size)
  std::uint64_t cycle_ = 0;             ///< completed wrap-arounds
  std::uint32_t remaining_ = 0;         ///< jobs still due at this epoch
  double prev_epoch_ = 0.0;             ///< absolute time of last epoch
};

/// Diurnal arrivals: a nonhomogeneous Poisson process with rate
/// lambda(t) = lambda0 * (1 + amplitude * sin(2 pi t / period)), sampled
/// exactly by thinning — candidate epochs from a homogeneous Poisson at
/// the peak rate lambda0 * (1 + amplitude), each kept with probability
/// lambda(t) / peak (two RNG draws per candidate, a fixed order that
/// keeps replays bit-identical). mean_rate() is lambda0 (the sine
/// integrates to zero over a period).
class SinusoidalArrivalProcess final : public ArrivalProcess {
 public:
  /// lambda0 > 0, 0 <= amplitude <= 1, period > 0.
  SinusoidalArrivalProcess(double lambda0, double amplitude, double period);

  double next(Rng& rng) override;
  [[nodiscard]] double mean_rate() const override { return lambda0_; }
  [[nodiscard]] std::string name() const override;
  void reset() override { clock_ = 0.0; }
  [[nodiscard]] std::unique_ptr<ArrivalProcess> clone() const override {
    return std::make_unique<SinusoidalArrivalProcess>(*this);
  }

  /// The instantaneous rate lambda(t); exposed for the statistical
  /// per-window pins.
  [[nodiscard]] double rate_at(double t) const;

 private:
  double lambda0_;
  double amplitude_;
  double period_;
  double clock_ = 0.0;  ///< absolute time of the last arrival
};

}  // namespace rlb::sim
