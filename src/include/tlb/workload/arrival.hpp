#pragma once
// Arrival/departure processes for the dynamic setting, behind one interface
// so the scenario runner (and core::DynamicUserEngine via its arrival hook)
// can compose any of them with any weight model.
//
// Grammar accepted by parse_arrival_process():
//   batch                     everything placed at t = 0, nothing departs
//                             (the paper's static model; run-to-balance)
//   poisson(rate[,mu])        Poisson(rate) arrivals per round; each live
//                             task completes with probability mu per round
//                             (default 0.02) — steady population ≈ rate/mu
//   burst(period,size[,mu])   adversarial spike: `size` tasks land together
//                             every `period` rounds, none in between; same
//                             per-round completion probability mu

#include <cstdint>
#include <memory>
#include <string>

#include "tlb/util/rng.hpp"

namespace tlb::workload {

/// Abstract arrival process: how many tasks join the system in each round.
class ArrivalProcess {
 public:
  virtual ~ArrivalProcess() = default;

  /// Number of tasks arriving in round `round` (0-based).
  virtual std::uint64_t arrivals(long round, util::Rng& rng) const = 0;

  /// Per-task completion probability per round (0 = tasks never finish).
  virtual double completion_rate() const noexcept { return 0.0; }

  /// Mean arrivals per round (for sizing warm-up and sanity checks).
  virtual double mean_rate() const noexcept = 0;

  /// Canonical spec string; parse_arrival_process() round-trips it.
  virtual std::string name() const = 0;
};

/// Static batch: all tasks present at t = 0, no churn.
class BatchArrivals final : public ArrivalProcess {
 public:
  std::uint64_t arrivals(long round, util::Rng& rng) const override;
  double mean_rate() const noexcept override { return 0.0; }
  std::string name() const override;
};

/// Poisson churn: Poisson(rate) fresh tasks per round, geometric lifetimes.
class PoissonArrivals final : public ArrivalProcess {
 public:
  PoissonArrivals(double rate, double completion);
  std::uint64_t arrivals(long round, util::Rng& rng) const override;
  double completion_rate() const noexcept override { return completion_; }
  double mean_rate() const noexcept override { return rate_; }
  std::string name() const override;

 private:
  double rate_;
  double completion_;
};

/// Bursty/adversarial spikes: `size` tasks every `period` rounds.
class BurstArrivals final : public ArrivalProcess {
 public:
  BurstArrivals(long period, std::uint64_t size, double completion);
  std::uint64_t arrivals(long round, util::Rng& rng) const override;
  double completion_rate() const noexcept override { return completion_; }
  double mean_rate() const noexcept override {
    return static_cast<double>(size_) / static_cast<double>(period_);
  }
  std::string name() const override;

 private:
  long period_;
  std::uint64_t size_;
  double completion_;
};

/// Parse an arrival-process spec (grammar above). Throws
/// std::invalid_argument naming the bad spec.
std::unique_ptr<ArrivalProcess> parse_arrival_process(const std::string& spec);

/// One-line grammar summary for --help output.
std::string arrival_process_grammar();

/// Sample Poisson(mean) deterministically from `rng` (Knuth multiplication
/// for small means, normal approximation above 64). Exposed for tests.
std::uint64_t sample_poisson(util::Rng& rng, double mean);

}  // namespace tlb::workload
