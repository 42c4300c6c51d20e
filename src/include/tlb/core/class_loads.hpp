#pragma once
// Class-count state of the grouped Algorithm 6.1, shared by
// GroupedUserEngine (static task set) and DynamicUserEngine (churn).
//
// Tasks of equal weight are interchangeable, so a resource is described by
// how many tasks of each weight class it holds. ClassLoads keeps those n×C
// counts together with the per-resource loads, the task counts b_r and the
// incremental OverloadedSet, and runs the two halves of one grouped round:
//
//   sample(): for every overloaded resource r, φ_r under the canonical
//     ascending-weight stacking, p = α·⌈φ_r/w_max⌉/b_r, and per class the
//     exact Binomial(count, p) number of leavers — distributionally the
//     same as one coin per task.
//   apply():  remove every sampled departure, then scatter each leaving
//     task to a uniform resource drawn from the caller's stream.
//
// sample() shards the overloaded list with a fixed grain; shard s draws
// from Rng(derive_seed(round_seed, s)) into its own buffer while only
// reading the round-start counts, and apply() walks the buffers in shard
// order on the calling thread. Shard boundaries depend only on the
// overloaded list, so results are bitwise identical for every pool size.
//
// complete() is the churn engine's service step: every task finishes
// independently with probability p, drawn as one geometric-skip thinning
// pass over the tasks in resource-major, ascending-class order.
//
// The owning engine decides everything else: which class a task belongs
// to, the thresholds in force, and any arrivals or crashes (through
// add/remove/clear, which keep the tracker informed).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "tlb/core/load_stats.hpp"
#include "tlb/core/overloaded_set.hpp"
#include "tlb/graph/graph.hpp"
#include "tlb/util/rng.hpp"
#include "tlb/util/thread_pool.hpp"

namespace tlb::dsan {
class Digest;
class StepProbe;
}  // namespace tlb::dsan

namespace tlb::core {

/// Algorithm 6.1's leave probability α·⌈φ/w_max⌉/b clamped to [0, 1]; 0
/// when the resource is empty or not overloaded.
inline double leave_probability(double alpha, double phi, double w_max,
                                std::size_t b) {
  if (b == 0 || phi <= 0.0) return 0.0;
  const double p = alpha * std::ceil(phi / w_max) / static_cast<double>(b);
  return std::min(p, 1.0);
}

/// A uniform destination among n resources; with `exclude_self`, uniform
/// over the n-1 resources other than `src`.
inline graph::Node sample_destination(graph::Node n, graph::Node src,
                                      bool exclude_self, util::Rng& rng) {
  if (!exclude_self) return static_cast<graph::Node>(rng.uniform_below(n));
  auto d = static_cast<graph::Node>(rng.uniform_below(n - 1));
  return d >= src ? d + 1 : d;
}

/// The threshold of each resource: `per_resource[r]`, or `uniform` for
/// every r when `per_resource` is null.
struct ThresholdOf {
  const double* per_resource = nullptr;
  double uniform = 0.0;
  double operator()(graph::Node r) const noexcept {
    return per_resource != nullptr ? per_resource[r] : uniform;
  }
};

class ClassLoads {
 public:
  /// Overloaded-list shard grain of sample() (per-class binomials are
  /// cheap, so shards batch whole resources). Part of the deterministic
  /// stream definition; changing it changes results.
  static constexpr std::size_t kShardGrain = 512;

  ClassLoads() = default;
  /// `class_weights` must be ascending and distinct.
  explicit ClassLoads(std::vector<double> class_weights)
      : class_weights_(std::move(class_weights)) {}

  /// n empty resources; the tracker is rebuilt with every status pending.
  void reset(graph::Node n);

  /// One task of class `cls` lands on r.
  void add(graph::Node r, std::size_t cls) {
    ++counts_[slot(r, cls)];
    loads_[r] += class_weights_[cls];
    ++task_counts_[r];
    over_.mark_dirty(r);
  }
  /// `k` tasks of class `cls` leave r.
  void remove(graph::Node r, std::size_t cls, std::uint32_t k) {
    counts_[slot(r, cls)] -= k;
    loads_[r] -= static_cast<double>(k) * class_weights_[cls];
    task_counts_[r] -= k;
    over_.mark_dirty(r);
  }
  /// Every task leaves r (its load is set to exactly 0).
  void clear(graph::Node r);

  /// Every task finishes independently with probability p (a Bernoulli(p)
  /// thinning of the tasks in resource-major, ascending-class order). The
  /// gaps between completions are i.i.d. Geometric(p), so one draw from
  /// `rng` per completion (plus the one that runs past the last task)
  /// gives every slot exactly Binomial(k, p) completions, independently.
  /// Only resources a completion lands on are descended into: O(n + D·C)
  /// per call for D completions. Each slot's completions are removed and
  /// reported as on_done(r, cls, done), in ascending (r, cls) order.
  /// p <= 0 completes nothing and p >= 1 completes everything; neither
  /// draws.
  template <class OnDone>
  void complete(double p, util::Rng& rng, OnDone&& on_done);

  std::size_t num_classes() const noexcept { return class_weights_.size(); }
  double weight(std::size_t cls) const noexcept { return class_weights_[cls]; }
  std::uint32_t count(graph::Node r, std::size_t cls) const noexcept {
    return counts_[slot(r, cls)];
  }
  double load(graph::Node r) const noexcept { return loads_[r]; }
  const std::vector<double>& loads() const noexcept { return loads_; }

  /// φ_r against threshold T under the canonical ascending stacking: the
  /// load minus the largest class-ordered prefix that fits completely
  /// below T (0 when load <= T).
  double phi(graph::Node r, double T) const;
  /// Σ φ_r over the overloaded resources, in ascending resource order.
  double potential(ThresholdOf threshold_of) const;

  /// The resources with load > threshold_of(r), ascending (the tracker is
  /// reconciled on access). Stable until the next mutation + query.
  const std::vector<graph::Node>& overloaded(ThresholdOf threshold_of) const {
    over_.flush([&](graph::Node r) { return loads_[r] > threshold_of(r); });
    return over_.items();
  }
  /// Throw std::logic_error naming `who` if the tracked set disagrees with
  /// a brute-force rescan.
  void audit(ThresholdOf threshold_of, const char* who) const {
    over_.audit(
        n_, [&](graph::Node r) { return loads_[r] > threshold_of(r); }, who);
  }
  /// A global threshold moved: re-check only the band of loads between.
  void shift_threshold(double from, double to) {
    over_.shift_threshold(from, to,
                          [this](graph::Node r) { return loads_[r]; });
  }
  /// The incremental overloaded tracker (work counters, tests).
  const OverloadedSet& tracker() const noexcept { return over_; }

  /// Phase 1: draw the departures of every resource in `over` (a list
  /// returned by overloaded()) into the shard buffers.
  void sample(const std::vector<graph::Node>& over, std::uint64_t round_seed,
              double alpha, double w_max, ThresholdOf threshold_of,
              util::ThreadPool* pool, dsan::StepProbe* probe);
  /// Fold the last sample's shard buffers (shard count, then per shard its
  /// size and every (src, class, count)).
  void digest_departures(dsan::Digest& d) const;
  /// (resource, class) departure groups drawn by the last sample().
  std::size_t departure_groups() const noexcept;
  /// Phase 2: apply the last sample's departures in shard order; returns
  /// the number of tasks moved.
  std::size_t apply(util::Rng& rng, bool exclude_self);

  /// Heaviest resource: served by the tracker's load index while it is
  /// live (a threshold shift armed it), else an O(n) scan.
  double max_load() const;
  /// Deterministic load-distribution snapshot against threshold T,
  /// index-served when the tracker's index is live.
  void load_stats(LoadStatsCalc& calc, double T, LoadStats& out) const;
  /// Fold every row: load, b_r, then the class counts.
  void digest_rows(dsan::Digest& d) const;
  /// Fold the tracker bookkeeping: the overloaded list as of the last
  /// flush plus its dirty/flush counters. Never flushes.
  void digest_tracker(dsan::Digest& d) const;

 private:
  /// One (resource, class) departure drawn in phase 1, applied in phase 2.
  struct Departure {
    graph::Node src;
    std::uint32_t cls;
    std::uint32_t count;
  };

  std::size_t slot(graph::Node r, std::size_t cls) const noexcept {
    return static_cast<std::size_t>(r) * class_weights_.size() + cls;
  }

  std::vector<double> class_weights_;       // ascending
  graph::Node n_ = 0;
  std::vector<std::uint32_t> counts_;       // n_ x C, row-major
  std::vector<double> loads_;               // per resource
  std::vector<std::uint32_t> task_counts_;  // per resource (b_r)
  mutable OverloadedSet over_;              // incremental overloaded set
  std::vector<std::vector<Departure>> shard_bufs_;  // phase-1 output
  std::size_t shards_ = 0;                  // shards of the last sample()
};

template <class OnDone>
void ClassLoads::complete(double p, util::Rng& rng, OnDone&& on_done) {
  if (!(p > 0.0)) return;
  // Saturation value of a gap: larger than any task count, and small
  // enough that adding a slot position to it cannot wrap.
  constexpr std::uint64_t kGapCap = std::uint64_t{1} << 62;
  const double log_q = std::log1p(-p);
  // Geometric(p) failures before the next success, by inversion:
  // ⌊log(1−U)/log(1−p)⌋. Saturates at kGapCap when p is so small that the
  // quotient leaves uint64 range.
  const auto gap = [&]() -> std::uint64_t {
    if (p >= 1.0) return 0;
    const double g = std::floor(std::log(1.0 - rng.uniform01()) / log_q);
    return g < static_cast<double>(kGapCap) ? static_cast<std::uint64_t>(g)
                                            : kGapCap;
  };
  // `skip`: tasks to pass over before the next completion, counted from the
  // start of the current resource (inside a row, of the current slot).
  std::uint64_t skip = gap();
  const std::size_t C = class_weights_.size();
  for (graph::Node r = 0; r < n_; ++r) {
    const std::uint32_t b = task_counts_[r];
    if (skip >= b) {
      skip -= b;
      continue;
    }
    for (std::size_t c = 0; c < C; ++c) {
      const std::uint32_t k = counts_[slot(r, c)];
      std::uint32_t done = 0;
      for (; skip < k; skip += 1 + gap()) ++done;
      skip -= k;
      if (done == 0) continue;
      remove(r, c, done);
      on_done(r, c, done);
    }
  }
}

}  // namespace tlb::core
