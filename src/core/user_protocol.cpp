#include "tlb/core/user_protocol.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "tlb/core/potential.hpp"
#include "tlb/dsan/probe.hpp"
#include "tlb/dsan/state_digest.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/util/parallel.hpp"
#include "tlb/util/validate.hpp"

namespace tlb::core {

namespace {

/// Phase-1 worker pool for an engine: none when threads == 1 (sampling runs
/// inline on the calling thread over the same shard partition), else a pool
/// of `threads` workers (0 = hardware concurrency) reused across rounds.
std::unique_ptr<util::ThreadPool> make_phase1_pool(std::size_t threads) {
  if (threads == 1) return nullptr;
  return std::make_unique<util::ThreadPool>(threads);
}

/// Resolve the scalar-or-vector threshold configuration into a dense
/// per-resource vector (shared by both engines). `who` names the threshold
/// in error messages, e.g. "GroupedUserEngine: threshold".
std::vector<double> resolve_thresholds(const UserProtocolConfig& config,
                                       graph::Node n, const char* who) {
  if (config.thresholds.empty()) {
    return std::vector<double>(
        n, util::require_finite_positive(config.threshold, who));
  }
  if (config.thresholds.size() != n) {
    throw std::invalid_argument(std::string(who) +
                                "s: size must equal resource count");
  }
  for (double t : config.thresholds) util::require_finite_positive(t, who);
  return config.thresholds;
}

}  // namespace

std::optional<std::vector<double>> distinct_weights_capped(
    const tasks::TaskSet& ts, std::size_t max_classes) {
  std::vector<double> distinct;
  distinct.reserve(max_classes + 1);
  for (double w : ts.weights()) {
    const auto it = std::lower_bound(distinct.begin(), distinct.end(), w);
    if (it != distinct.end() && *it == w) continue;
    if (distinct.size() == max_classes) return std::nullopt;
    distinct.insert(it, w);
  }
  return distinct;
}

// ---------------------------------------------------------------------------
// Exact engine
// ---------------------------------------------------------------------------

UserControlledEngine::UserControlledEngine(const tasks::TaskSet& ts, Node n,
                                           UserProtocolConfig config)
    : tasks_(&ts), config_(std::move(config)), state_(ts, n) {
  if (config_.thresholds.empty()) {
    uniform_threshold_ = util::require_finite_positive(
        config_.threshold, "UserControlledEngine: threshold");
    max_threshold_ = uniform_threshold_;
  } else {
    thresholds_ =
        resolve_thresholds(config_, n, "UserControlledEngine: threshold");
    max_threshold_ = *std::max_element(thresholds_.begin(), thresholds_.end());
  }
  util::require_finite_positive(config_.alpha, "UserControlledEngine: alpha");
  if (n < 2) throw std::invalid_argument("UserControlledEngine: need n >= 2");
  if (thresholds_.empty()) {
    state_.set_thresholds(uniform_threshold_);
  } else {
    state_.set_thresholds(thresholds_);
  }
  pool_ = make_phase1_pool(config_.options.threads);
  instr_ = {{config_.options.registry, config_.options.trace},
            config_.options.dsan};
  if (obs::Registry* reg = instr_.sink.registry) {
    using obs::MetricClass;
    m_sample_ns_ = reg->counter("exact.sample_ns", MetricClass::kTiming);
    m_merge_ns_ = reg->counter("exact.merge_ns", MetricClass::kTiming);
    m_apply_ns_ = reg->counter("exact.apply_ns", MetricClass::kTiming);
    m_coins_ = reg->counter("exact.coins", MetricClass::kDeterministic);
    m_departures_ =
        reg->counter("exact.departures", MetricClass::kDeterministic);
  }
  deltas_.attach(instr_.sink.registry, "exact", state_.overloaded_tracker());
  instr_.attach_pool(pool_.get());
}

void UserControlledEngine::reset(const tasks::Placement& placement) {
  state_.place(placement, /*threshold=*/-1.0);  // plain stacking
}

std::size_t UserControlledEngine::step(util::Rng& rng) {
  const Node n = state_.num_resources();
  const double w_max = tasks_->max_weight();
  dsan::StepProbe* const probe = instr_.probe;
  if (probe != nullptr) probe->begin_step(rng);
  // Per-round base seed for the sharded sampler, drawn from the caller's
  // stream so a run is still a pure function of the initial seed. Every
  // shard below derives its private stream from (round_seed, shard).
  const std::uint64_t round_seed = rng();

  // Phase 1a: freeze the round-start state the departure decisions are
  // analysed against — per-resource leave probability p_r, and the flat
  // layout of candidate coins: positions coin_prefix_[i]..coin_prefix_[i+1]
  // are the stack positions of overloaded()[i]. Only overloaded resources
  // can lose tasks, and the state tracks them incrementally. Mutations
  // later only mark resources dirty; the list stays stable until the next
  // query, so holding the reference across the round is safe.
  const std::vector<Node>& over = state_.overloaded();
  const std::size_t k = over.size();
  coin_prefix_.resize(k + 1);
  leave_p_.resize(k);
  std::size_t total = 0;

  // Phase 1b worker: flip the coins of one shard. Sharding the flat coin
  // index space (rather than the overloaded list) keeps the all-on-one
  // initial round parallel too. Shards only read the frozen arrays and
  // write disjoint mask bytes, so the pass is race-free and bitwise
  // independent of the thread count.
  const auto flip_coins = [this, round_seed, probe](std::size_t shard,
                                                    std::size_t lo,
                                                    std::size_t hi) {
    util::Rng srng(util::derive_seed(round_seed, shard));
    if (probe != nullptr) srng.attach_probe(probe->shard_slot(shard));
    std::uint64_t expected_draws = 0;
    // Resource index whose coin range contains lo.
    std::size_t i = static_cast<std::size_t>(
                        std::upper_bound(coin_prefix_.begin(),
                                         coin_prefix_.end(), lo) -
                        coin_prefix_.begin()) -
                    1;
    std::size_t pos = lo;
    while (pos < hi) {
      while (coin_prefix_[i + 1] <= pos) ++i;
      const std::size_t end = std::min(hi, coin_prefix_[i + 1]);
      const double p = leave_p_[i];
      if (p >= 1.0) {
        // Deterministic all-leave: p is a pure function of the frozen
        // round-start state, so skipping the draws is thread-invariant.
        std::fill(flat_mask_.begin() + static_cast<std::ptrdiff_t>(pos),
                  flat_mask_.begin() + static_cast<std::ptrdiff_t>(end),
                  std::uint8_t{1});
      } else if (p > 0.0) {
        // Integer-threshold coin: success iff the raw 64-bit draw falls
        // below p * 2^64 (p < 1 keeps the product below 2^64).
        const auto cut = static_cast<std::uint64_t>(p * 0x1.0p64);
        // Exactly one draw per coin with 0 < p < 1 — the one shard budget
        // the stream discipline pins exactly (dsan checks it).
        expected_draws += end - pos;
        for (std::size_t c = pos; c < end; ++c) {
          if (srng() < cut) flat_mask_[c] = 1;
        }
      }
      pos = end;
    }
    if (probe != nullptr) probe->expect_shard_draws(shard, expected_draws);
  };
  instr_.phase(
      m_sample_ns_, "exact.sample", "sample",
      [&] {
        for (std::size_t i = 0; i < k; ++i) {
          const ResourceStack stack = std::as_const(state_).stack(over[i]);
          coin_prefix_[i] = total;
          total += stack.count();
          const double phi = stack.phi(*tasks_, threshold(over[i]));
          leave_p_[i] =
              leave_probability(config_.alpha, phi, w_max, stack.count());
        }
        coin_prefix_[k] = total;
        flat_mask_.assign(total, 0);
        if (probe != nullptr) {
          probe->arm_shards(util::shard_count(total, kCoinShardGrain));
        }
        util::parallel_shard(total, kCoinShardGrain, pool_.get(), flip_coins);
      },
      [&](dsan::Digest& d) {
        d.u64(total);
        for (std::size_t c = 0; c < total; ++c) d.u64(flat_mask_[c]);
      });

  // Phase 1c: apply the removals on the calling thread, in overloaded-list
  // order — single-threaded mutation, deterministic merge.
  movers_.clear();
  mover_origin_.clear();
  instr_.phase(
      m_merge_ns_, "exact.merge", "merge",
      [&] {
        for (std::size_t i = 0; i < k; ++i) {
          const std::size_t count = coin_prefix_[i + 1] - coin_prefix_[i];
          if (count == 0) continue;
          const std::uint8_t* mask = flat_mask_.data() + coin_prefix_[i];
          if (std::memchr(mask, 1, count) == nullptr) continue;
          const std::size_t before = movers_.size();
          state_.remove_marked(over[i], mask, count, movers_);
          mover_origin_.insert(mover_origin_.end(), movers_.size() - before,
                               over[i]);
        }
      },
      [&](dsan::Digest& d) {
        d.u64(movers_.size());
        for (std::size_t i = 0; i < movers_.size(); ++i) {
          d.u64(movers_[i]);
          d.u64(mover_origin_[i]);
        }
      });

  // Phase 2: scatter to uniformly random resources.
  instr_.phase(
      m_apply_ns_, "exact.apply", "apply",
      [&] {
        for (std::size_t i = 0; i < movers_.size(); ++i) {
          const Node dst = sample_destination(n, mover_origin_[i],
                                              config_.exclude_self, rng);
          state_.push(dst, movers_[i]);
        }
      },
      [&](dsan::Digest& d) { dsan::digest_loads(state_.loads(), d); });
  if (probe != nullptr) probe->end_step(rng);

  instr_.add(m_coins_, total);
  instr_.add(m_departures_, movers_.size());
  deltas_.publish(state_.overloaded_tracker());
  return movers_.size();
}

bool UserControlledEngine::balanced() const { return state_.balanced(); }

double UserControlledEngine::potential() const {
  return thresholds_.empty() ? user_potential(state_, uniform_threshold_)
                             : user_potential(state_, thresholds_);
}

std::uint32_t UserControlledEngine::overloaded_count() const {
  return static_cast<std::uint32_t>(state_.overloaded_count());
}

double UserControlledEngine::max_load() const { return state_.max_load(); }

void UserControlledEngine::audit() const { state_.check_invariants(); }

RunResult UserControlledEngine::run(util::Rng& rng) {
  return engine::run_with_options(*this, config_.options, rng);
}

RunResult UserControlledEngine::run(const tasks::Placement& placement,
                                    util::Rng& rng) {
  return engine::reset_and_run(*this, placement, rng);
}

// ---------------------------------------------------------------------------
// Grouped engine
// ---------------------------------------------------------------------------

GroupedUserEngine::GroupedUserEngine(const tasks::TaskSet& ts, Node n,
                                     UserProtocolConfig config)
    : tasks_(&ts), config_(std::move(config)), n_(n) {
  thresholds_ = resolve_thresholds(config_, n, "GroupedUserEngine: threshold");
  util::require_finite_positive(config_.alpha, "GroupedUserEngine: alpha");
  if (n < 2) throw std::invalid_argument("GroupedUserEngine: need n >= 2");

  // Build the ascending weight-class table with one pass and a small sorted
  // insert set instead of sorting all m weights: at kMaxClasses = 64 the
  // lookup is a handful of comparisons per task, so unit/two-point profiles
  // at m = 10^7 cost milliseconds where the full sort cost ~0.5s — and task
  // sets with too many classes are rejected as soon as the 65th distinct
  // weight appears instead of after an O(m log m) sort.
  std::optional<std::vector<double>> distinct =
      distinct_weights_capped(ts, kMaxClasses);
  if (!distinct) {
    throw std::invalid_argument(
        "GroupedUserEngine: too many distinct weights; use the exact engine");
  }
  task_class_.resize(ts.size());
  for (TaskId i = 0; i < ts.size(); ++i) {
    const auto it =
        std::lower_bound(distinct->begin(), distinct->end(), ts.weight(i));
    task_class_[i] = static_cast<std::uint32_t>(it - distinct->begin());
  }
  classes_ = ClassLoads(std::move(*distinct));
  pool_ = make_phase1_pool(config_.options.threads);
  instr_ = {{config_.options.registry, config_.options.trace},
            config_.options.dsan};
  if (obs::Registry* reg = instr_.sink.registry) {
    using obs::MetricClass;
    m_sample_ns_ = reg->counter("grouped.sample_ns", MetricClass::kTiming);
    m_apply_ns_ = reg->counter("grouped.apply_ns", MetricClass::kTiming);
    m_departure_groups_ =
        reg->counter("grouped.departure_groups", MetricClass::kDeterministic);
    m_departures_ =
        reg->counter("grouped.departures", MetricClass::kDeterministic);
  }
  deltas_.attach(instr_.sink.registry, "grouped", classes_.tracker());
  instr_.attach_pool(pool_.get());
}

void GroupedUserEngine::reset(const tasks::Placement& placement) {
  if (placement.size() != tasks_->size()) {
    throw std::invalid_argument("GroupedUserEngine::reset: placement size mismatch");
  }
  classes_.reset(n_);
  for (TaskId i = 0; i < placement.size(); ++i) {
    const Node r = placement[i];
    if (r >= n_) {
      throw std::invalid_argument("GroupedUserEngine::reset: resource out of range");
    }
    classes_.add(r, task_class_[i]);
  }
}

std::size_t GroupedUserEngine::step(util::Rng& rng) {
  dsan::StepProbe* const probe = instr_.probe;
  if (probe != nullptr) probe->begin_step(rng);
  // Per-round base seed for the sharded sampler (see the header comment).
  const std::uint64_t round_seed = rng();

  // Phase 1: binomial leaver counts per (overloaded resource, class),
  // decided against the round-start state. The incremental set makes this
  // O(#overloaded) instead of an O(n) sweep.
  const std::vector<Node>& over = overloaded();
  instr_.phase(
      m_sample_ns_, "grouped.sample", "sample",
      [&] {
        classes_.sample(over, round_seed, config_.alpha, tasks_->max_weight(),
                        threshold_of(), pool_.get(), probe);
      },
      [&](dsan::Digest& d) { classes_.digest_departures(d); });

  // Phase 2: apply in shard order on the calling thread — remove, then
  // scatter each departing task independently from the caller's stream.
  std::size_t migrations = 0;
  instr_.phase(
      m_apply_ns_, "grouped.apply", "apply",
      [&] { migrations = classes_.apply(rng, config_.exclude_self); },
      [&](dsan::Digest& d) { dsan::digest_loads(classes_.loads(), d); });
  if (probe != nullptr) probe->end_step(rng);

  instr_.add(m_departure_groups_, classes_.departure_groups());
  instr_.add(m_departures_, migrations);
  deltas_.publish(classes_.tracker());
  return migrations;
}

bool GroupedUserEngine::balanced() const { return overloaded().empty(); }

std::uint32_t GroupedUserEngine::overloaded_count() const {
  return static_cast<std::uint32_t>(overloaded().size());
}

void GroupedUserEngine::collect_fingerprint(dsan::Digest& d) const {
  d.u64(n_);
  d.u64(classes_.num_classes());
  classes_.digest_rows(d);
  for (Node r = 0; r < n_; ++r) d.f64(thresholds_[r]);
  classes_.digest_tracker(d);
}

double GroupedUserEngine::reported_threshold() const {
  return *std::max_element(thresholds_.begin(), thresholds_.end());
}

RunResult GroupedUserEngine::run(util::Rng& rng) {
  return engine::run_with_options(*this, config_.options, rng);
}

RunResult GroupedUserEngine::run(const tasks::Placement& placement,
                                 util::Rng& rng) {
  return engine::reset_and_run(*this, placement, rng);
}

}  // namespace tlb::core
