#include "tlb/core/dynamic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "tlb/dsan/probe.hpp"
#include "tlb/dsan/state_digest.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/util/binomial.hpp"
#include "tlb/util/validate.hpp"

namespace tlb::core {

DynamicUserEngine::DynamicUserEngine(DynamicConfig config)
    : config_(std::move(config)) {
  if (config_.n < 2) throw std::invalid_argument("DynamicUserEngine: n >= 2");
  constexpr double kInf = std::numeric_limits<double>::infinity();
  util::require_finite_in(config_.arrival_rate, 0.0, kInf,
                          "DynamicUserEngine: arrival_rate");
  util::require_finite_in(config_.completion_rate, 0.0, 1.0,
                          "DynamicUserEngine: completion_rate");
  util::require_finite_in(config_.crash_rate, 0.0, 1.0,
                          "DynamicUserEngine: crash_rate");
  util::require_finite_positive(config_.eps, "DynamicUserEngine: eps");
  util::require_finite_positive(config_.alpha, "DynamicUserEngine: alpha");
  if (config_.classes.empty()) {
    throw std::invalid_argument("DynamicUserEngine: need >= 1 weight class");
  }
  // A non-finite weight would corrupt the sorted class table (lower_bound
  // ordering) and every load sum silently, so validate before sorting.
  for (const auto& c : config_.classes) {
    util::require_finite_in(c.weight, 1.0, kInf,
                            "DynamicUserEngine: class weight");
    util::require_finite_positive(c.probability,
                                  "DynamicUserEngine: class probability");
  }
  // Normalise and sort the class table (ascending weights, CDF for sampling).
  std::sort(config_.classes.begin(), config_.classes.end(),
            [](const auto& a, const auto& b) { return a.weight < b.weight; });
  double total_p = 0.0;
  for (const auto& c : config_.classes) total_p += c.probability;
  double acc = 0.0;
  std::vector<double> class_weights;
  for (const auto& c : config_.classes) {
    class_weights.push_back(c.weight);
    acc += c.probability / total_p;
    class_cdf_.push_back(acc);
    w_max_ = std::max(w_max_, c.weight);
  }
  class_cdf_.back() = 1.0;

  // Fresh store, everything pending re-check, so the initial recompute
  // below registers its value without invalidating anything a second time.
  classes_ = ClassLoads(std::move(class_weights));
  classes_.reset(config_.n);
  threshold_ = 0.0;  // force the first recompute to register its value
  recompute_threshold();
  if (config_.threads != 1) {
    pool_ = std::make_unique<util::ThreadPool>(config_.threads);
  }
  instr_ = {{config_.registry, config_.trace}, config_.dsan};
  if (obs::Registry* reg = instr_.sink.registry) {
    using obs::MetricClass;
    m_arrivals_ns_ = reg->counter("dynamic.arrivals_ns", MetricClass::kTiming);
    m_completions_ns_ =
        reg->counter("dynamic.completions_ns", MetricClass::kTiming);
    m_sample_ns_ = reg->counter("dynamic.sample_ns", MetricClass::kTiming);
    m_apply_ns_ = reg->counter("dynamic.apply_ns", MetricClass::kTiming);
    m_arrivals_ = reg->counter("dynamic.arrivals", MetricClass::kDeterministic);
    m_completions_ =
        reg->counter("dynamic.completions", MetricClass::kDeterministic);
    m_crashes_ = reg->counter("dynamic.crashes", MetricClass::kDeterministic);
    m_threshold_changes_ =
        reg->counter("dynamic.threshold_changes", MetricClass::kDeterministic);
  }
  deltas_.attach(instr_.sink.registry, "dynamic", classes_.tracker());
  instr_.attach_pool(pool_.get());
}

void DynamicUserEngine::recompute_threshold() {
  // Above-average threshold against the *current* total weight; the +w_max
  // term uses the static class bound (resources know the workload's class
  // table, not the transient maximum).
  const double next = (1.0 + config_.eps) * total_weight_ /
                          static_cast<double>(config_.n) +
                      w_max_;
  // Only a *changed* threshold can flip a resource whose load did not move;
  // quiet rounds (no arrivals, completions or crashes) recompute to exactly
  // the same value, and invalidating anything then would turn the next
  // overloaded_now() into a pointless rescan.
  if (next == threshold_) return;
  const double prev = threshold_;
  threshold_ = next;
  if (prev > 0.0) {
    // A moved threshold flips exactly the resources whose load lies between
    // the old and new value: reconcile only that band through the tracker's
    // bucketed load index (O(#band + #touched) instead of the old
    // mark_all_dirty() O(n) rescan — the number threshold-churn runs are
    // judged by).
    classes_.shift_threshold(prev, next);
  }
  // prev == 0 is the construction-time registration: the tracker was just
  // rebuilt with every resource pending, so there is nothing to add.
  instr_.add(m_threshold_changes_, 1);
}

void DynamicUserEngine::do_arrivals(util::Rng& rng) {
  std::uint64_t count = 0;
  if (config_.arrival_fn) {
    count = config_.arrival_fn(round_, rng);
  } else {
    // Dispersed arrival count with the right mean: Binomial(2λ, 1/2).
    const auto budget = static_cast<std::uint64_t>(
        std::llround(2.0 * config_.arrival_rate));
    count = util::binomial(rng, budget, 0.5);
  }
  const std::size_t C = classes_.num_classes();
  for (std::uint64_t i = 0; i < count; ++i) {
    const double u = rng.uniform01();
    std::size_t cls = 0;
    while (cls + 1 < C && u > class_cdf_[cls]) ++cls;
    const graph::Node dst =
        config_.hotspot_arrivals
            ? 0
            : static_cast<graph::Node>(rng.uniform_below(config_.n));
    classes_.add(dst, cls);
    total_weight_ += classes_.weight(cls);
    ++population_;
    if (metrics_) ++metrics_->arrivals;
  }
  instr_.add(m_arrivals_, count);
}

void DynamicUserEngine::do_completions(util::Rng& rng) {
  std::uint64_t total_done = 0;
  classes_.complete(config_.completion_rate, rng,
                    [&](graph::Node, std::size_t c, std::uint32_t done) {
                      total_weight_ -=
                          static_cast<double>(done) * classes_.weight(c);
                      population_ -= done;
                      total_done += done;
                    });
  if (metrics_) metrics_->completions += total_done;
  instr_.add(m_completions_, total_done);
}

void DynamicUserEngine::do_crash(util::Rng& rng) {
  if (config_.crash_rate <= 0.0 || !rng.bernoulli(config_.crash_rate)) return;
  const auto victim = static_cast<graph::Node>(rng.uniform_below(config_.n));
  // Fail-over: every task on the victim scatters to a uniform resource
  // other than the victim, which then rejoins empty.
  for (std::size_t c = 0; c < classes_.num_classes(); ++c) {
    for (std::uint32_t k = classes_.count(victim, c); k > 0; --k) {
      classes_.add(sample_destination(config_.n, victim, true, rng), c);
    }
  }
  classes_.clear(victim);
  if (metrics_) ++metrics_->crashes;
  instr_.add(m_crashes_, 1);
}

std::size_t DynamicUserEngine::do_protocol_step(util::Rng& rng) {
  // One grouped Algorithm 6.1 round against the current threshold; the
  // per-round base seed comes from the caller's stream (see ClassLoads).
  const std::uint64_t round_seed = rng();
  const std::vector<graph::Node>& over = overloaded_now();
  {
    const obs::PhaseSpan span(instr_.sink, m_sample_ns_, "dynamic.sample");
    classes_.sample(over, round_seed, config_.alpha, w_max_, threshold_of(),
                    pool_.get(), instr_.probe);
  }
  const obs::PhaseSpan span(instr_.sink, m_apply_ns_, "dynamic.apply");
  return classes_.apply(rng, /*exclude_self=*/false);
}

std::size_t DynamicUserEngine::step(util::Rng& rng) {
  dsan::StepProbe* const probe = instr_.probe;
  if (probe != nullptr) probe->begin_step(rng);
  // The arrivals and completions digests fold the same churn surface.
  const auto churn_digest = [this](dsan::Digest& d) {
    d.u64(population_);
    d.f64(total_weight_);
    dsan::digest_loads(classes_.loads(), d);
  };
  instr_.phase(m_arrivals_ns_, "dynamic.arrivals", "arrivals",
               [&] { do_arrivals(rng); }, churn_digest);
  ++round_;
  instr_.phase(m_completions_ns_, "dynamic.completions", "completions",
               [&] { do_completions(rng); }, churn_digest);
  do_crash(rng);
  recompute_threshold();
  last_migrations_ = do_protocol_step(rng);
  instr_.digest("protocol", [this](dsan::Digest& d) {
    d.f64(threshold_);
    d.u64(last_migrations_);
    dsan::digest_loads(classes_.loads(), d);
  });
  if (probe != nullptr) probe->end_step(rng);
  deltas_.publish(classes_.tracker());
  if (config_.paranoid_checks) audit();

  if (metrics_) {
    const auto over =
        static_cast<graph::Node>(overloaded_now().size());
    metrics_->overloaded_fraction.add(static_cast<double>(over) /
                                      static_cast<double>(config_.n));
    const double avg = total_weight_ / static_cast<double>(config_.n);
    metrics_->max_over_avg.add(avg > 0.0 ? max_load() / avg : 0.0);
    metrics_->population.add(static_cast<double>(population_));
    metrics_->migrations_per_round.add(static_cast<double>(last_migrations_));
  }
  return last_migrations_;
}

void DynamicUserEngine::collect_fingerprint(dsan::Digest& d) const {
  d.u64(config_.n);
  d.u64(classes_.num_classes());
  d.u64(population_);
  d.f64(total_weight_);
  d.f64(threshold_);
  classes_.digest_rows(d);
  classes_.digest_tracker(d);
}

void DynamicUserEngine::begin_measure() {
  metrics_store_ = DynamicMetrics{};
  metrics_ = &metrics_store_;
}

DynamicMetrics DynamicUserEngine::run(const engine::DriveOptions& opt,
                                      util::Rng& rng,
                                      engine::RoundObserver* observer) {
  if (opt.measure < 0) {
    // The churn process never terminates on its own; a run-to-balance drive
    // would race the arrival stream. Callers must bound the window.
    throw std::invalid_argument(
        "DynamicUserEngine::run: DriveOptions::measure must be >= 0");
  }
  metrics_ = nullptr;
  engine::drive(*this, rng, opt, observer);
  return metrics_store_;
}

}  // namespace tlb::core
