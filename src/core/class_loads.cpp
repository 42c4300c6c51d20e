#include "tlb/core/class_loads.hpp"

#include "tlb/dsan/probe.hpp"
#include "tlb/util/binomial.hpp"
#include "tlb/util/parallel.hpp"

namespace tlb::core {

void ClassLoads::reset(graph::Node n) {
  n_ = n;
  counts_.assign(static_cast<std::size_t>(n) * class_weights_.size(), 0);
  loads_.assign(n, 0.0);
  task_counts_.assign(n, 0);
  // The backing store was rebuilt from scratch: one shared invalidation
  // entry point (every status pending, load index stale).
  over_.rebuild(n);
}

void ClassLoads::clear(graph::Node r) {
  std::fill_n(counts_.begin() + static_cast<std::ptrdiff_t>(slot(r, 0)),
              class_weights_.size(), 0u);
  loads_[r] = 0.0;
  task_counts_[r] = 0;
  over_.mark_dirty(r);
}

double ClassLoads::phi(graph::Node r, double T) const {
  if (loads_[r] <= T) return 0.0;
  // Canonical stacking: classes in ascending weight order. Within a class of
  // weight w starting at height h, exactly floor((T - h)/w) tasks (clamped
  // to the class count) still fit completely below the threshold.
  double h = 0.0;
  for (std::size_t c = 0; c < class_weights_.size(); ++c) {
    const std::uint32_t k = counts_[slot(r, c)];
    if (k == 0) continue;
    const double w = class_weights_[c];
    if (h + w > T) break;
    const double room = std::floor((T - h) / w);
    const auto fit = static_cast<std::uint32_t>(
        std::min<double>(room, static_cast<double>(k)));
    h += static_cast<double>(fit) * w;
    if (fit < k) break;
  }
  return loads_[r] - h;
}

double ClassLoads::potential(ThresholdOf threshold_of) const {
  double total = 0.0;
  for (graph::Node r : overloaded(threshold_of)) {
    total += phi(r, threshold_of(r));
  }
  return total;
}

void ClassLoads::sample(const std::vector<graph::Node>& over,
                        std::uint64_t round_seed, double alpha, double w_max,
                        ThresholdOf threshold_of, util::ThreadPool* pool,
                        dsan::StepProbe* probe) {
  shards_ = util::shard_count(over.size(), kShardGrain);
  if (shard_bufs_.size() < shards_) shard_bufs_.resize(shards_);
  if (probe != nullptr) probe->arm_shards(shards_);
  util::parallel_shard(
      over.size(), kShardGrain, pool,
      [&](std::size_t shard, std::size_t lo, std::size_t hi) {
        std::vector<Departure>& buf = shard_bufs_[shard];
        buf.clear();
        util::Rng srng(util::derive_seed(round_seed, shard));
        // Binomial inversion draws a variable count, so no exact budget is
        // declared — the probe records the actual (deterministic) draw
        // count into the round fingerprint instead.
        if (probe != nullptr) srng.attach_probe(probe->shard_slot(shard));
        for (std::size_t i = lo; i < hi; ++i) {
          const graph::Node r = over[i];
          const double p = leave_probability(
              alpha, phi(r, threshold_of(r)), w_max, task_counts_[r]);
          if (p <= 0.0) continue;
          const std::uint32_t* row = counts_.data() + slot(r, 0);
          for (std::size_t c = 0; c < class_weights_.size(); ++c) {
            const std::uint32_t k = row[c];
            if (k == 0) continue;
            const auto leavers =
                static_cast<std::uint32_t>(util::binomial(srng, k, p));
            if (leavers > 0) {
              buf.push_back({r, static_cast<std::uint32_t>(c), leavers});
            }
          }
        }
      });
}

void ClassLoads::digest_departures(dsan::Digest& d) const {
  d.u64(shards_);
  for (std::size_t s = 0; s < shards_; ++s) {
    d.u64(shard_bufs_[s].size());
    for (const Departure& dep : shard_bufs_[s]) {
      d.u64(dep.src);
      d.u64(dep.cls);
      d.u64(dep.count);
    }
  }
}

std::size_t ClassLoads::departure_groups() const noexcept {
  std::size_t groups = 0;
  for (std::size_t s = 0; s < shards_; ++s) groups += shard_bufs_[s].size();
  return groups;
}

std::size_t ClassLoads::apply(util::Rng& rng, bool exclude_self) {
  for (std::size_t s = 0; s < shards_; ++s) {
    for (const Departure& d : shard_bufs_[s]) remove(d.src, d.cls, d.count);
  }
  // Scatter each departing task independently; the load grows by w once
  // per task (never by k·w), the same fp sequence as per-task pushes. This
  // is add() with the class width and weight hoisted out of the task loop.
  const std::size_t C = class_weights_.size();
  std::size_t migrations = 0;
  for (std::size_t s = 0; s < shards_; ++s) {
    for (const Departure& d : shard_bufs_[s]) {
      const double w = class_weights_[d.cls];
      for (std::uint32_t i = 0; i < d.count; ++i) {
        const graph::Node dst =
            sample_destination(n_, d.src, exclude_self, rng);
        ++counts_[static_cast<std::size_t>(dst) * C + d.cls];
        loads_[dst] += w;
        ++task_counts_[dst];
        over_.mark_dirty(dst);
      }
      migrations += d.count;
    }
  }
  return migrations;
}

double ClassLoads::max_load() const {
  const auto load = [this](graph::Node r) { return loads_[r]; };
  if (const LoadIndex* idx = over_.query_index(load)) {
    return idx->max_indexed_load();
  }
  // Floored at 0. The floor never binds while any task is placed: the
  // resource holding it has a positive load.
  double max = 0.0;
  for (const double x : loads_) max = std::max(max, x);
  return max;
}

void ClassLoads::load_stats(LoadStatsCalc& calc, double T,
                            LoadStats& out) const {
  const auto load = [this](graph::Node r) { return loads_[r]; };
  if (const LoadIndex* idx = over_.query_index(load)) {
    out = calc.compute_indexed(*idx, n_, T);
  } else {
    out = calc.compute_scan(n_, T, load);
  }
}

void ClassLoads::digest_rows(dsan::Digest& d) const {
  for (graph::Node r = 0; r < n_; ++r) {
    d.f64(loads_[r]);
    d.u64(task_counts_[r]);
    for (std::size_t c = 0; c < class_weights_.size(); ++c) {
      d.u64(counts_[slot(r, c)]);
    }
  }
}

void ClassLoads::digest_tracker(dsan::Digest& d) const {
  // Const reads only, same surface as digest_state — items() as of the
  // last flush plus the dirty/flush counters. Never flush here: that would
  // shift the per-step counter deltas.
  for (const graph::Node r : over_.items()) d.u64(r);
  d.u64(over_.dirty_size());
  d.u64(over_.flush_checks());
  d.u64(over_.dirty_marks());
}

}  // namespace tlb::core
