#pragma once
// The instrumentation seam of the user-protocol engines (exact, grouped,
// dynamic): Instruments runs a phase inside its obs::PhaseSpan and folds
// the phase's dsan sub-digest; TrackerDeltas exports the OverloadedSet /
// LoadIndex work counters once per step. Detached (no registry, trace or
// probe), a phase costs the span's sink test plus one probe pointer test,
// and the digest callback never runs.

#include <array>
#include <cstdint>
#include <string>

#include "tlb/core/overloaded_set.hpp"
#include "tlb/dsan/probe.hpp"
#include "tlb/obs/profile.hpp"
#include "tlb/util/thread_pool.hpp"

namespace tlb::core {

/// Where one engine reports. Default-constructed = fully detached.
struct Instruments {
  obs::Sink sink;
  dsan::StepProbe* probe = nullptr;

  /// Add `n` to the counter `id` (no-op when detached).
  void add(obs::MetricId id, std::uint64_t n) const {
    if (sink.registry != nullptr) sink.registry->add(id, n);
  }

  /// Let `pool`'s workers report into the sink (no-op when detached).
  void attach_pool(util::ThreadPool* pool) const {
    if (pool != nullptr && sink.attached()) {
      pool->attach_probe(sink.registry, sink.trace);
    }
  }

  /// Record the phase sub-digest `name` folded by `fold(dsan::Digest&)`,
  /// when the probe collects phases this step.
  template <class Fold>
  void digest(const char* name, Fold&& fold) const {
    if (probe == nullptr || !probe->want_phases()) return;
    dsan::Digest d;
    fold(d);
    probe->phase(name, d.value());
  }

  /// Run `body()` inside the span `span_name` (timed into `ns`), then
  /// record the phase sub-digest `name`.
  template <class Body, class Fold>
  void phase(obs::MetricId ns, const char* span_name, const char* name,
             Body&& body, Fold&& fold) const {
    {
      const obs::PhaseSpan span(sink, ns, span_name);
      body();
    }
    digest(name, fold);
  }
};

/// Per-step deltas of a tracker's lifetime counters, published as the
/// deterministic counters "<prefix>.flush_checks", "<prefix>.dirty_marks",
/// "index.band_size", "index.bucket_moves" and "index.reconciled". Work
/// done between steps (balance checks, observer queries) lands in the next
/// step's delta.
class TrackerDeltas {
 public:
  /// Register the counters in `reg` (nothing when null) and take
  /// `tracker`'s current totals as the baseline.
  void attach(obs::Registry* reg, const std::string& prefix,
              const OverloadedSet& tracker);
  /// Add the growth since the baseline and re-baseline.
  void publish(const OverloadedSet& tracker) {
    if (reg_ != nullptr) publish_attached(tracker);
  }

 private:
  using Totals = std::array<std::uint64_t, 5>;
  static Totals totals(const OverloadedSet& tracker);
  void publish_attached(const OverloadedSet& tracker);

  obs::Registry* reg_ = nullptr;
  std::array<obs::MetricId, 5> ids_{};
  Totals base_{};
};

}  // namespace tlb::core
