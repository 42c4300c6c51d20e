#include "tlb/core/instrument.hpp"

namespace tlb::core {

TrackerDeltas::Totals TrackerDeltas::totals(const OverloadedSet& tracker) {
  const LoadIndex& idx = tracker.load_index();
  return {tracker.flush_checks(), tracker.dirty_marks(), idx.band_size(),
          idx.bucket_moves(), idx.reconciled()};
}

void TrackerDeltas::attach(obs::Registry* reg, const std::string& prefix,
                           const OverloadedSet& tracker) {
  reg_ = reg;
  if (reg_ == nullptr) return;
  using obs::MetricClass;
  ids_ = {reg_->counter(prefix + ".flush_checks", MetricClass::kDeterministic),
          reg_->counter(prefix + ".dirty_marks", MetricClass::kDeterministic),
          reg_->counter("index.band_size", MetricClass::kDeterministic),
          reg_->counter("index.bucket_moves", MetricClass::kDeterministic),
          reg_->counter("index.reconciled", MetricClass::kDeterministic)};
  base_ = totals(tracker);
}

void TrackerDeltas::publish_attached(const OverloadedSet& tracker) {
  const Totals now = totals(tracker);
  for (std::size_t i = 0; i < now.size(); ++i) {
    reg_->add(ids_[i], now[i] - base_[i]);
  }
  base_ = now;
}

}  // namespace tlb::core
