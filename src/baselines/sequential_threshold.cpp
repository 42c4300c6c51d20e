#include "tlb/baselines/sequential_threshold.hpp"

namespace tlb::baselines {

double suggested_threshold(const tasks::TaskSet& ts, graph::Node n) {
  return ts.total_weight() / static_cast<double>(n) + ts.max_weight();
}

}  // namespace tlb::baselines
