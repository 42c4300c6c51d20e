#include "tlb/core/hetero.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "tlb/util/validate.hpp"

namespace tlb::core {

SpeedProfile uniform_speeds(graph::Node n) {
  return SpeedProfile(n, 1.0);
}

SpeedProfile two_class_speeds(graph::Node n, graph::Node fast_count,
                              double ratio) {
  if (fast_count > n) {
    throw std::invalid_argument("two_class_speeds: fast_count <= n required");
  }
  util::require_finite_positive(ratio, "two_class_speeds: ratio");
  SpeedProfile speeds(n, 1.0);
  for (graph::Node r = 0; r < fast_count; ++r) speeds[r] = ratio;
  return speeds;
}

SpeedProfile random_speeds(graph::Node n, double lo, double hi,
                           util::Rng& rng) {
  util::require_finite_positive(lo, "random_speeds: lo");
  util::require_finite_in(hi, lo, std::numeric_limits<double>::infinity(),
                          "random_speeds: hi");
  SpeedProfile speeds(n);
  for (double& s : speeds) s = lo + rng.uniform01() * (hi - lo);
  return speeds;
}

std::vector<double> speed_proportional_thresholds(const tasks::TaskSet& tasks,
                                                  const SpeedProfile& speeds,
                                                  ThresholdKind kind,
                                                  double eps) {
  if (speeds.empty()) {
    throw std::invalid_argument("speed_proportional_thresholds: no speeds");
  }
  if (kind == ThresholdKind::kAboveAverage) {
    util::require_finite_positive(eps, "speed_proportional_thresholds: eps");
  }
  double total_speed = 0.0;
  for (double s : speeds) {
    total_speed += util::require_finite_positive(
        s, "speed_proportional_thresholds: speed");
  }
  const double W = tasks.total_weight();
  const double w_max = tasks.max_weight();
  std::vector<double> thresholds(speeds.size());
  for (std::size_t r = 0; r < speeds.size(); ++r) {
    const double share = W * speeds[r] / total_speed;
    switch (kind) {
      case ThresholdKind::kAboveAverage:
        thresholds[r] = (1.0 + eps) * share + w_max;
        break;
      case ThresholdKind::kTightResource:
        thresholds[r] = share + 2.0 * w_max;
        break;
      case ThresholdKind::kTightUser:
        thresholds[r] = share + w_max;
        break;
    }
  }
  return thresholds;
}

bool thresholds_feasible(const tasks::TaskSet& tasks,
                         const std::vector<double>& thresholds) {
  const double w_max = tasks.max_weight();
  double capacity = 0.0;
  for (double t : thresholds) capacity += std::max(t - w_max, 0.0);
  return capacity >= tasks.total_weight();
}

}  // namespace tlb::core
