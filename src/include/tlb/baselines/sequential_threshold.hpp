#pragma once
// The comparison threshold of the sequential threshold allocation of
// Berenbrink, Khodamoradi, Sauerwald & Stauffer [5] (the process itself is
// engine::SequentialThresholdBalancer): balls retry uniform bins until one
// keeps load + w <= threshold. For unit balls [5] uses ⌈m/n⌉ + 1, which
// keeps the total number of random choices O(m) w.h.p.

#include "tlb/graph/graph.hpp"
#include "tlb/tasks/task_set.hpp"

namespace tlb::baselines {

/// The [5] threshold for unit balls: ceil(m/n) + 1, generalised to weights
/// as W/n + w_max (the proper-assignment bound, always feasible).
double suggested_threshold(const tasks::TaskSet& ts, graph::Node n);

}  // namespace tlb::baselines
