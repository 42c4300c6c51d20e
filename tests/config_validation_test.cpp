// Config-boundary validation: every real-valued knob of the engines, the
// threshold formula and workload::Scenario rejects NaN, ±inf and
// out-of-range values with std::invalid_argument. A guard written
// `x <= 0.0` lets NaN through, and a NaN eps or alpha then runs as a silent
// wrong answer.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "tlb/baselines/selfish_realloc.hpp"
#include "tlb/core/dynamic.hpp"
#include "tlb/core/graph_user_protocol.hpp"
#include "tlb/core/hetero.hpp"
#include "tlb/core/mixed_protocol.hpp"
#include "tlb/core/resource_protocol.hpp"
#include "tlb/core/system_state.hpp"
#include "tlb/core/threshold.hpp"
#include "tlb/core/user_protocol.hpp"
#include "tlb/graph/builders.hpp"
#include "tlb/tasks/task_set.hpp"
#include "tlb/workload/scenario.hpp"

namespace {

using namespace tlb;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// One knob: a name, a setter that builds the object with the knob set to
/// x, and whether 0 is a rejected value (rates accept 0).
struct Knob {
  std::string name;
  std::function<void(double)> build;
  bool zero_rejected = true;
};

std::vector<Knob> knobs() {
  static const tasks::TaskSet ts(std::vector<double>(32, 1.0));
  static const graph::Graph cube = graph::hypercube(3);
  const auto user = [](double threshold, double alpha) {
    core::UserProtocolConfig cfg;
    cfg.threshold = threshold;
    cfg.alpha = alpha;
    return cfg;
  };
  const auto dynamic = [](const std::function<void(core::DynamicConfig&)>& f) {
    core::DynamicConfig cfg;
    cfg.n = 8;
    f(cfg);
    core::DynamicUserEngine engine(cfg);
  };
  const auto scenario_eps = [](double eps) {
    workload::ScenarioParams params;
    params.eps = eps;
    workload::Scenario(workload::resolve_scenario("fig1"), params);
  };
  const auto scenario_alpha = [](const char* spec) {
    return [spec](double alpha) {
      workload::ScenarioParams params;
      params.alpha = alpha;
      workload::Scenario(workload::ScenarioSpec::parse(spec), params);
    };
  };
  return {
      {"exact threshold",
       [&](double x) { core::UserControlledEngine(ts, 4, user(x, 1.0)); }},
      {"exact thresholds[r]",
       [&](double x) {
         core::UserProtocolConfig cfg = user(8.0, 1.0);
         cfg.thresholds = {8.0, x, 8.0, 8.0};
         core::UserControlledEngine(ts, 4, cfg);
       }},
      {"exact alpha",
       [&](double x) { core::UserControlledEngine(ts, 4, user(8.0, x)); }},
      {"grouped threshold",
       [&](double x) { core::GroupedUserEngine(ts, 4, user(x, 1.0)); }},
      {"grouped alpha",
       [&](double x) { core::GroupedUserEngine(ts, 4, user(8.0, x)); }},
      {"resource threshold",
       [&](double x) {
         core::ResourceProtocolConfig cfg;
         cfg.threshold = x;
         core::ResourceControlledEngine(cube, ts, cfg);
       }},
      {"resource thresholds[r]",
       [&](double x) {
         core::ResourceProtocolConfig cfg;
         cfg.thresholds.assign(cube.num_nodes(), 8.0);
         cfg.thresholds[3] = x;
         core::ResourceControlledEngine(cube, ts, cfg);
       }},
      {"graph-user alpha",
       [&](double x) {
         core::GraphUserConfig cfg;
         cfg.threshold = 8.0;
         cfg.alpha = x;
         core::GraphUserEngine(cube, ts, cfg);
       }},
      {"mixed alpha",
       [&](double x) {
         core::MixedProtocolConfig cfg;
         cfg.threshold = 8.0;
         cfg.alpha = x;
         core::MixedProtocolEngine(cube, ts, cfg);
       }},
      {"mixed resource_probability",
       [&](double x) {
         core::MixedProtocolConfig cfg;
         cfg.threshold = 8.0;
         cfg.resource_probability = x;
         core::MixedProtocolEngine(cube, ts, cfg);
       },
       /*zero_rejected=*/false},
      {"SystemState uniform threshold",
       [&](double x) { core::SystemState(ts, 4).set_thresholds(x); }},
      {"SystemState thresholds[r]",
       [&](double x) {
         core::SystemState(ts, 4).set_thresholds(
             std::vector<double>{8.0, 8.0, x, 8.0});
       }},
      {"dynamic eps", [&](double x) { dynamic([x](auto& c) { c.eps = x; }); }},
      {"dynamic alpha",
       [&](double x) { dynamic([x](auto& c) { c.alpha = x; }); }},
      {"dynamic arrival_rate",
       [&](double x) { dynamic([x](auto& c) { c.arrival_rate = x; }); },
       /*zero_rejected=*/false},
      {"dynamic completion_rate",
       [&](double x) { dynamic([x](auto& c) { c.completion_rate = x; }); },
       /*zero_rejected=*/false},
      {"dynamic crash_rate",
       [&](double x) { dynamic([x](auto& c) { c.crash_rate = x; }); },
       /*zero_rejected=*/false},
      {"dynamic class weight",
       [&](double x) {
         dynamic([x](auto& c) { c.classes = {{1.0, 0.5}, {x, 0.5}}; });
       }},
      {"dynamic class probability",
       [&](double x) {
         dynamic([x](auto& c) { c.classes = {{1.0, 0.5}, {2.0, x}}; });
       }},
      {"threshold_value eps",
       [](double x) {
         (void)core::threshold_value(core::ThresholdKind::kAboveAverage, 64.0,
                                     8, 1.0, x);
       }},
      {"scenario eps", scenario_eps},
      // alpha is rejected for every protocol, also those that never read it.
      {"scenario alpha (user)", scenario_alpha("user:complete:unit:batch")},
      {"scenario alpha (resource)",
       scenario_alpha("resource:hypercube:unit:batch")},
      {"scenario alpha (baseline)",
       scenario_alpha("firstfit:complete:uniform(8):batch")},
      {"hetero two_class_speeds ratio",
       [](double x) { (void)core::two_class_speeds(8, 2, x); }},
      {"hetero random_speeds lo",
       [](double x) {
         util::Rng rng(1);
         (void)core::random_speeds(8, x, 4.0, rng);
       }},
      {"hetero random_speeds hi",
       [](double x) {
         util::Rng rng(1);
         (void)core::random_speeds(8, 0.25, x, rng);
       }},
      {"hetero speeds[r]",
       [&](double x) {
         (void)core::speed_proportional_thresholds(
             ts, {1.0, x, 1.0, 1.0}, core::ThresholdKind::kTightUser);
       }},
      {"hetero eps",
       [&](double x) {
         (void)core::speed_proportional_thresholds(
             ts, core::uniform_speeds(4), core::ThresholdKind::kAboveAverage,
             x);
       }},
      {"selfish stop_threshold",
       [&](double x) {
         baselines::SelfishConfig cfg;
         cfg.stop_threshold = x;
         baselines::SelfishReallocEngine(ts, 4, cfg);
       }},
  };
}

TEST(ConfigValidationTest, NonFiniteAndOutOfRangeValuesAreRejected) {
  for (const Knob& knob : knobs()) {
    std::vector<double> bad = {kNan, kInf, -kInf, -1.0};
    if (knob.zero_rejected) bad.push_back(0.0);
    for (double x : bad) {
      EXPECT_THROW(knob.build(x), std::invalid_argument)
          << knob.name << " = " << x;
    }
  }
}

TEST(ConfigValidationTest, AcceptedRangesAreUnchanged) {
  // The boundary values the old guards accepted still pass: rates at 0 and
  // 1, class weight exactly 1, and an ordinary positive value everywhere.
  for (const Knob& knob : knobs()) {
    const double ok = knob.name == "dynamic class weight" ? 1.0 : 0.5;
    EXPECT_NO_THROW(knob.build(ok)) << knob.name;
    if (!knob.zero_rejected) {
      EXPECT_NO_THROW(knob.build(0.0)) << knob.name;
    }
  }
  core::DynamicConfig cfg;
  cfg.n = 8;
  cfg.completion_rate = 1.0;
  cfg.crash_rate = 1.0;
  EXPECT_NO_THROW(core::DynamicUserEngine{cfg});
  cfg.crash_rate = 1.5;
  EXPECT_THROW(core::DynamicUserEngine{cfg}, std::invalid_argument);
}

}  // namespace
