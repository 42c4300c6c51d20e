// Tests for the dynamic/churn extension: steady state under arrivals and
// completions, hotspot absorption, crash fail-over, bookkeeping integrity
// under all event types combined, and the distribution of the
// geometric-skip completion pass (ClassLoads::complete).
#include "tlb/core/dynamic.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "tlb/engine/driver.hpp"

namespace {

using namespace tlb::core;
using tlb::util::Rng;

/// `warmup` unrecorded rounds, then `measure` recorded ones.
tlb::engine::DriveOptions window(long warmup, long measure) {
  return {.warmup = warmup, .measure = measure};
}

DynamicConfig base_config() {
  DynamicConfig cfg;
  cfg.n = 100;
  cfg.arrival_rate = 20.0;
  cfg.completion_rate = 0.02;  // steady population ~ 1000
  cfg.eps = 0.2;
  cfg.classes = {{1.0, 0.9}, {8.0, 0.1}};
  return cfg;
}

TEST(DynamicTest, PopulationReachesSteadyState) {
  DynamicUserEngine engine(base_config());
  Rng rng(1);
  const auto metrics = engine.run(window(2000, 2000), rng);
  // Steady state: arrivals/round == completions/round in expectation, so
  // population ~ rate/completion = 1000, within generous tolerance.
  EXPECT_NEAR(metrics.population.mean(), 1000.0, 200.0);
  EXPECT_NEAR(static_cast<double>(metrics.arrivals),
              static_cast<double>(metrics.completions),
              0.2 * static_cast<double>(metrics.arrivals));
}

TEST(DynamicTest, UniformArrivalsKeepOverloadRare) {
  DynamicUserEngine engine(base_config());
  Rng rng(2);
  const auto metrics = engine.run(window(2000, 3000), rng);
  // With uniform arrivals and 20% headroom, overloaded resources should be
  // a small minority on average.
  EXPECT_LT(metrics.overloaded_fraction.mean(), 0.10);
  EXPECT_LT(metrics.max_over_avg.mean(), 4.0);
}

TEST(DynamicTest, HotspotArrivalsAreAbsorbed) {
  DynamicConfig cfg = base_config();
  cfg.hotspot_arrivals = true;  // everything lands on resource 0
  DynamicUserEngine engine(cfg);
  Rng rng(3);
  const auto metrics = engine.run(window(2000, 3000), rng);
  // The protocol must keep draining the hotspot: overload stays confined to
  // ~the hotspot itself (1% of resources) and the system keeps moving tasks.
  EXPECT_LT(metrics.overloaded_fraction.mean(), 0.05);
  EXPECT_GT(metrics.migrations_per_round.mean(), 1.0);
}

TEST(DynamicTest, CrashesAreRecoveredFrom) {
  DynamicConfig cfg = base_config();
  cfg.crash_rate = 0.05;  // a crash every ~20 rounds
  DynamicUserEngine engine(cfg);
  Rng rng(4);
  const auto metrics = engine.run(window(2000, 4000), rng);
  EXPECT_GT(metrics.crashes, 100u);  // the scenario actually exercised crashes
  // Scattered fail-over load is re-balanced: overload stays bounded.
  EXPECT_LT(metrics.overloaded_fraction.mean(), 0.15);
}

TEST(DynamicTest, BookkeepingStaysConsistent) {
  DynamicConfig cfg = base_config();
  cfg.crash_rate = 0.1;
  DynamicUserEngine engine(cfg);
  Rng rng(5);
  for (int t = 0; t < 3000; ++t) engine.step(rng);
  // Recompute totals from per-resource loads.
  double total = 0.0;
  for (tlb::graph::Node r = 0; r < cfg.n; ++r) total += engine.load(r);
  EXPECT_NEAR(total, engine.total_weight(), 1e-6);
  EXPECT_GT(engine.population(), 0u);
}

TEST(DynamicTest, ThresholdTracksTotalWeight) {
  DynamicConfig cfg = base_config();
  cfg.completion_rate = 0.0;  // population only grows
  DynamicUserEngine engine(cfg);
  Rng rng(6);
  engine.step(rng);
  const double t_early = engine.current_threshold();
  for (int t = 0; t < 500; ++t) engine.step(rng);
  EXPECT_GT(engine.current_threshold(), t_early);
  EXPECT_NEAR(engine.current_threshold(),
              1.2 * engine.total_weight() / cfg.n + 8.0, 1e-9);
}

TEST(DynamicTest, ZeroRatesAreInert) {
  DynamicConfig cfg = base_config();
  cfg.arrival_rate = 0.0;
  cfg.completion_rate = 0.0;
  DynamicUserEngine engine(cfg);
  Rng rng(7);
  for (int t = 0; t < 50; ++t) engine.step(rng);
  EXPECT_EQ(engine.population(), 0u);
  EXPECT_DOUBLE_EQ(engine.total_weight(), 0.0);
}

TEST(DynamicTest, RejectsBadConfig) {
  DynamicConfig cfg = base_config();
  cfg.n = 1;
  EXPECT_THROW(DynamicUserEngine{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.completion_rate = 1.5;
  EXPECT_THROW(DynamicUserEngine{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.classes = {{0.5, 1.0}};  // weight < 1
  EXPECT_THROW(DynamicUserEngine{cfg}, std::invalid_argument);
  cfg = base_config();
  cfg.classes.clear();
  EXPECT_THROW(DynamicUserEngine{cfg}, std::invalid_argument);
}

TEST(DynamicTest, QuietRoundDoesNoFullRescan) {
  // Regression: recompute_threshold used to mark all n resources dirty every
  // round even when the recomputed threshold was numerically unchanged,
  // forcing overloaded_now() into an O(n) flush on quiet rounds. With no
  // arrivals, completions or crashes the threshold cannot move, so a step
  // must not trigger a single predicate re-check.
  DynamicConfig cfg = base_config();
  cfg.n = 50000;
  cfg.arrival_rate = 0.0;
  cfg.completion_rate = 0.0;
  cfg.crash_rate = 0.0;
  DynamicUserEngine engine(cfg);
  Rng rng(11);
  engine.step(rng);  // settle any construction-time dirt
  const std::uint64_t before = engine.overloaded_tracker().flush_checks();
  for (int t = 0; t < 10; ++t) engine.step(rng);
  EXPECT_EQ(engine.overloaded_tracker().flush_checks(), before);
}

TEST(DynamicTest, QuietRoundsAfterChurnStayIncremental) {
  // Arrivals only in the first round (via the arrival hook); once the
  // system settles and later rounds are quiet, the per-round threshold
  // recomputation lands on the same value and must not invalidate all n
  // resources again. The flush work of a quiet round is bounded by the
  // overloaded list it maintains, never the full resource count.
  DynamicConfig cfg = base_config();
  cfg.n = 20000;
  cfg.arrival_rate = 0.0;
  cfg.completion_rate = 0.0;
  cfg.arrival_fn = [](long round, tlb::util::Rng&) -> std::uint64_t {
    return round == 0 ? 40000u : 0u;
  };
  DynamicUserEngine engine(cfg);
  Rng rng(13);
  for (int t = 0; t < 200; ++t) engine.step(rng);
  if (engine.last_migrations() != 0 ||
      !engine.overloaded_tracker().items().empty()) {
    GTEST_SKIP() << "system not balanced after 200 rounds";
  }
  // Two fully quiet rounds (no arrivals, no migrations): zero re-checks.
  const std::uint64_t before = engine.overloaded_tracker().flush_checks();
  engine.step(rng);
  engine.step(rng);
  EXPECT_EQ(engine.overloaded_tracker().flush_checks(), before);
}

TEST(DynamicTest, ChangedThresholdReconcilesOnlyTheBand) {
  // Regression for the LoadIndex refactor: a round whose threshold *does*
  // move used to fall back to mark_all_dirty — an O(n) flush every churn
  // round. Now shift_threshold confines the invalidation to the band of
  // loads between the old and new value, so per-round flush work is
  // O(#touched + #band + #overloaded), far below n when only a handful of
  // tasks arrive or complete.
  DynamicConfig cfg = base_config();
  cfg.n = 50000;
  cfg.arrival_rate = 5.0;  // a few arrivals per round => W (and T) moves
  cfg.completion_rate = 0.001;
  cfg.crash_rate = 0.0;
  cfg.classes = {{1.0, 0.9}, {8.0, 0.1}};
  DynamicUserEngine engine(cfg);
  Rng rng(17);
  // Let the index arm itself (first shift builds it O(n) once) and the
  // population settle into a sparse-change regime.
  for (int t = 0; t < 50; ++t) engine.step(rng);
  ASSERT_TRUE(engine.overloaded_tracker().load_index().built());

  const std::uint64_t builds0 =
      engine.overloaded_tracker().load_index().rebuilds();
  const std::uint64_t checks0 = engine.overloaded_tracker().flush_checks();
  const int kRounds = 100;
  for (int t = 0; t < kRounds; ++t) engine.step(rng);
  const std::uint64_t checks =
      engine.overloaded_tracker().flush_checks() - checks0;
  // ~5 arrivals + a few completions + the band they shift per round: the
  // per-round average must be orders of magnitude below n = 50000. The
  // bound is loose (100x headroom over the ~10-20 observed) but fails
  // instantly if any churn round regresses to an O(n) rescan.
  EXPECT_LT(checks, static_cast<std::uint64_t>(kRounds) * 500u);
  // And the index itself never rebuilt: the engine mutates loads only
  // through mark_dirty, so every shift reconciles incrementally.
  EXPECT_EQ(engine.overloaded_tracker().load_index().rebuilds(), builds0);
}

// ---------------------------------------------------------------------------
// ClassLoads::complete: per-slot Binomial(k, mu) completions, independent
// across slots, one draw per completion.

/// Five resources x two classes: slot counts 0, 1, 3, 17 and 1000, an empty
/// resource (r3) and the 17 | 1000 pair on either side of the r1/r2
/// boundary.
constexpr std::array<std::array<std::uint32_t, 2>, 5> kSlots = {
    {{1, 3}, {0, 17}, {1000, 0}, {0, 0}, {3, 1}}};

ClassLoads fixed_loads() {
  ClassLoads loads({1.0, 2.5});
  loads.reset(kSlots.size());
  for (tlb::graph::Node r = 0; r < kSlots.size(); ++r) {
    for (std::size_t c = 0; c < 2; ++c) {
      for (std::uint32_t i = 0; i < kSlots[r][c]; ++i) loads.add(r, c);
    }
  }
  return loads;
}

TEST(ClassLoadsCompleteTest, SlotCountsAreIndependentBinomials) {
  // Tolerances and seeds fixed up front: means within 4 standard errors,
  // variances and cross-boundary covariances within 5.
  constexpr int kReps = 20000;
  const ClassLoads base = fixed_loads();
  for (const double mu : {0.01, 0.05, 0.5}) {
    SCOPED_TRACE(mu);
    Rng rng(0x5EED0000 + static_cast<std::uint64_t>(mu * 1000));
    std::uint64_t draws = 0;
    rng.attach_probe(&draws);
    std::array<std::array<double, 2>, 5> sum{}, sum_sq{};
    double cross = 0.0;  // sum of done(r1, c1) * done(r2, c0)
    std::uint64_t total_done = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      ClassLoads loads = base;
      std::array<std::array<double, 2>, 5> done{};
      std::size_t last_slot = 0;
      bool first = true;
      const std::uint64_t draws_before = draws;
      std::uint64_t rep_done = 0;
      loads.complete(mu, rng, [&](tlb::graph::Node r, std::size_t c,
                                  std::uint32_t k) {
        const std::size_t at = r * 2 + c;
        EXPECT_TRUE(first || at > last_slot) << "slots out of order";
        first = false;
        last_slot = at;
        EXPECT_GT(k, 0u);
        done[r][c] = k;
        rep_done += k;
      });
      // One draw per completion, plus the gap that runs past the end.
      ASSERT_EQ(draws - draws_before, rep_done + 1);
      for (tlb::graph::Node r = 0; r < kSlots.size(); ++r) {
        for (std::size_t c = 0; c < 2; ++c) {
          ASSERT_EQ(loads.count(r, c) + done[r][c], kSlots[r][c]);
          sum[r][c] += done[r][c];
          sum_sq[r][c] += done[r][c] * done[r][c];
        }
      }
      cross += done[1][1] * done[2][0];
      total_done += rep_done;
    }
    EXPECT_GT(total_done, 0u);
    const double reps = kReps;
    const double pq = mu * (1.0 - mu);
    for (tlb::graph::Node r = 0; r < kSlots.size(); ++r) {
      for (std::size_t c = 0; c < 2; ++c) {
        const double k = kSlots[r][c];
        const double mean = sum[r][c] / reps;
        const double var = (sum_sq[r][c] - reps * mean * mean) / (reps - 1);
        if (k == 0) {
          EXPECT_EQ(sum[r][c], 0.0);
          continue;
        }
        const double var_exp = k * pq;
        EXPECT_NEAR(mean, k * mu, 4.0 * std::sqrt(var_exp / reps))
            << "slot (" << r << ", " << c << ")";
        // Var of the unbiased sample variance: (m4 - s^4 (R-3)/(R-1)) / R,
        // with the binomial fourth central moment m4 = kpq(1 + 3(k-2)pq).
        // The (R-3)/(R-1) term keeps it positive where m4 = s^4 (k = 1,
        // mu = 1/2).
        const double m4 = k * pq * (1.0 + 3.0 * (k - 2.0) * pq);
        const double var_se = std::sqrt(
            (m4 - var_exp * var_exp * (reps - 3.0) / (reps - 1.0)) / reps);
        EXPECT_NEAR(var, var_exp, 5.0 * var_se)
            << "slot (" << r << ", " << c << ")";
      }
    }
    const double mean_a = sum[1][1] / reps, mean_b = sum[2][0] / reps;
    const double cov = cross / reps - mean_a * mean_b;
    EXPECT_NEAR(cov, 0.0, 5.0 * std::sqrt(17.0 * pq * 1000.0 * pq / reps));
  }
}

TEST(ClassLoadsCompleteTest, DegenerateRatesDrawNothing) {
  for (const double mu : {0.0, 1.0}) {
    ClassLoads loads = fixed_loads();
    Rng rng(11);
    std::uint64_t draws = 0;
    rng.attach_probe(&draws);
    std::uint64_t removed = 0;
    loads.complete(mu, rng,
                   [&](tlb::graph::Node, std::size_t, std::uint32_t k) {
                     removed += k;
                   });
    EXPECT_EQ(draws, 0u) << "mu " << mu;
    EXPECT_EQ(removed, mu == 0.0 ? 0u : 1025u) << "mu " << mu;
    for (tlb::graph::Node r = 0; r < kSlots.size(); ++r) {
      EXPECT_EQ(loads.load(r), mu == 0.0 ? fixed_loads().load(r) : 0.0);
    }
  }
}

TEST(ClassLoadsCompleteTest, TinyRateSaturatesTheSkip) {
  // log1p(-mu) is about -1e-300, so the first gap is near 1e300: it must
  // saturate instead of overflowing the uint64 skip.
  for (const double mu : {1e-300, 5e-324}) {
    ClassLoads loads = fixed_loads();
    Rng rng(12);
    std::uint64_t draws = 0;
    rng.attach_probe(&draws);
    std::uint64_t removed = 0;
    loads.complete(mu, rng,
                   [&](tlb::graph::Node, std::size_t, std::uint32_t k) {
                     removed += k;
                   });
    EXPECT_EQ(removed, 0u) << "mu " << mu;
    EXPECT_EQ(draws, 1u) << "mu " << mu;
  }
}

}  // namespace
