// Observer-contract and metrics-observability tests: a test-local ordering
// sentinel for engine::drive's hook sequence (should_stop -> on_round ->
// step -> on_round_end, once on_finish) under balance, early-stop and the
// max_rounds cap; and the determinism contract of the engine metrics —
// attaching a registry never changes a RunResult, and the deterministic
// snapshot serialises byte-identically across engine-thread counts
// {1, 2, 0}.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "tlb/core/user_protocol.hpp"
#include "tlb/engine/driver.hpp"
#include "tlb/obs/registry.hpp"
#include "tlb/obs/trace_event.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/tasks/task_set.hpp"
#include "tlb/util/rng.hpp"

namespace {

using namespace tlb;
using core::RunResult;
using obs::Registry;
using obs::Snapshot;
using tasks::TaskSet;
using util::Rng;

TaskSet continuous_tasks(std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w(m);
  for (auto& x : w) x = 1.0 + 7.0 * rng.uniform01();
  return TaskSet(std::move(w));
}

core::UserProtocolConfig user_config(const TaskSet& ts, graph::Node n,
                                     std::size_t threads = 1) {
  core::UserProtocolConfig cfg;
  cfg.threshold = 1.05 * ts.total_weight() / static_cast<double>(n) +
                  ts.max_weight();
  cfg.options.threads = threads;
  return cfg;
}

/// Ordering sentinel for the driver's hook contract: every on_round is
/// closed by an on_round_end of the same index, round indices run 0, 1, …,
/// and on_finish arrives exactly once, outside a round. Violations are
/// collected rather than thrown so one run reports all of them.
class HookSentinel final : public engine::RoundObserver {
 public:
  void on_round(const engine::BalancerView&, long round) override {
    if (finishes_ > 0) errors_.emplace_back("on_round after on_finish");
    if (in_round_) errors_.emplace_back("on_round inside an open round");
    if (round != closed_) errors_.emplace_back("round index out of sequence");
    in_round_ = true;
    open_ = round;
  }
  void on_round_end(const engine::BalancerView&, long round,
                    std::size_t) override {
    if (!in_round_ || round != open_) {
      errors_.emplace_back("on_round_end without a matching on_round");
    }
    in_round_ = false;
    ++closed_;
  }
  void on_finish(const engine::BalancerView&) override {
    if (in_round_) errors_.emplace_back("on_finish inside an open round");
    ++finishes_;
  }

  /// Rounds closed by on_round_end.
  long rounds() const noexcept { return closed_; }
  int finishes() const noexcept { return finishes_; }
  const std::vector<std::string>& errors() const noexcept { return errors_; }

 private:
  bool in_round_ = false;
  long open_ = -1;
  long closed_ = 0;
  int finishes_ = 0;
  std::vector<std::string> errors_;
};

/// Minimal view for driving the observer hooks by hand.
class StubView final : public engine::BalancerView {
 public:
  double potential() const override { return 0.0; }
  std::uint32_t overloaded_count() const override { return 0; }
  double max_load() const override { return 0.0; }
  bool balanced() const override { return false; }
};

TEST(HookOrderTest, SentinelFlagsOutOfOrderHooks) {
  const StubView view;
  HookSentinel unopened;
  unopened.on_round_end(view, 0, 0);
  EXPECT_FALSE(unopened.errors().empty());

  HookSentinel finished_mid_round;
  finished_mid_round.on_round(view, 0);
  finished_mid_round.on_finish(view);
  EXPECT_FALSE(finished_mid_round.errors().empty());
}

TEST(HookOrderTest, PairsEveryRoundUnderDriveToBalance) {
  const graph::Node n = 32;
  const TaskSet ts = continuous_tasks(2048, 0x0B51);
  core::UserControlledEngine engine(ts, n, user_config(ts, n));
  engine.reset(tasks::all_on_one(ts));

  HookSentinel sentinel;
  Rng rng(7);
  const RunResult result =
      engine::drive(engine, rng, engine::DriveOptions{}, &sentinel);

  EXPECT_TRUE(result.balanced);
  EXPECT_TRUE(sentinel.errors().empty()) << sentinel.errors().front();
  EXPECT_EQ(sentinel.finishes(), 1);
  EXPECT_EQ(sentinel.rounds(), result.rounds);
}

TEST(HookOrderTest, StaysConsistentUnderEarlyStop) {
  const graph::Node n = 32;
  const TaskSet ts = continuous_tasks(2048, 0x0B52);
  core::UserControlledEngine engine(ts, n, user_config(ts, n));
  engine.reset(tasks::all_on_one(ts));

  HookSentinel sentinel;
  engine::EarlyStop stopper(
      [](const engine::BalancerView&, long round) { return round >= 3; });
  engine::ObserverList observers;
  observers.add(&sentinel);
  observers.add(&stopper);
  Rng rng(11);
  const RunResult result =
      engine::drive(engine, rng, engine::DriveOptions{}, &observers);

  // should_stop fires at the top of round 3, before on_round — so the
  // stopped round is never half-observed.
  EXPECT_EQ(result.rounds, 3);
  EXPECT_TRUE(stopper.triggered());
  EXPECT_TRUE(sentinel.errors().empty()) << sentinel.errors().front();
  EXPECT_EQ(sentinel.finishes(), 1);
  EXPECT_EQ(sentinel.rounds(), 3);
}

TEST(HookOrderTest, StaysConsistentAtTheRoundCap) {
  const graph::Node n = 32;
  const TaskSet ts = continuous_tasks(2048, 0x0B53);
  core::UserControlledEngine engine(ts, n, user_config(ts, n));
  engine.reset(tasks::all_on_one(ts));

  HookSentinel sentinel;
  engine::DriveOptions opt;
  opt.max_rounds = 2;
  Rng rng(13);
  const RunResult result = engine::drive(engine, rng, opt, &sentinel);

  EXPECT_EQ(result.rounds, 2);
  EXPECT_FALSE(result.balanced);
  EXPECT_TRUE(sentinel.errors().empty()) << sentinel.errors().front();
  EXPECT_EQ(sentinel.finishes(), 1);
  EXPECT_EQ(sentinel.rounds(), 2);
}

TEST(EngineMetricsTest, AttachingObservabilityChangesNoResult) {
  const graph::Node n = 32;
  const TaskSet ts = continuous_tasks(2048, 0x0B54);

  core::UserControlledEngine plain(ts, n, user_config(ts, n));
  Rng plain_rng(17);
  const RunResult expected =
      plain.run(tasks::all_on_one(ts), plain_rng);

  Registry reg;
  obs::TraceWriter trace;
  core::UserProtocolConfig cfg = user_config(ts, n);
  cfg.options.registry = &reg;
  cfg.options.trace = &trace;
  core::UserControlledEngine observed(ts, n, cfg);
  Rng observed_rng(17);
  const RunResult actual =
      observed.run(tasks::all_on_one(ts), observed_rng);

  EXPECT_EQ(expected.rounds, actual.rounds);
  EXPECT_EQ(expected.migrations, actual.migrations);
  EXPECT_EQ(expected.balanced, actual.balanced);
  EXPECT_EQ(expected.final_max_load, actual.final_max_load);
  // And the run actually produced metrics + spans.
  const Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.find("drive.rounds")->value,
            static_cast<std::uint64_t>(actual.rounds));
  EXPECT_GT(snap.find("exact.departures")->value, 0u);
  EXPECT_GT(trace.events(), 0u);
}

TEST(EngineMetricsTest, DeterministicSnapshotIdenticalAcrossEngineThreads) {
  const graph::Node n = 32;
  const TaskSet ts = continuous_tasks(2048, 0x0B55);

  const auto run = [&](std::size_t threads) {
    Registry reg;
    core::UserProtocolConfig cfg = user_config(ts, n, threads);
    cfg.options.registry = &reg;
    core::UserControlledEngine engine(ts, n, cfg);
    Rng rng(23);
    engine.run(tasks::all_on_one(ts), rng);
    return reg.snapshot().json(Snapshot::Part::kDeterministic);
  };

  const std::string inline_json = run(1);
  EXPECT_NE(inline_json.find("\"exact.coins\""), std::string::npos);
  EXPECT_NE(inline_json.find("\"exact.departures\""), std::string::npos);
  EXPECT_NE(inline_json.find("\"exact.flush_checks\""), std::string::npos);
  // Pool metrics are timing-class: threads=1 has no pool at all, so they
  // must never leak into the deterministic part.
  EXPECT_EQ(inline_json.find("pool."), std::string::npos);
  EXPECT_EQ(inline_json, run(2));
  EXPECT_EQ(inline_json, run(0));
}

}  // namespace
