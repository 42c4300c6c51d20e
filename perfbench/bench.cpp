// Same-host benchmark program for the tlb library.
//
// One process runs one workload. A round of the run is a fixed number of
// samples, each with its own seed derived from --seed; a sample is one
// balancing run, one churn window or one sweep of Figure 1 trials (an
// operation is one balancing run, one churn window or one trial). Whole
// rounds repeat while another one fits into --seconds. Every output is
// checked against a recomputation made outside the engines, and one JSON
// object is printed as the last line of stdout:
//
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// A repeated sample replays the same inputs, so its rounds and migrations
// must repeat exactly. --trace 0 reports the end-to-end metrics: timings
// are medians over samples, and a rate is a sample's mean count over the
// median time. --trace 1 runs
// half the samples, each once untraced and once traced with the library's
// obs::Registry, a dsan::StepProbe and an obs::TraceWriter attached and
// every public call timed from outside, and reports the per-layer figures.
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "tlb/core/dynamic.hpp"
#include "tlb/core/resource_protocol.hpp"
#include "tlb/core/user_protocol.hpp"
#include "tlb/dsan/probe.hpp"
#include "tlb/graph/builders.hpp"
#include "tlb/obs/registry.hpp"
#include "tlb/obs/trace_event.hpp"
#include "tlb/sim/runner.hpp"
#include "tlb/tasks/placement.hpp"
#include "tlb/util/alloc_tuning.hpp"
#include "tlb/util/rng.hpp"
#include "tlb/workload/arrival.hpp"
#include "tlb/workload/scenario.hpp"
#include "tlb/workload/weight_models.hpp"

namespace {

using namespace tlb;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ parameters

/// Threshold slack ε of the paper's simulations (Section 7).
constexpr double kEps = 0.2;
/// Safety cap on rounds; a run that reaches it counts as a failed operation.
constexpr long kMaxRounds = 1000000;

/// Separate random streams for the inputs and the round loop.
constexpr std::uint64_t kTasksStream = 1;
constexpr std::uint64_t kRunStream = 2;
constexpr std::uint64_t kClassStream = 3;

// exact-batch: real-valued weights force the per-task engine.
constexpr graph::Node kExactN = 1000000;
constexpr std::size_t kExactM = 8000000;
constexpr double kExactHi = 8.0;

// resource-hypercube: Algorithm 5.1 on a 2^17-node hypercube.
constexpr graph::Node kCubeDim = 17;
constexpr std::size_t kCubeLoadFactor = 4;

// poisson-churn: steady population rate/mu ≈ 2n tasks. Real-valued class
// weights (uniform(8) bucketed into kChurnClasses classes) spread the loads,
// so each threshold shift sweeps a non-empty band of the load index.
constexpr graph::Node kChurnN = 1u << 18;
constexpr double kChurnHi = 8.0;
constexpr std::size_t kChurnClasses = 8;
constexpr double kChurnMu = 0.05;
constexpr double kChurnRate = 2.0 * kChurnN * kChurnMu;
constexpr long kChurnWarmup = 60;  // population within 5% of steady state
constexpr long kChurnWindow = 100;

// paper-fig1: the Figure 1 grid (n = 1000, w_max = 50, α = 1).
constexpr graph::Node kFig1N = 1000;
constexpr double kFig1WMax = 50.0;
constexpr std::size_t kFig1Trials = 50;  // per grid point per repetition
constexpr int kFig1K[] = {1, 5, 10, 20, 50};

// ---------------------------------------------------------- layer figures

struct Layer {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in output order. Workloads that do not reach a
/// layer report 0 for it.
constexpr Layer kLayers[] = {
    {"workload.tasks_s", "s"},      {"graph.build_s", "s"},
    {"core.construct_s", "s"},      {"mem.place_s", "s"},
    {"core.step_s", "s"},           {"core.round1_s", "s"},
    {"core.step_p50_ms", "ms"},     {"core.step_p95_ms", "ms"},
    {"core.query_s", "s"},          {"core.migrations", "count"},
    {"mem.relocations", "count"},   {"mem.compactions", "count"},
    {"mem.slab_slots", "count"},    {"mem.dead_slots", "count"},
    {"exact.sample_s", "s"},        {"exact.merge_s", "s"},
    {"exact.apply_s", "s"},         {"exact.coins", "count"},
    {"exact.departures", "count"},  {"exact.flush_checks", "count"},
    {"exact.dirty_marks", "count"}, {"grouped.sample_s", "s"},
    {"grouped.apply_s", "s"},       {"grouped.departures", "count"},
    {"grouped.departure_groups", "count"},
    {"grouped.flush_checks", "count"},
    {"sim.trial_setup_us", "us"},   {"sim.trial_run_us", "us"},
    {"dynamic.arrivals_s", "s"},    {"dynamic.completions_s", "s"},
    {"dynamic.sample_s", "s"},      {"dynamic.apply_s", "s"},
    {"dynamic.arrivals", "count"},  {"dynamic.completions", "count"},
    {"dynamic.threshold_changes", "count"},
    {"dynamic.flush_checks", "count"},
    {"index.band_size", "count"},   {"index.bucket_moves", "count"},
    {"index.reconciled", "count"},  {"util.rng_draws", "count"},
    {"trace.overhead_s", "s"},
};

/// Registry timing counters (ns) and the layer names they are reported as.
constexpr std::pair<const char*, const char*> kRegistryTimes[] = {
    {"exact.sample_ns", "exact.sample_s"},
    {"exact.merge_ns", "exact.merge_s"},
    {"exact.apply_ns", "exact.apply_s"},
    {"grouped.sample_ns", "grouped.sample_s"},
    {"grouped.apply_ns", "grouped.apply_s"},
    {"dynamic.arrivals_ns", "dynamic.arrivals_s"},
    {"dynamic.completions_ns", "dynamic.completions_s"},
    {"dynamic.sample_ns", "dynamic.sample_s"},
    {"dynamic.apply_ns", "dynamic.apply_s"},
};

/// Registry work counters reported under their own names.
constexpr const char* kRegistryCounts[] = {
    "exact.coins",          "exact.departures",
    "exact.flush_checks",   "exact.dirty_marks",
    "grouped.departures",   "grouped.departure_groups",
    "grouped.flush_checks", "dynamic.arrivals",
    "dynamic.completions",  "dynamic.threshold_changes",
    "dynamic.flush_checks", "index.band_size",
    "index.bucket_moves",   "index.reconciled",
};

/// Layer figures the benchmark measures itself, from outside the library.
enum Span : std::size_t {
  kTasks,
  kGraph,
  kConstruct,
  kPlace,
  kStep,
  kRound1,
  kQuery,
  kRelocations,
  kCompactions,
  kSlabSlots,
  kDeadSlots,
  kNumSpans
};

/// Layer names of the spans, indexed by Span.
constexpr const char* kSpanNames[kNumSpans] = {
    "workload.tasks_s", "graph.build_s",   "core.construct_s",
    "mem.place_s",      "core.step_s",     "core.round1_s",
    "core.query_s",     "mem.relocations", "mem.compactions",
    "mem.slab_slots",   "mem.dead_slots",
};

/// Instrumentation of one traced repetition; nullptr everywhere means the
/// repetition is untraced and takes no extra timestamps.
struct Trace {
  explicit Trace(obs::TraceWriter& w) : writer(&w) {}
  obs::Registry registry;
  dsan::StepProbe probe;
  obs::TraceWriter* writer;
  /// Registry state at the start of the measured window (churn excludes
  /// its warm-up rounds); empty = count from construction.
  obs::Snapshot base;
  /// Span totals, indexed by Span: seconds, or counts for the mem.* spans.
  double spans[kNumSpans] = {};
  std::vector<double> step_ms;
  std::uint64_t draws = 0;
};

/// Run `f` inside the span `s` when traced.
template <class F>
void timed(Trace* t, Span s, F&& f) {
  if (t == nullptr) {
    f();
    return;
  }
  const std::uint64_t start = obs::monotonic_ns();
  f();
  const std::uint64_t dur = obs::monotonic_ns() - start;
  t->spans[s] += static_cast<double>(dur) * 1e-9;
  t->writer->complete(kSpanNames[s], start, dur);
}

template <class Options>
void attach(Trace* t, Options& o) {
  if (t == nullptr) return;
  o.registry = &t->registry;
  o.trace = t->writer;
  o.dsan = &t->probe;
}

void add_arena_layers(Trace* t, const mem::TaskArena& arena) {
  if (t == nullptr) return;
  t->spans[kRelocations] += static_cast<double>(arena.relocations());
  t->spans[kCompactions] += static_cast<double>(arena.compactions());
  t->spans[kSlabSlots] += static_cast<double>(arena.slab_size());
  t->spans[kDeadSlots] += static_cast<double>(arena.dead_slots());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// ---------------------------------------------------------- output checks

bool close(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

std::string fmt(const char* f, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

/// What a finished balancing run left behind, read through the public API.
struct Outcome {
  std::vector<double> loads;  ///< per resource (recomputed from task ids
                              ///< where the engine exposes stacks)
  bool placed_once = true;    ///< every task id on exactly one stack
  double threshold = 0.0;     ///< threshold the engine balanced against
  std::uint64_t migrations = 0;
  std::uint64_t min_moves = 0;  ///< tasks that must have moved at least once
};

/// Check a balanced batch run against the paper's guarantee, with T, W and
/// w_max recomputed from the raw weights (not the TaskSet's aggregates).
std::string verify_batch(const Outcome& o, const tasks::TaskSet& ts) {
  double w_total = 0.0;
  double w_max = 0.0;
  for (double w : ts.weights()) {
    w_total += w;
    w_max = std::max(w_max, w);
  }
  const double n = static_cast<double>(o.loads.size());
  const double T = (1.0 + kEps) * w_total / n + w_max;
  if (!o.placed_once) return "a task is missing or placed more than once";
  if (!close(o.threshold, T)) {
    return fmt("engine threshold %.17g != recomputed %.17g", o.threshold, T);
  }
  double total = 0.0;
  double max_load = 0.0;
  for (double l : o.loads) {
    total += l;
    max_load = std::max(max_load, l);
  }
  if (!close(total, w_total)) {
    return fmt("total load %.17g != total weight %.17g", total, w_total);
  }
  if (max_load > T * (1.0 + 1e-12)) {
    return fmt("max load %.17g exceeds T = %.17g", max_load, T);
  }
  if (o.migrations < o.min_moves) {
    return fmt("%.0f migrations < %.0f tasks moved off resource 0",
               static_cast<double>(o.migrations),
               static_cast<double>(o.min_moves));
  }
  return {};
}

/// Outcome of a SystemState-backed engine: loads recomputed from the task
/// ids on every stack.
Outcome outcome_of(const core::SystemState& st, const tasks::TaskSet& ts,
                   double threshold, std::uint64_t migrations) {
  Outcome o;
  o.threshold = threshold;
  o.migrations = migrations;
  const graph::Node n = st.num_resources();
  o.loads.assign(n, 0.0);
  std::vector<std::uint8_t> seen(ts.size(), 0);
  std::size_t placed = 0;
  for (graph::Node r = 0; r < n; ++r) {
    for (tasks::TaskId id : st.stack(r).tasks()) {
      if (id >= ts.size() || seen[id] != 0) {
        o.placed_once = false;
        continue;
      }
      seen[id] = 1;
      ++placed;
      o.loads[r] += ts.weight(id);
    }
  }
  o.placed_once = o.placed_once && placed == ts.size();
  o.min_moves = ts.size() - st.stack(0).count();
  return o;
}

/// Outcome of the grouped engine, which keeps per-class counts instead of
/// task ids: loads come from load(r), and every task off resource 0 carries
/// at most w_max, which bounds the moves from below.
Outcome outcome_of(const core::GroupedUserEngine& e, const tasks::TaskSet& ts,
                   graph::Node n, std::uint64_t migrations) {
  Outcome o;
  o.threshold = e.reported_threshold();
  o.migrations = migrations;
  o.loads.resize(n);
  for (graph::Node r = 0; r < n; ++r) o.loads[r] = e.load(r);
  const double off_zero = ts.total_weight() - o.loads[0];
  o.min_moves = static_cast<std::uint64_t>(
      std::max(0.0, std::ceil(off_zero / ts.max_weight() - 1e-9)));
  return o;
}

/// What a churn window left behind.
struct ChurnOutcome {
  std::uint64_t start_population = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;
  std::uint64_t population = 0;
  std::vector<double> loads;
  double total_weight = 0.0;
  double threshold = 0.0;
  double w_max = 0.0;  ///< largest class weight, from the class table
};

std::string verify_churn(const ChurnOutcome& c) {
  if (c.population + c.completions != c.start_population + c.arrivals) {
    return fmt("population %.0f != start + arrivals - completions = %.0f",
               static_cast<double>(c.population),
               static_cast<double>(c.start_population + c.arrivals) -
                   static_cast<double>(c.completions));
  }
  double total = 0.0;
  for (double l : c.loads) total += l;
  if (!close(total, c.total_weight)) {
    return fmt("sum of loads %.17g != total_weight() %.17g", total,
               c.total_weight);
  }
  const double T = (1.0 + kEps) * c.total_weight /
                       static_cast<double>(c.loads.size()) +
                   c.w_max;
  if (!close(c.threshold, T)) {
    return fmt("current_threshold() %.17g != recomputed %.17g", c.threshold,
               T);
  }
  return {};
}

/// The churn class table: uniform(kChurnHi) bucketed into kChurnClasses
/// real-valued classes drawn from `class_rng`.
workload::MixtureWeights churn_model(util::Rng& class_rng) {
  std::vector<workload::MixtureWeights::Component> classes;
  for (const workload::WeightClass& c : workload::to_weight_classes(
           workload::UniformWeights(kChurnHi), kChurnClasses, class_rng)) {
    classes.push_back({c.weight, c.probability});
  }
  return workload::MixtureWeights(std::move(classes));
}

ChurnOutcome outcome_of(const core::DynamicUserEngine& e,
                        const core::DynamicConfig& cfg,
                        std::uint64_t start_population) {
  ChurnOutcome c;
  c.start_population = start_population;
  c.arrivals = e.metrics().arrivals;
  c.completions = e.metrics().completions;
  c.population = e.population();
  c.loads.resize(cfg.n);
  for (graph::Node r = 0; r < cfg.n; ++r) c.loads[r] = e.load(r);
  c.total_weight = e.total_weight();
  c.threshold = e.current_threshold();
  for (const auto& cls : cfg.classes) c.w_max = std::max(c.w_max, cls.weight);
  return c;
}

// ----------------------------------------------------------- round loops

/// The result of one sample: one or more operations on one seed.
struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  long rounds = 0;
  std::uint64_t migrations = 0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;         ///< operations that hit the cap or a check
  std::vector<std::string> errors;  ///< output checks that did not hold

  /// Record the output check of one operation; a failed check fails it.
  void check(const std::string& error) {
    if (error.empty()) return;
    ++failed;
    errors.push_back(error);
  }
};

/// One engine step, timed from outside when traced.
template <class Engine>
void step(Engine& engine, util::Rng& rng, Trace* t, bool first, Rep& rep) {
  std::size_t moved = 0;
  if (t == nullptr) {
    moved = engine.step(rng);
  } else {
    const std::uint64_t start = obs::monotonic_ns();
    moved = engine.step(rng);
    const std::uint64_t dur = obs::monotonic_ns() - start;
    t->writer->complete(kSpanNames[kStep], start, dur);
    const double s = static_cast<double>(dur) * 1e-9;
    t->spans[kStep] += s;
    if (first) t->spans[kRound1] += s;
    t->step_ms.push_back(s * 1e3);
    if (t->probe.has_record()) {
      const dsan::StepRecord& rec = t->probe.take();
      t->draws += rec.master_draws + rec.shard_draws;
    }
  }
  rep.migrations += moved;
  ++rep.rounds;
}

/// Step until balanced, querying balanced() before every round as a caller
/// would. False if the round cap was reached first.
template <class Engine>
bool run_to_balance(Engine& engine, util::Rng& rng, Trace* t, Rep& rep) {
  for (long round = 0; round < kMaxRounds; ++round) {
    bool done = false;
    timed(t, kQuery, [&] { done = engine.balanced(); });
    if (done) return true;
    step(engine, rng, t, round == 0, rep);
  }
  return false;
}

// -------------------------------------------------------------- workloads

Rep exact_batch(std::uint64_t seed, Trace* t) {
  Rep rep;
  rep.ops = 1;
  const auto t0 = Clock::now();
  std::optional<tasks::TaskSet> ts;
  timed(t, kTasks, [&] {
    util::Rng wrng(util::derive_seed(seed, kTasksStream));
    ts.emplace(workload::UniformWeights(kExactHi).make(kExactM, wrng));
  });
  core::UserProtocolConfig cfg;
  cfg.threshold = (1.0 + kEps) * ts->total_weight() / kExactN +
                  ts->max_weight();
  cfg.options.max_rounds = kMaxRounds;
  attach(t, cfg.options);
  std::optional<core::UserControlledEngine> engine;
  timed(t, kConstruct, [&] { engine.emplace(*ts, kExactN, cfg); });
  timed(t, kPlace, [&] { engine->reset(tasks::all_on_one(*ts)); });
  rep.setup_s = since(t0);

  util::Rng rng(util::derive_seed(seed, kRunStream));
  const auto t1 = Clock::now();
  const bool balanced = run_to_balance(*engine, rng, t, rep);
  rep.run_s = since(t1);
  if (!balanced) {
    ++rep.failed;
  } else {
    rep.check(verify_batch(outcome_of(engine->state(), *ts,
                                      engine->threshold(), rep.migrations),
                           *ts));
  }
  add_arena_layers(t, engine->state().arena());
  return rep;
}

Rep resource_hypercube(std::uint64_t seed, Trace* t) {
  Rep rep;
  rep.ops = 1;
  const auto t0 = Clock::now();
  graph::Graph g;
  timed(t, kGraph, [&] { g = graph::hypercube(kCubeDim); });
  const graph::Node n = g.num_nodes();
  std::optional<tasks::TaskSet> ts;
  timed(t, kTasks, [&] {
    util::Rng wrng(util::derive_seed(seed, kTasksStream));
    ts.emplace(workload::BimodalWeights(8.0, 0.1).make(
        kCubeLoadFactor * static_cast<std::size_t>(n), wrng));
  });
  core::ResourceProtocolConfig cfg;
  cfg.threshold = (1.0 + kEps) * ts->total_weight() / n + ts->max_weight();
  // The max-degree walk is periodic on the bipartite hypercube.
  cfg.walk = randomwalk::WalkKind::kLazy;
  cfg.options.max_rounds = kMaxRounds;
  attach(t, cfg.options);
  std::optional<core::ResourceControlledEngine> engine;
  timed(t, kConstruct, [&] { engine.emplace(g, *ts, cfg); });
  timed(t, kPlace, [&] { engine->reset(tasks::all_on_one(*ts)); });
  rep.setup_s = since(t0);

  util::Rng rng(util::derive_seed(seed, kRunStream));
  // This engine takes no step probe; count its draws on the caller stream.
  if (t != nullptr) rng.attach_probe(&t->draws);
  const auto t1 = Clock::now();
  const bool balanced = run_to_balance(*engine, rng, t, rep);
  rep.run_s = since(t1);
  rng.attach_probe(nullptr);
  if (!balanced) {
    ++rep.failed;
  } else {
    rep.check(verify_batch(outcome_of(engine->state(), *ts,
                                      engine->threshold(), rep.migrations),
                           *ts));
  }
  add_arena_layers(t, engine->state().arena());
  return rep;
}

Rep poisson_churn(std::uint64_t seed, Trace* t) {
  Rep rep;
  rep.ops = 1;
  const auto t0 = Clock::now();
  util::Rng class_rng(util::derive_seed(seed, kClassStream));
  const workload::MixtureWeights model = churn_model(class_rng);
  const workload::PoissonArrivals process(kChurnRate, kChurnMu);
  core::DynamicConfig cfg =
      workload::make_dynamic_config(model, process, kChurnN, kEps,
                                    /*alpha=*/1.0, /*paranoid=*/false,
                                    /*threads=*/1, class_rng);
  attach(t, cfg);
  std::optional<core::DynamicUserEngine> engine;
  timed(t, kConstruct, [&] { engine.emplace(cfg); });
  util::Rng rng(util::derive_seed(seed, kRunStream));
  for (long r = 0; r < kChurnWarmup; ++r) {
    engine->step(rng);
    (void)engine->overloaded_count();
  }
  rep.setup_s = since(t0);

  if (t != nullptr) {
    t->base = t->registry.snapshot();
    if (t->probe.has_record()) (void)t->probe.take();
  }
  const std::uint64_t start_population = engine->population();
  engine->begin_measure();
  const auto t1 = Clock::now();
  for (long r = 0; r < kChurnWindow; ++r) {
    step(*engine, rng, t, r == 0, rep);
    timed(t, kQuery, [&] { (void)engine->overloaded_count(); });
  }
  rep.run_s = since(t1);
  engine->end_measure();
  rep.check(verify_churn(outcome_of(*engine, cfg, start_population)));
  return rep;
}

Rep paper_fig1(std::uint64_t seed, Trace* t) {
  Rep rep;
  std::uint64_t point = 0;
  for (int k : kFig1K) {
    for (int w = 2000; w <= 10000; w += 1000) {
      ++point;
      const double heavy = k * kFig1WMax;
      if (w < heavy + 1.0) continue;  // no room for the unit tasks
      auto t0 = Clock::now();
      std::optional<tasks::TaskSet> ts;
      timed(t, kTasks, [&] {
        util::Rng unused(0);  // the two-point composition is deterministic
        const auto units = static_cast<std::size_t>(std::llround(w - heavy));
        ts.emplace(workload::TwoPointWeights(static_cast<std::size_t>(k),
                                             kFig1WMax)
                       .make(units + static_cast<std::size_t>(k), unused));
      });
      core::UserProtocolConfig cfg;
      cfg.threshold = (1.0 + kEps) * ts->total_weight() / kFig1N +
                      ts->max_weight();
      cfg.options.max_rounds = kMaxRounds;
      attach(t, cfg.options);
      rep.setup_s += since(t0);

      const auto trial = [&](util::Rng& rng) {
        ++rep.ops;
        t0 = Clock::now();
        std::optional<core::GroupedUserEngine> engine;
        timed(t, kConstruct, [&] { engine.emplace(*ts, kFig1N, cfg); });
        timed(t, kPlace, [&] { engine->reset(tasks::all_on_one(*ts)); });
        rep.setup_s += since(t0);
        const auto t1 = Clock::now();
        const long rounds_before = rep.rounds;
        const std::uint64_t moves_before = rep.migrations;
        core::RunResult result;
        result.balanced = run_to_balance(*engine, rng, t, rep);
        rep.run_s += since(t1);
        result.rounds = rep.rounds - rounds_before;
        result.migrations = rep.migrations - moves_before;
        if (!result.balanced) {
          ++rep.failed;
        } else {
          rep.check(verify_batch(
              outcome_of(*engine, *ts, kFig1N, result.migrations), *ts));
        }
        return result;
      };
      (void)sim::run_trials(kFig1Trials, util::derive_seed(seed, point),
                            sim::TrialFn(trial), /*threads=*/1);
    }
  }
  return rep;
}

// -------------------------------------------------------------- self-test

/// The output checks must reject corrupted outputs, or a run that passes
/// them shows nothing. Runs small real engines, requires the checks to
/// accept their outputs, then corrupts one load or threshold at a time and
/// requires the checks to reject it. Returns the first problem, or "".
std::string self_test() {
  util::Rng wrng(11);
  const tasks::TaskSet ts = workload::UniformWeights(8.0).make(512, wrng);
  constexpr graph::Node n = 32;
  core::UserProtocolConfig ucfg;
  ucfg.threshold = (1.0 + kEps) * ts.total_weight() / n + ts.max_weight();
  core::UserControlledEngine user(ts, n, ucfg);
  user.reset(tasks::all_on_one(ts));
  util::Rng rng(12);
  Rep rep;
  if (!run_to_balance(user, rng, nullptr, rep)) return "small run hit the cap";
  const Outcome good =
      outcome_of(user.state(), ts, user.threshold(), rep.migrations);
  if (const std::string e = verify_batch(good, ts); !e.empty()) {
    return "clean batch outcome rejected: " + e;
  }
  Outcome bad = good;
  bad.loads[n - 1] += ts.max_weight() * n;
  if (verify_batch(bad, ts).empty()) return "corrupted load accepted";
  bad = good;
  bad.threshold *= 0.5;
  if (verify_batch(bad, ts).empty()) return "corrupted threshold accepted";
  bad = good;
  bad.migrations = 0;
  if (verify_batch(bad, ts).empty()) return "zero migrations accepted";

  util::Rng class_rng(13);
  const workload::MixtureWeights model = churn_model(class_rng);
  const workload::PoissonArrivals process(64.0, 0.05);
  core::DynamicConfig dcfg = workload::make_dynamic_config(
      model, process, n, kEps, 1.0, false, 1, class_rng);
  core::DynamicUserEngine churn(dcfg);
  for (int r = 0; r < 20; ++r) churn.step(rng);
  const std::uint64_t start = churn.population();
  churn.begin_measure();
  for (int r = 0; r < 20; ++r) churn.step(rng);
  churn.end_measure();
  const ChurnOutcome cgood = outcome_of(churn, dcfg, start);
  if (const std::string e = verify_churn(cgood); !e.empty()) {
    return "clean churn outcome rejected: " + e;
  }
  ChurnOutcome cbad = cgood;
  cbad.threshold += 1.0;
  if (verify_churn(cbad).empty()) return "corrupted churn threshold accepted";
  cbad = cgood;
  cbad.loads[0] += 1.0;
  if (verify_churn(cbad).empty()) return "corrupted churn load accepted";
  cbad = cgood;
  ++cbad.population;
  if (verify_churn(cbad).empty()) return "corrupted population accepted";
  return {};
}

// ------------------------------------------------------------- main loop

using WorkloadFn = Rep (*)(std::uint64_t, Trace*);

struct Workload {
  const char* name;
  WorkloadFn fn;
  /// Distinct operations (seeds derived from --seed) in one round of the
  /// run; more of them average out how much a single seed's inputs cost.
  std::size_t samples;
};

constexpr Workload kWorkloads[] = {
    {"exact-batch", exact_batch, 6},
    {"resource-hypercube", resource_hypercube, 14},
    {"poisson-churn", poisson_churn, 3},
    {"paper-fig1", paper_fig1, 1},
};

/// Per-layer figures of a finished traced repetition.
std::map<std::string, double> finish_layers(Trace& t, const Rep& rep) {
  std::map<std::string, double> out;
  for (const Layer& l : kLayers) out[l.name] = 0.0;
  for (std::size_t s = 0; s < kNumSpans; ++s) out[kSpanNames[s]] = t.spans[s];
  const obs::Snapshot snap = t.registry.snapshot().delta(t.base);
  for (const auto& [counter, layer] : kRegistryTimes) {
    if (const obs::Snapshot::Entry* e = snap.find(counter)) {
      out[layer] = static_cast<double>(e->value) * 1e-9;
    }
  }
  for (const char* counter : kRegistryCounts) {
    if (const obs::Snapshot::Entry* e = snap.find(counter)) {
      out[counter] = static_cast<double>(e->value);
    }
  }
  out["core.step_p50_ms"] = quantile(t.step_ms, 0.50);
  out["core.step_p95_ms"] = quantile(t.step_ms, 0.95);
  out["core.migrations"] = static_cast<double>(rep.migrations);
  out["util.rng_draws"] = static_cast<double>(t.draws);
  if (rep.ops > 1) {
    out["sim.trial_setup_us"] = rep.setup_s * 1e6 / rep.ops;
    out["sim.trial_run_us"] = rep.run_s * 1e6 / rep.ops;
  }
  return out;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a.workload = v;
    } else if (key == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (key == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0;
}

void print_metric(bool& first, const char* name, double value,
                  const char* unit) {
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              first ? "" : ", ", name, std::isfinite(value) ? value : 0.0,
              unit);
  first = false;
}

int run(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& c : kWorkloads) {
    if (args.workload == c.name) w = &c;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  util::tune_allocator_for_throughput();
  std::vector<std::string> errors;
  if (const std::string e = self_test(); !e.empty()) {
    errors.push_back("check self-test: " + e);
  }

  // A traced round runs every sample twice, so it takes half the samples.
  const std::size_t samples =
      args.trace ? std::max<std::size_t>(1, w->samples / 2) : w->samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Rep> reps;   // every repetition, in run order
  std::vector<Rep> first;  // the first result of each sample
  const auto record = [&](std::size_t sample, Rep rep) {
    std::fprintf(stderr,
                 "perfbench: sample %zu: setup %.4f s, run %.4f s, "
                 "%ld rounds, %llu migrations\n",
                 sample, rep.setup_s, rep.run_s, rep.rounds,
                 static_cast<unsigned long long>(rep.migrations));
    if (first.size() == sample) {
      first.push_back(rep);
    } else if (rep.rounds != first[sample].rounds ||
               rep.migrations != first[sample].migrations) {
      // Not attributable to one trial: every operation of the sample fails.
      rep.failed = rep.ops;
      errors.push_back("a repetition of the same operations gave other "
                       "rounds or migrations");
    }
    attempted += rep.ops;
    failed += rep.failed;
    for (std::string& e : rep.errors) errors.push_back(std::move(e));
    reps.push_back(std::move(rep));
  };

  std::vector<std::map<std::string, double>> layers;
  std::vector<double> untraced_run_s, traced_run_s;
  std::optional<obs::TraceWriter> writer;
  if (args.trace) writer.emplace(std::size_t{1} << 16);
  // Whole rounds only, while another round of the typical length fits.
  const auto t0 = Clock::now();
  for (std::size_t round = 1;; ++round) {
    for (std::size_t i = 0; i < samples; ++i) {
      const std::uint64_t seed = util::derive_seed(args.seed, i);
      record(i, w->fn(seed, nullptr));
      if (!args.trace) continue;
      // The traced repetition follows the untraced one on the same inputs,
      // so the overhead compares like with like.
      untraced_run_s.push_back(reps.back().run_s);
      Trace t(*writer);
      Rep rep = w->fn(seed, &t);
      layers.push_back(finish_layers(t, rep));
      traced_run_s.push_back(rep.run_s);
      record(i, std::move(rep));
    }
    const double elapsed = since(t0);
    if (elapsed * static_cast<double>(round + 1) / static_cast<double>(round) >
        args.seconds) {
      break;
    }
  }
  if (args.trace) {
    const double overhead = median(traced_run_s) - median(untraced_run_s);
    for (auto& m : layers) m["trace.overhead_s"] = overhead;
    if (!args.trace_out.empty()) writer->write(args.trace_out);
  }
  for (const std::string& e : errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first_metric = true;
  if (!args.trace) {
    std::vector<double> setup, run_s;
    for (const Rep& r : reps) {
      setup.push_back(r.setup_s);
      run_s.push_back(r.run_s);
    }
    // Counts are deterministic per sample: average them over one round.
    double rounds = 0.0;
    double migrations = 0.0;
    double ops = 0.0;
    for (const Rep& r : first) {
      rounds += static_cast<double>(r.rounds);
      migrations += static_cast<double>(r.migrations);
      ops += static_cast<double>(r.ops);
    }
    const double per_sample = 1.0 / static_cast<double>(first.size());
    const double typical_run_s = median(run_s);
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    print_metric(first_metric, "setup_s", median(setup), "s");
    print_metric(first_metric, "run_s", typical_run_s, "s");
    print_metric(first_metric, "rounds_per_s",
                 rounds * per_sample / typical_run_s, "1/s");
    print_metric(first_metric, "migrations_per_s",
                 migrations * per_sample / typical_run_s, "1/s");
    // The paper's metric: mean rounds per operation.
    print_metric(first_metric, "rounds", rounds / ops, "count");
    print_metric(first_metric, "peak_rss_mb",
                 static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
  } else {
    for (const Layer& l : kLayers) {
      std::vector<double> v;
      for (const auto& m : layers) v.push_back(m.at(l.name));
      print_metric(first_metric, l.name, median(v), l.unit);
    }
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
