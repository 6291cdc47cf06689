// Tests for the observability layer (src/obs): metrics snapshot/merge
// semantics, the trace cap, byte-identical trace export across host job
// counts, a golden abort-edge check on a forced two-core conflict, the
// stats-block flattening cross-check, scheme-string round-trips and the
// shared Cli parser.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "runner/cli.hpp"
#include "runner/experiment.hpp"
#include "runner/parallel.hpp"
#include "sim/simulator.hpp"
#include "stamp/framework.hpp"

using namespace suvtm;

namespace {

// ---- metrics registry ------------------------------------------------------

TEST(MetricsSnapshotTest, SetGetKeepsSorted) {
  obs::MetricsSnapshot s;
  EXPECT_TRUE(s.empty());
  s.set("zeta", 2.0);
  s.set("alpha", 1.0);
  s.set("mid", 3.0);
  s.set("alpha", 4.0);  // replace, not duplicate
  ASSERT_EQ(s.scalars.size(), 3u);
  EXPECT_EQ(s.scalars[0].first, "alpha");
  EXPECT_EQ(s.scalars[2].first, "zeta");
  EXPECT_DOUBLE_EQ(s.get("alpha"), 4.0);
  EXPECT_DOUBLE_EQ(s.get("missing", -1.0), -1.0);
}

TEST(MetricsSnapshotTest, MergeSumsScalarsAndHistogramsDropsSeries) {
  obs::Metrics m;
  m.add(obs::Counter::kStallRetries, 3);
  m.observe(obs::Histogram::kStallCycles, 8);
  m.sample(obs::Series::kRedirectEntries, 10, 5);
  obs::MetricsSnapshot a = obs::snapshot(m);
  ASSERT_FALSE(a.empty());
  EXPECT_DOUBLE_EQ(a.get("obs.stall_retries", -1.0), 3.0);
  ASSERT_EQ(a.series.size(), 1u);

  obs::MetricsSnapshot merged;
  obs::merge(merged, a);
  obs::merge(merged, a);
  EXPECT_DOUBLE_EQ(merged.get("obs.stall_retries"), 6.0);
  ASSERT_EQ(merged.histograms.size(), 1u);
  EXPECT_EQ(merged.histograms[0].data.count, 2u);
  EXPECT_EQ(merged.histograms[0].data.sum, 16u);
  EXPECT_TRUE(merged.series.empty());  // occupancy curves never sum
}

TEST(MetricsSnapshotTest, SnapshotSkipsZeroCounters) {
  obs::Metrics m;
  const obs::MetricsSnapshot s = obs::snapshot(m);
  EXPECT_TRUE(s.empty());
}

// ---- tracer ----------------------------------------------------------------

TEST(TracerTest, CapCountsDroppedEvents) {
  obs::Tracer tr(4);
  for (int i = 0; i < 7; ++i) {
    obs::TraceEvent e;
    e.ts = static_cast<Cycle>(i);
    tr.emit(e);
  }
  EXPECT_EQ(tr.data().events.size(), 4u);
  EXPECT_EQ(tr.data().dropped, 3u);
  const obs::TraceData taken = obs::Tracer(4).take();
  EXPECT_TRUE(taken.events.empty());
}

TEST(TracerTest, RunRespectsConfiguredCap) {
  if (!obs::kHooksCompiled) GTEST_SKIP() << "obs hooks compiled out";
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kSuv;
  cfg.obs.trace = true;
  cfg.obs.max_trace_events = 16;
  stamp::SuiteParams params;
  params.scale = 0.1;
  obs::TraceData trace;
  runner::run_app(stamp::AppId::kKmeans, cfg, params, &trace);
  EXPECT_LE(trace.events.size(), 16u);
  EXPECT_GT(trace.dropped, 0u);  // a real run emits far more than 16
}

// ---- determinism across host job counts ------------------------------------

TEST(TraceDeterminismTest, SerialAndParallelBytesIdentical) {
  if (!obs::kHooksCompiled) GTEST_SKIP() << "obs hooks compiled out";
  stamp::SuiteParams params;
  params.scale = 0.1;
  std::vector<runner::RunPoint> points;
  for (sim::Scheme s : {sim::Scheme::kLogTmSe, sim::Scheme::kSuv}) {
    sim::SimConfig cfg;
    cfg.scheme = s;
    cfg.obs.trace = true;
    cfg.obs.metrics = true;
    for (stamp::AppId app : {stamp::AppId::kKmeans, stamp::AppId::kIntruder}) {
      points.push_back(runner::RunPoint{app, cfg, params});
    }
  }
  runner::ParallelExecutor serial(1);
  runner::ParallelExecutor pool(4);
  const auto a = runner::run_matrix_traced(points, serial);
  const auto b = runner::run_matrix_traced(points, pool);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i], b.results[i]) << "run " << i;
    EXPECT_EQ(a.traces[i], b.traces[i]) << "run " << i;
  }
  std::vector<obs::NamedTrace> na, nb;
  for (std::size_t i = 0; i < points.size(); ++i) {
    na.push_back({a.results[i].app, &a.traces[i]});
    nb.push_back({b.results[i].app, &b.traces[i]});
  }
  EXPECT_EQ(obs::chrome_trace_json(na), obs::chrome_trace_json(nb));
}

// ---- golden abort-edge scenario --------------------------------------------

sim::ThreadTask counter_hammer(sim::ThreadContext& tc, sim::Barrier& bar,
                               Addr counter, int iters) {
  co_await tc.barrier(bar);
  for (int i = 0; i < iters; ++i) {
    co_await stamp::atomically(tc, 1,
                               [&](sim::ThreadContext& t) -> sim::Task<void> {
      const std::uint64_t v = co_await t.load(counter);
      co_await t.compute(60);  // widen the conflict window
      co_await t.store(counter, v + 1);
    });
  }
}

TEST(TraceGoldenTest, ContendedCounterEmitsSpansAndAbortEdges) {
  if (!obs::kHooksCompiled) GTEST_SKIP() << "obs hooks compiled out";
  constexpr Addr kCounter = 0x9000;
  constexpr int kIters = 40;
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kSuv;
  cfg.mem.num_cores = 4;
  cfg.obs.trace = true;
  cfg.obs.metrics = true;
  sim::Simulator sim(cfg);
  sim::Barrier& bar = sim.make_barrier(sim.num_cores());
  for (CoreId c = 0; c < sim.num_cores(); ++c) {
    sim.spawn(c, counter_hammer(sim.context(c), bar, kCounter, kIters));
  }
  sim.run();
  EXPECT_EQ(sim.read_word_resolved(kCounter),
            static_cast<std::uint64_t>(sim.num_cores()) * kIters);

  obs::TraceData t;
  const runner::RunResult r = runner::harvest_result(sim, "counter", &t);
  const htm::HtmStats& stats = r.htm;
  ASSERT_GT(stats.aborts, 0u) << "scenario must force conflicts";

  ASSERT_FALSE(t.events.empty());
  std::uint64_t spans = 0, edges = 0, abort_spans = 0;
  for (const obs::TraceEvent& e : t.events) {
    EXPECT_LE(e.ts + e.dur, r.makespan);
    switch (e.kind) {
      case obs::EventKind::kTxnSpan:
        ++spans;
        if (e.cause != 0) ++abort_spans;
        break;
      case obs::EventKind::kAbortEdge:
        ++edges;
        EXPECT_EQ(e.dur, 0u);             // instant
        EXPECT_NE(e.core, e.a);           // aborter never its own victim
        EXPECT_NE(e.cause, 0u);           // must carry an AbortCause
        break;
      default:
        break;
    }
  }
  // Every txn attempt closes into exactly one span; aborted attempts carry
  // their cause.
  EXPECT_EQ(spans, stats.commits + stats.aborts);
  EXPECT_EQ(abort_spans, stats.aborts);
  EXPECT_GT(edges, 0u);

  EXPECT_DOUBLE_EQ(r.metrics.get("obs.conflict_edges", -1.0),
                   static_cast<double>(edges));
}

// ---- stats blocks vs the metrics snapshot ----------------------------------

// Every counted fact lives in one place. The stats blocks reach the snapshot
// only through harvest_result's flattening, so each "<block>.<field>" scalar
// must equal its RunResult field; abort causes live only in the abort_cause
// histogram, so its total must equal htm.aborts; and no obs counter may
// re-count a stats field (equal on every run where either fires).
TEST(CounterCrossCheckTest, SnapshotCountsEachFactOnce) {
  if (!obs::kHooksCompiled) GTEST_SKIP() << "obs hooks compiled out";
  stamp::SuiteParams params;
  params.scale = 0.25;
  std::vector<runner::RunPoint> points;
  for (sim::Scheme s : sim::all_schemes()) {
    sim::SimConfig cfg;
    cfg.scheme = s;
    cfg.obs.metrics = true;
    for (stamp::AppId app : stamp::all_apps()) {
      points.push_back(runner::RunPoint{app, cfg, params});
    }
  }
  runner::ParallelExecutor pool(2);
  const auto results = runner::run_matrix(points, pool);

  // counter name -> per-run values, and "<block>.<field>" -> per-run values
  // (0 where the block is absent), to look for duplicates across all runs.
  std::map<std::string, std::vector<std::uint64_t>> counters, fields;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const runner::RunResult& r = results[i];
    SCOPED_TRACE(std::string(sim::scheme_name(r.scheme)) + "/" + r.app);
    const obs::MetricsSnapshot& m = r.metrics;
    runner::for_each_block(r, [&](const char* block, const auto& stats) {
      visit_fields(stats, [&](const char* field, std::uint64_t v) {
        const std::string key = std::string(block) + "." + field;
        EXPECT_EQ(m.get(key, -1.0), static_cast<double>(v)) << key;
        fields[key].resize(results.size());
        fields[key][i] = v;
      });
    });
    std::uint64_t by_cause = 0;
    for (const auto& h : m.histograms) {
      if (h.name == "abort_cause") by_cause = h.data.count;
    }
    EXPECT_EQ(by_cause, r.htm.aborts);
    for (const auto& [name, v] : m.scalars) {
      if (!name.starts_with("obs.")) continue;
      counters[name].resize(results.size());
      counters[name][i] = static_cast<std::uint64_t>(v);
    }
  }
  ASSERT_FALSE(counters.empty());
  for (const auto& [counter, cv] : counters) {
    for (const auto& [field, fv] : fields) {
      EXPECT_NE(cv, fv) << counter << " re-counts " << field;
    }
  }
}

// ---- chrome-trace export ----------------------------------------------------

TEST(ChromeTraceTest, ExportShapeAndWriteRoundTrip) {
  obs::TraceData t;
  obs::TraceEvent e;
  e.ts = 5;
  e.dur = 10;
  e.kind = obs::EventKind::kTxnSpan;
  e.core = 2;
  t.events.push_back(e);
  const std::string json = obs::chrome_trace_json({{"unit/SUV-TM", &t}});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("unit/SUV-TM"), std::string::npos);
  EXPECT_NE(json.find("\"ph\""), std::string::npos);

  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  ASSERT_TRUE(obs::write_chrome_trace(path, {{"unit", &t}}));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(path.c_str());
}

// ---- scheme names -----------------------------------------------------------

TEST(SchemeTableTest, SchemeStringRoundTrip) {
  for (const auto& row : sim::scheme_table()) {
    sim::Scheme parsed{};
    EXPECT_TRUE(sim::scheme_from_string(row.cli_name, &parsed));
    EXPECT_EQ(parsed, row.scheme);
    parsed = {};
    EXPECT_TRUE(sim::scheme_from_string(row.name, &parsed));
    EXPECT_EQ(parsed, row.scheme);
  }
  sim::Scheme untouched = sim::Scheme::kFasTm;
  EXPECT_FALSE(sim::scheme_from_string("not-a-scheme", &untouched));
  EXPECT_EQ(untouched, sim::Scheme::kFasTm);
}

TEST(HarvestTest, UntracedRunHarvestsNoTrace) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kLogTmSe;
  cfg.obs.trace = false;
  cfg.obs.metrics = false;
  sim::Simulator sim(cfg);
  sim.poke_word(0x100, 42);
  EXPECT_EQ(sim.read_word_resolved(0x100), 42u);
  obs::TraceData t;
  const runner::RunResult r = runner::harvest_result(sim, "idle", &t);
  EXPECT_TRUE(t.events.empty());
  EXPECT_TRUE(r.metrics.empty());
}

// ---- shared Cli -------------------------------------------------------------

TEST(CliTest, ParsesAndStripsSharedFlags) {
  std::vector<std::string> raw = {"prog",    "0.25",          "--smoke",
                                  "--check", "--trace=t.json", "extra.csv",
                                  "--metrics", "--custom-flag"};
  std::vector<char*> argv;
  for (auto& s : raw) argv.push_back(s.data());
  argv.push_back(nullptr);
  int argc = static_cast<int>(raw.size());
  const runner::Cli cli = runner::Cli::parse(argc, argv.data());
  EXPECT_TRUE(cli.smoke);
  EXPECT_TRUE(cli.check);
  EXPECT_TRUE(cli.metrics);
  EXPECT_TRUE(cli.tracing());
  EXPECT_EQ(cli.trace_path, "t.json");
  EXPECT_TRUE(cli.has_scale);
  EXPECT_DOUBLE_EQ(cli.scale_or(9.0), 0.25);
  ASSERT_EQ(cli.args.size(), 1u);
  EXPECT_EQ(cli.args[0], "extra.csv");
  EXPECT_EQ(cli.arg_or(5, "dflt"), "dflt");
  // Only the unknown flag survives for harness-specific parsing.
  ASSERT_EQ(argc, 2);
  EXPECT_STREQ(argv[1], "--custom-flag");
}

TEST(CliTest, ApplyOnlySetsFlagsNeverClears) {
  runner::Cli off;  // nothing requested
  sim::SimConfig cfg;
  cfg.obs.trace = true;  // e.g. set by SUVTM_TRACE
  cfg.check.enabled = true;
  off.apply(cfg);
  EXPECT_TRUE(cfg.obs.trace);
  EXPECT_TRUE(cfg.check.enabled);

  runner::Cli on;
  on.check = true;
  on.metrics = true;
  on.trace_path = "x.json";
  sim::SimConfig cfg2;
  on.apply(cfg2);
  EXPECT_TRUE(cfg2.check.enabled);
  EXPECT_TRUE(cfg2.obs.metrics);
  EXPECT_TRUE(cfg2.obs.trace);
}

}  // namespace
