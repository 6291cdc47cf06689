// Tests for the observability layer (src/obs) and the suvtm::api facade:
// metrics snapshot/merge semantics, the trace cap, byte-identical trace
// export across host job counts, a golden abort-edge check on a forced
// two-core conflict, scheme-string round-trips and the shared Cli parser.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/api.hpp"
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
  api::RunHandle h = api::SimBuilder()
                         .scheme(sim::Scheme::kSuv)
                         .cores(4)
                         .trace(true)
                         .metrics(true)
                         .build();
  sim::Barrier& bar = h.make_barrier(h.num_cores());
  for (CoreId c = 0; c < h.num_cores(); ++c) {
    h.spawn(c, counter_hammer(h.context(c), bar, kCounter, kIters));
  }
  h.run();
  EXPECT_EQ(h.word(kCounter),
            static_cast<std::uint64_t>(h.num_cores()) * kIters);

  const htm::HtmStats& stats = h.htm_stats();
  ASSERT_GT(stats.aborts, 0u) << "scenario must force conflicts";

  const obs::TraceData& t = h.trace();
  ASSERT_FALSE(t.events.empty());
  std::uint64_t spans = 0, edges = 0, abort_spans = 0;
  for (const obs::TraceEvent& e : t.events) {
    EXPECT_LE(e.ts + e.dur, h.makespan());
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

  const obs::MetricsSnapshot m = h.metrics();
  EXPECT_DOUBLE_EQ(m.get("obs.conflict_edges", -1.0),
                   static_cast<double>(edges));
}

// ---- obs counters vs stats blocks -------------------------------------------

// Several obs counters count the same event as a stats-block field. Every
// pair must agree on every scheme and app, or one of the two hook sites
// misses events the other sees.
TEST(CounterCrossCheckTest, ObsCountersMatchStatsBlocks) {
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
  for (const runner::RunResult& r : results) {
    SCOPED_TRACE(std::string(sim::scheme_name(r.scheme)) + "/" + r.app);
    const obs::MetricsSnapshot& m = r.metrics;
    const auto obs_count = [&m](const char* name) {
      return static_cast<std::uint64_t>(m.get(std::string("obs.") + name));
    };
    std::uint64_t by_cause = 0;
    for (const auto& [name, v] : m.scalars) {
      if (name.starts_with("obs.aborts.")) {
        by_cause += static_cast<std::uint64_t>(v);
      }
    }
    std::uint64_t histogrammed = 0;
    for (const auto& h : m.histograms) {
      if (h.name == "abort_cause") histogrammed = h.data.count;
    }
    EXPECT_EQ(by_cause, r.htm.aborts);
    EXPECT_EQ(histogrammed, r.htm.aborts);
    EXPECT_EQ(obs_count("aborts.deadlock_cycle"), r.conflicts.deadlock_aborts);
    EXPECT_EQ(obs_count("mem.dir_forwards"), r.mem.forwards);
    EXPECT_EQ(obs_count("suv.table_l1_overflows"),
              r.table.l1_overflow_entries);
    EXPECT_EQ(obs_count("suv.table_spills"), r.table.l2_evictions);
    EXPECT_EQ(obs_count("fastm.degenerations"), r.vm.degenerations);
    EXPECT_EQ(obs_count("mem.spec_evictions"), r.mem.spec_evictions);
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

// ---- api facade -------------------------------------------------------------

TEST(ApiFacadeTest, SchemeStringRoundTrip) {
  for (const auto& row : sim::scheme_table()) {
    EXPECT_EQ(api::SimBuilder().scheme(row.cli_name).config().scheme,
              row.scheme);
    EXPECT_EQ(api::SimBuilder().scheme(row.name).config().scheme, row.scheme);
    sim::Scheme parsed{};
    EXPECT_TRUE(sim::scheme_from_string(row.cli_name, &parsed));
    EXPECT_EQ(parsed, row.scheme);
  }
  EXPECT_THROW(api::SimBuilder().scheme("not-a-scheme"),
               std::invalid_argument);
}

TEST(ApiFacadeTest, UntracedHandleExportsNothing) {
  api::RunHandle h = api::SimBuilder().scheme(sim::Scheme::kLogTmSe).build();
  h.poke_word(0x100, 42);
  EXPECT_EQ(h.word(0x100), 42u);
  EXPECT_TRUE(h.trace().events.empty());
  EXPECT_FALSE(h.write_trace(::testing::TempDir() + "never_written.json"));
}

TEST(ApiFacadeTest, ResultMatchesHarness) {
  if (!obs::kHooksCompiled) GTEST_SKIP() << "obs hooks compiled out";
  stamp::SuiteParams params;
  params.scale = 0.1;
  const api::SimBuilder b =
      api::SimBuilder().scheme(sim::Scheme::kSuv).metrics(true);
  const runner::RunResult via_api = b.run(stamp::AppId::kKmeans, params);
  const runner::RunResult via_harness =
      runner::run_app(stamp::AppId::kKmeans, b.config(), params);
  EXPECT_EQ(via_api, via_harness);
  EXPECT_FALSE(via_api.metrics.empty());
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
