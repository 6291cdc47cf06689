// ParallelExecutor mechanics plus the determinism guarantee the runner layer
// is built on: a (scheme, app, config, seed) point produces a bit-identical
// RunResult whether it runs serially or through the executor at any jobs
// count.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string>

#include "runner/experiment.hpp"
#include "runner/parallel.hpp"

namespace suvtm::runner {
namespace {

stamp::SuiteParams tiny() {
  stamp::SuiteParams p;
  p.scale = 0.15;
  return p;
}

TEST(ParallelExecutorTest, RunsEveryIndexExactlyOnce) {
  ParallelExecutor exec(4);
  EXPECT_EQ(exec.jobs(), 4u);
  std::vector<std::atomic<int>> hits(64);
  exec.run_indexed(64, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelExecutorTest, JobsOneRunsInlineInOrder) {
  ParallelExecutor exec(1);
  std::vector<std::size_t> order;
  exec.run_indexed(5, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelExecutorTest, RunOrderedPreservesSubmissionOrder) {
  ParallelExecutor exec(4);
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 32; ++i) tasks.push_back([i] { return i * i; });
  const auto out = exec.run_ordered(std::move(tasks));
  ASSERT_EQ(out.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelExecutorTest, ReusableAcrossBatches) {
  ParallelExecutor exec(2);
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> sum{0};
    exec.run_indexed(10, [&](std::size_t i) { sum += static_cast<int>(i); });
    EXPECT_EQ(sum.load(), 45);
  }
}

TEST(ParallelExecutorTest, PropagatesTaskException) {
  ParallelExecutor exec(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      exec.run_indexed(8,
                       [&](std::size_t i) {
                         if (i == 3) throw std::runtime_error("boom");
                         ++completed;
                       }),
      std::runtime_error);
  // Sibling experiments still ran to completion.
  EXPECT_EQ(completed.load(), 7);
}

TEST(ParallelExecutorTest, ParseJobsStripsFlag) {
  const char* raw[] = {"bench", "0.5", "--jobs", "3", "out.csv"};
  char* argv[5];
  for (int i = 0; i < 5; ++i) argv[i] = const_cast<char*>(raw[i]);
  int argc = 5;
  EXPECT_EQ(ParallelExecutor::parse_jobs(argc, argv), 3u);
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[1], "0.5");
  EXPECT_STREQ(argv[2], "out.csv");
}

TEST(ParallelExecutorTest, ParseJobsEqualsForm) {
  const char* raw[] = {"bench", "--jobs=7"};
  char* argv[2];
  for (int i = 0; i < 2; ++i) argv[i] = const_cast<char*>(raw[i]);
  int argc = 2;
  EXPECT_EQ(ParallelExecutor::parse_jobs(argc, argv), 7u);
  EXPECT_EQ(argc, 1);
}

// Every host thread count from the command line or the environment goes
// through parse_thread_count. Only strings are parsed here: no executor is
// ever built from a bad or huge count.
TEST(ParallelExecutorTest, ThreadCountParserAcceptsOneToTheCap) {
  EXPECT_EQ(parse_thread_count("1", "--jobs"), 1u);
  EXPECT_EQ(parse_thread_count("7", "--jobs"), 7u);
  EXPECT_EQ(parse_thread_count(std::to_string(kMaxThreadCount).c_str(),
                               "--jobs"),
            kMaxThreadCount);
}

TEST(ParallelExecutorTest, ThreadCountParserRejectsBadCountsByName) {
  const std::string too_many = std::to_string(kMaxThreadCount + 1);
  for (const char* what :
       {"--jobs", "--sim-threads", "SUVTM_JOBS", "SUVTM_SIM_THREADS"}) {
    for (const char* bad : {"", "abc", "0", "-1", "3x", " 2", "100000",
                            "4294967295", "99999999999999999999",
                            too_many.c_str()}) {
      try {
        parse_thread_count(bad, what);
        ADD_FAILURE() << what << " accepted '" << bad << "'";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()).rfind(what, 0), 0u) << e.what();
      }
    }
  }
}

TEST(ParallelExecutorTest, ParseJobsRejectsNegativeCount) {
  const char* raw[] = {"bench", "--jobs", "-1"};
  char* argv[3];
  for (int i = 0; i < 3; ++i) argv[i] = const_cast<char*>(raw[i]);
  int argc = 3;
  EXPECT_THROW(ParallelExecutor::parse_jobs(argc, argv),
               std::invalid_argument);
}

// The tentpole guarantee (ISSUE 1): serial twice, executor jobs=1, and
// executor jobs=4 all produce identical makespan, breakdown, and stats for
// the same (scheme, app, config, seed). RunResult::operator== is
// field-for-field over every stats struct.
TEST(ParallelRunnerTest, SerialAndParallelRunsBitIdentical) {
  for (sim::Scheme scheme : {sim::Scheme::kLogTmSe, sim::Scheme::kSuv}) {
    sim::SimConfig cfg;
    cfg.scheme = scheme;
    cfg.mem.num_cores = 4;

    std::vector<RunPoint> points;
    for (stamp::AppId app :
         {stamp::AppId::kKmeans, stamp::AppId::kSsca2, stamp::AppId::kVacation}) {
      points.push_back(RunPoint{app, cfg, tiny()});
    }

    // Serial reference, run twice to establish run-to-run determinism.
    std::vector<RunResult> serial_a, serial_b;
    for (const auto& pt : points) {
      serial_a.push_back(run_app(pt.app, pt.cfg, pt.params));
      serial_b.push_back(run_app(pt.app, pt.cfg, pt.params));
    }

    ParallelExecutor one(1);
    ParallelExecutor four(4);
    const auto par1 = run_matrix(points, one);
    const auto par4 = run_matrix(points, four);

    ASSERT_EQ(par1.size(), points.size());
    ASSERT_EQ(par4.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      EXPECT_GT(serial_a[i].makespan, 0u);
      EXPECT_GT(serial_a[i].sim_events, 0u);
      EXPECT_EQ(serial_a[i], serial_b[i]);
      EXPECT_EQ(serial_a[i], par1[i]);
      EXPECT_EQ(serial_a[i], par4[i]);
    }
  }
}

TEST(ParallelRunnerTest, RunSuiteMatchesSerialSuite) {
  sim::SimConfig cfg;
  ParallelExecutor one(1);
  ParallelExecutor four(4);
  const auto a = run_suite(sim::Scheme::kFasTm, cfg, tiny(), one);
  const auto b = run_suite(sim::Scheme::kFasTm, cfg, tiny(), four);
  ASSERT_EQ(a.size(), b.size());
  std::set<std::string> apps;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
    apps.insert(a[i].app);
  }
  EXPECT_EQ(apps.size(), a.size());  // one result per app, in order
}

}  // namespace
}  // namespace suvtm::runner
