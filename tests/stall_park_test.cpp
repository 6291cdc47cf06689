// Parked stall polls (DESIGN.md section 12): a NACKed request under the
// plain Stall policy re-polls virtually -- counted, not queued -- until an
// event that can change its verdict wakes it. These tests hold the change
// to "no result moves":
//  - metrics-on runs keep one real event per poll (the obs sampler counts
//    dispatched events), metrics-off runs park; both must agree on every
//    RunResult field for every scheme x app;
//  - a work counter no host noise can move proves the parked path is the
//    one that runs, so a silent fallback to per-poll events fails here
//    instead of only slowing the benchmark.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runner/experiment.hpp"
#include "sim/simulator.hpp"
#include "stamp/framework.hpp"

namespace suvtm {
namespace {

sim::SimConfig quiet_config(sim::Scheme scheme, bool metrics) {
  sim::SimConfig cfg;
  cfg.scheme = scheme;
  cfg.check.enabled = false;
  cfg.obs.trace = false;
  cfg.obs.metrics = metrics;
  return cfg;
}

TEST(StallParkTest, MetricsOnAndOffAgreeOnEveryResultField) {
  stamp::SuiteParams params;
  params.scale = 0.5;  // input seed 42
  std::vector<runner::RunPoint> points;
  for (sim::Scheme s : sim::all_schemes()) {
    for (stamp::AppId app : stamp::all_apps()) {
      points.push_back(runner::RunPoint{app, quiet_config(s, false), params});
      points.push_back(runner::RunPoint{app, quiet_config(s, true), params});
    }
  }
  runner::ParallelExecutor pool(2);
  std::vector<runner::RunResult> results = runner::run_matrix(points, pool);
  ASSERT_EQ(results.size(), points.size());
  for (std::size_t i = 0; i < results.size(); i += 2) {
    runner::RunResult& off = results[i];
    runner::RunResult& on = results[i + 1];
    EXPECT_TRUE(off.metrics.scalars.empty());
    EXPECT_FALSE(on.metrics.scalars.empty());
    on.metrics = {};
    off.metrics = {};
    EXPECT_TRUE(on == off) << sim::scheme_name(off.scheme) << " " << off.app
                           << ": metrics-on run differs (events "
                           << on.sim_events << " vs " << off.sim_events
                           << ", conflicts " << on.conflicts.conflicts
                           << " vs " << off.conflicts.conflicts << ")";
  }
}

/// Run LogTM-SE bayes at scale 1.0, input seed 42 -- the benchmark's most
/// stall-heavy input -- and return (virtual events, conflicts).
std::pair<std::uint64_t, std::uint64_t> bayes_virtual_polls(bool metrics) {
  sim::Simulator sim(quiet_config(sim::Scheme::kLogTmSe, metrics));
  const auto app = stamp::make_workload(stamp::AppId::kBayes);
  app->build(sim, stamp::SuiteParams{});
  sim.run();
  app->verify(sim);
  const runner::RunResult r = runner::harvest_result(sim, "bayes");
  return {sim.virtual_events(), r.conflicts.conflicts};
}

TEST(StallParkTest, MostRepeatedNacksStayVirtual) {
  // Exact counts, so host noise cannot move this gate: a change that
  // silently falls back to one queued event per poll fails here.
  const auto [virt, conflicts] = bayes_virtual_polls(false);
  ASSERT_GT(conflicts, 100000u);
  EXPECT_GE(virt * 100, conflicts * 85)
      << virt << " of " << conflicts << " NACKed polls were virtual";
}

TEST(StallParkTest, MetricsRunsKeepOneEventPerPoll) {
  const auto [virt, conflicts] = bayes_virtual_polls(true);
  EXPECT_GT(conflicts, 100000u);
  EXPECT_EQ(virt, 0u);
}

/// Constructing a Simulator from `cfg` throws std::invalid_argument naming
/// `field`.
void expect_rejected(const sim::SimConfig& cfg, const std::string& field) {
  EXPECT_THROW(
      {
        try {
          sim::Simulator sim(cfg);
        } catch (const std::invalid_argument& e) {
          EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
              << e.what();
          throw;
        }
      },
      std::invalid_argument);
}

TEST(StallParkTest, RejectsConfigsTheStallPathCannotRun) {
  // A zero interval re-polls at the same cycle forever: simulated time
  // never advances, so max_cycles never fires.
  sim::SimConfig zero_interval = quiet_config(sim::Scheme::kLogTmSe, false);
  zero_interval.htm.stall_retry_interval = 0;
  expect_rejected(zero_interval, "htm.stall_retry_interval");
  // The signatures and the conflict manager's columns index with a mask.
  sim::SimConfig odd_bits = quiet_config(sim::Scheme::kSuv, false);
  odd_bits.htm.signature_bits = 100;
  expect_rejected(odd_bits, "htm.signature_bits");
}

}  // namespace
}  // namespace suvtm
