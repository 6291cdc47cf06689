// Figure 1: the repair and merge pathologies, reproduced as targeted
// micro-scenarios.
//
//  Repair pathology: an aborting LogTM-SE transaction holds isolation while
//  software walks its undo log; a neighbour that conflicts during that
//  window stalls (and may itself abort). SUV's flash abort closes the
//  window. We measure the isolation-window length directly as the Aborting
//  bucket per abort, plus the neighbour's stall time.
//
//  Merge pathology: a lazy (DynTM/FasTM-style) committer publishes its
//  write set line by line while holding isolation; neighbours conflict
//  during the merge. With SUV publication is a flash flip. Measured as the
//  Committing bucket per commit.
//
// Usage: bench_fig1_pathologies [--jobs N] [--trace out.json] [--metrics]
#include <cstdio>
#include <string>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "runner/cli.hpp"
#include "runner/experiment.hpp"
#include "runner/parallel.hpp"
#include "runner/tables.hpp"
#include "sim/simulator.hpp"

using namespace suvtm;

namespace {

// Writer threads repeatedly rewrite a shared region in big transactions;
// reader threads poke at it. High write-write overlap forces aborts.
struct Scenario {
  Addr region;
  std::uint64_t lines;
  sim::Barrier* bar;
};

sim::ThreadTask contender(sim::ThreadContext& tc, const Scenario& s,
                          int rounds) {
  co_await tc.barrier(*s.bar);
  for (int r = 0; r < rounds; ++r) {
    co_await stamp::atomically(tc, 1,
                               [&](sim::ThreadContext& t) -> sim::Task<void> {
      // Read-modify-write a window of the shared region, offset per core.
      const std::uint64_t start =
          (tc.core() * 7 + static_cast<std::uint64_t>(r)) % s.lines;
      for (std::uint64_t i = 0; i < 24; ++i) {
        const Addr a = s.region + ((start + i) % s.lines) * kLineBytes;
        const std::uint64_t v = co_await t.load(a);
        co_await t.store(a, v + 1);
      }
    });
    co_await tc.compute(100);
  }
  co_await tc.barrier(*s.bar);
}

struct ScenarioResult {
  std::string line;
  std::uint64_t events = 0;
  obs::TraceData trace;
  obs::MetricsSnapshot metrics;
};

ScenarioResult run_scenario(sim::Scheme scheme, const runner::Cli& cli) {
  sim::SimConfig cfg;
  cfg.scheme = scheme;
  cli.apply(cfg);
  sim::Simulator sim(cfg);
  Scenario s;
  s.region = 0x40000;
  s.lines = 96;  // heavy overlap between the 16 contenders
  s.bar = &sim.make_barrier(sim.num_cores());
  for (CoreId c = 0; c < sim.num_cores(); ++c) {
    sim.spawn(c, contender(sim.context(c), s, 24));
  }
  sim.run();
  ScenarioResult out;
  const runner::RunResult r = runner::harvest_result(
      sim, "pathology", cli.tracing() ? &out.trace : nullptr);
  const sim::Breakdown& b = r.breakdown;
  const htm::HtmStats& ht = r.htm;
  const double abort_window =
      ht.aborts ? static_cast<double>(b.get(sim::Bucket::kAborting)) /
                      static_cast<double>(ht.aborts)
                : 0.0;
  const double commit_window =
      ht.commits ? static_cast<double>(b.get(sim::Bucket::kCommitting)) /
                       static_cast<double>(ht.commits)
                 : 0.0;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%-10s makespan=%9llu aborts=%6llu  isolation window per "
                "abort=%7.1f cy  per commit=%6.1f cy  stalled=%llu",
                sim::scheme_name(scheme),
                static_cast<unsigned long long>(r.makespan),
                static_cast<unsigned long long>(ht.aborts), abort_window,
                commit_window,
                static_cast<unsigned long long>(b.get(sim::Bucket::kStalled)));
  out.line = buf;
  out.events = r.sim_events;
  if (cli.metrics) out.metrics = r.metrics;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const runner::Cli cli = runner::Cli::parse(argc, argv);
  std::printf("Figure 1 micro-scenario: 16 contenders read-modify-write an "
              "overlapping 96-line\nregion. The per-abort and per-commit "
              "isolation windows show the repair and merge\npathologies "
              "directly.\n\n");
  const auto& schemes = sim::all_schemes();
  // Each scenario is an independent simulator: fan the five schemes across
  // the pool and print the collected lines in scheme order.
  runner::ParallelExecutor exec(cli.jobs);
  runner::WallTimer timer;
  std::vector<ScenarioResult> results(schemes.size());
  exec.run_indexed(schemes.size(), [&](std::size_t i) {
    results[i] = run_scenario(schemes[i], cli);
  });
  const double wall_s = timer.seconds();
  std::uint64_t events = 0;
  for (const auto& r : results) {
    std::printf("%s\n", r.line.c_str());
    events += r.events;
  }
  std::printf("\nexpected: LogTM-SE's per-abort window (software log walk) "
              "dwarfs FasTM's flash\ninvalidate and SUV's flash flip; DynTM's "
              "per-commit window (lazy publication)\ndwarfs DynTM+SUV's.\n");

  runner::BenchReport report("fig1_pathologies");
  if (cli.tracing()) {
    std::vector<obs::NamedTrace> named;
    named.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      named.push_back({std::string("pathology/") +
                           sim::scheme_cli_name(schemes[i]),
                       &results[i].trace});
    }
    if (obs::write_chrome_trace(cli.trace_path, named)) {
      std::printf("trace written to %s (open in ui.perfetto.dev)\n",
                  cli.trace_path.c_str());
    }
  }
  if (cli.metrics) {
    obs::MetricsSnapshot merged;
    for (const auto& r : results) obs::merge(merged, r.metrics);
    report.set_metrics(merged, "metrics.");
  }
  report.set("jobs", exec.jobs());
  report.set("runs", static_cast<std::uint64_t>(results.size()));
  report.set("wall_seconds", wall_s);
  report.set("sim_events", events);
  report.set("events_per_sec",
             wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0);
  report.write();
  return 0;
}
