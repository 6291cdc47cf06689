// Quickstart: write a tiny transactional workload against the simulator
// (sim::SimConfig + sim::Simulator, harvested by runner::harvest_result),
// run it on the simulated 16-core CMP under SUV version management, and
// print what happened. With --trace the run exports a Chrome/Perfetto JSON
// timeline; with --metrics it prints the uniform metrics namespace.
//
//   $ ./build/examples/quickstart [scheme] [--trace out.json] [--metrics]
//     scheme: logtm | fastm | suv | dyntm | dyntm-suv   (default: suv)
#include <cstdio>
#include <string>

#include "obs/chrome_trace.hpp"
#include "runner/cli.hpp"
#include "runner/experiment.hpp"
#include "sim/simulator.hpp"
#include "stamp/framework.hpp"

using namespace suvtm;

namespace {

// Shared state: 4 counters, each on its own cache line, plus one hot
// counter every thread fights over.
struct Shared {
  Addr counters;  // 4 lines
  Addr hot;       // 1 line
};

sim::ThreadTask worker(sim::ThreadContext& tc, const Shared& s,
                       sim::Barrier& bar, int iters) {
  co_await tc.barrier(bar);
  for (int i = 0; i < iters; ++i) {
    // A small transaction: bump one striped counter and the hot counter.
    co_await stamp::atomically(tc, /*site=*/1,
                               [&](sim::ThreadContext& t) -> sim::Task<void> {
      const Addr mine = s.counters + (tc.core() % 4) * kLineBytes;
      const std::uint64_t v = co_await t.load(mine);
      co_await t.store(mine, v + 1);
      const std::uint64_t h = co_await t.load(s.hot);
      co_await t.store(s.hot, h + 1);
    });
    co_await tc.compute(50);  // non-transactional work between transactions
  }
  co_await tc.barrier(bar);
}

}  // namespace

int main(int argc, char** argv) {
  const runner::Cli cli = runner::Cli::parse(argc, argv);

  sim::SimConfig cfg;  // defaults reproduce the paper's Table III
  cli.apply(cfg);
  const std::string arg = cli.arg_or(0, "suv");
  if (!sim::scheme_from_string(arg, &cfg.scheme)) {
    std::fprintf(stderr, "quickstart: unknown scheme \"%s\"; valid names:",
                 arg.c_str());
    for (const auto& row : sim::scheme_table()) {
      std::fprintf(stderr, " %s", row.cli_name);
    }
    std::fprintf(stderr, "\n");
    return 1;
  }
  const char* scheme = sim::scheme_name(cfg.scheme);

  sim::Simulator sim(cfg);
  Shared s;
  s.counters = 0x10000;
  s.hot = 0x10000 + 4 * kLineBytes;

  constexpr int kIters = 200;
  auto& bar = sim.make_barrier(sim.num_cores());
  for (CoreId c = 0; c < sim.num_cores(); ++c) {
    sim.spawn(c, worker(sim.context(c), s, bar, kIters));
  }
  sim.run();

  const std::uint64_t expect =
      static_cast<std::uint64_t>(kIters) * sim.num_cores();
  std::uint64_t got = 0;
  for (int i = 0; i < 4; ++i) {
    got += sim.read_word_resolved(s.counters + i * kLineBytes);
  }
  const std::uint64_t hot = sim.read_word_resolved(s.hot);

  obs::TraceData trace;
  const runner::RunResult r = runner::harvest_result(sim, "quickstart", &trace);
  const htm::HtmStats& hs = r.htm;
  std::printf("scheme          : %s\n", scheme);
  std::printf("makespan        : %llu cycles\n",
              static_cast<unsigned long long>(r.makespan));
  std::printf("commits/aborts  : %llu / %llu  (abort ratio %.1f%%)\n",
              static_cast<unsigned long long>(hs.commits),
              static_cast<unsigned long long>(hs.aborts),
              100.0 * hs.abort_ratio());
  std::printf("striped counters: %llu (expected %llu)\n",
              static_cast<unsigned long long>(got),
              static_cast<unsigned long long>(expect));
  std::printf("hot counter     : %llu (expected %llu)\n",
              static_cast<unsigned long long>(hot),
              static_cast<unsigned long long>(expect));

  if (cli.metrics) {
    std::printf("\nmetrics:\n");
    for (const auto& [name, v] : r.metrics.scalars) {
      std::printf("  %-40s %g\n", name.c_str(), v);
    }
  }
  if (cli.tracing()) {
    const std::string label = std::string("quickstart/") + scheme;
    if (obs::write_chrome_trace(cli.trace_path, {{label, &trace}})) {
      std::printf("\ntrace written to %s (open in ui.perfetto.dev)\n",
                  cli.trace_path.c_str());
    } else {
      std::fprintf(stderr, "quickstart: could not write %s\n",
                   cli.trace_path.c_str());
    }
  }

  if (got != expect || hot != expect) {
    std::printf("FAIL: atomicity violated\n");
    return 1;
  }
  std::printf("OK: all updates atomic and isolated\n");
  return 0;
}
