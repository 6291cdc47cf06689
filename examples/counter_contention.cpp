// Contention explorer: sweeps the number of independent counters from 1
// (every thread fights over one line) to 64 (almost no conflicts) and shows
// how each version-management scheme's execution time and abort ratio react.
// This is the paper's isolation-window story in its purest form.
//
//   $ ./build/examples/counter_contention [iters-per-thread] [--check]
//       [--trace out.json]   (exports every cell's timeline in one file)
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "obs/chrome_trace.hpp"
#include "runner/cli.hpp"
#include "runner/experiment.hpp"
#include "sim/simulator.hpp"
#include "stamp/framework.hpp"

using namespace suvtm;

namespace {

sim::ThreadTask worker(sim::ThreadContext& tc, Addr counters, int n,
                       sim::Barrier& bar, int iters) {
  co_await tc.barrier(bar);
  Rng& rng = tc.rng();
  for (int i = 0; i < iters; ++i) {
    const Addr target = counters + rng.below(n) * kLineBytes;
    co_await stamp::atomically(tc, 1,
                               [&](sim::ThreadContext& t) -> sim::Task<void> {
      const std::uint64_t v = co_await t.load(target);
      co_await t.compute(10);
      co_await t.store(target, v + 1);
    });
    co_await tc.compute(40);
  }
  co_await tc.barrier(bar);
}

struct Cell {
  Cycle makespan;
  double abort_ratio;
};

Cell run(const runner::Cli& cli, sim::Scheme scheme, int counters, int iters,
         std::vector<std::pair<std::string, obs::TraceData>>* traces) {
  sim::SimConfig cfg;
  cfg.scheme = scheme;
  cli.apply(cfg);
  sim::Simulator sim(cfg);
  const Addr base = 0x10000;
  auto& bar = sim.make_barrier(sim.num_cores());
  for (CoreId c = 0; c < sim.num_cores(); ++c) {
    sim.spawn(c, worker(sim.context(c), base, counters, bar, iters));
  }
  sim.run();
  // Sanity: the sum of all counters must equal the total increments.
  std::uint64_t sum = 0;
  for (int i = 0; i < counters; ++i) {
    sum += sim.read_word_resolved(base + i * kLineBytes);
  }
  const std::uint64_t expect =
      static_cast<std::uint64_t>(iters) * sim.num_cores();
  if (sum != expect) {
    std::fprintf(stderr, "ATOMICITY VIOLATION: %llu != %llu\n",
                 static_cast<unsigned long long>(sum),
                 static_cast<unsigned long long>(expect));
    std::exit(1);
  }
  obs::TraceData trace;
  const runner::RunResult r = runner::harvest_result(sim, "counters", &trace);
  if (traces) {
    traces->emplace_back(std::to_string(counters) + "ctr/" +
                             sim::scheme_name(scheme),
                         std::move(trace));
  }
  return {r.makespan, r.htm.abort_ratio()};
}

}  // namespace

int main(int argc, char** argv) {
  const runner::Cli cli = runner::Cli::parse(argc, argv);
  const int iters = static_cast<int>(cli.scale_or(100));

  std::vector<std::pair<std::string, obs::TraceData>> traces;
  std::printf("16 threads x %d transactional increments, spread over N "
              "counters (one per line).\nCells: makespan cycles "
              "(abort%%).\n\n%-10s", iters, "counters");
  for (auto s : sim::all_schemes()) std::printf("  %20s", sim::scheme_name(s));
  std::printf("\n");
  for (int n : {1, 2, 4, 8, 16, 32, 64}) {
    std::printf("%-10d", n);
    for (auto s : sim::all_schemes()) {
      const Cell c =
          run(cli, s, n, iters, cli.tracing() ? &traces : nullptr);
      char buf[32];
      std::snprintf(buf, sizeof buf, "%llu (%.0f%%)",
                    static_cast<unsigned long long>(c.makespan),
                    100.0 * c.abort_ratio);
      std::printf("  %20s", buf);
    }
    std::printf("\n");
  }
  if (cli.tracing()) {
    std::vector<obs::NamedTrace> named;
    named.reserve(traces.size());
    for (const auto& [name, data] : traces) named.push_back({name, &data});
    if (obs::write_chrome_trace(cli.trace_path, named)) {
      std::printf("\ntrace written to %s (open in ui.perfetto.dev)\n",
                  cli.trace_path.c_str());
    }
  }
  std::printf("\nreading guide: with few counters every scheme serializes, "
              "but LogTM-SE's\nsoftware abort walks hold isolation longest; "
              "SUV's flash commit/abort\nreleases it first (the paper's "
              "narrowed isolation window).\n");
  return 0;
}
