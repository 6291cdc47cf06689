#include "runner/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "check/check.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/obs.hpp"
#include "runner/parallel.hpp"

namespace suvtm::runner {

namespace {

/// A positional that strtod consumes entirely ("0.25", "2", "1e-3").
bool fully_numeric(const char* s, double& out) {
  char* end = nullptr;
  out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

void fold_metrics(const std::vector<RunResult>& results, BenchReport& report) {
  obs::MetricsSnapshot merged;
  for (const auto& r : results) obs::merge(merged, r.metrics);
  report.set_metrics(merged, "metrics.");
}

/// Cli::parse proper; throws std::invalid_argument on a malformed count.
Cli parse_flags(int& argc, char** argv) {
  Cli cli;

  // --sim-threads strips before --jobs: when given without an explicit
  // --jobs, the default sweep job count is divided by it so shard threads
  // and sweep workers share the host instead of multiplying.
  if (const char* e = std::getenv("SUVTM_SIM_THREADS")) {
    cli.sim_threads = parse_thread_count(e, "SUVTM_SIM_THREADS");
  }
  bool jobs_given = false;
  int w0 = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--sim-threads" && i + 1 < argc) {
      cli.sim_threads = parse_thread_count(argv[++i], "--sim-threads");
    } else if (a.rfind("--sim-threads=", 0) == 0) {
      cli.sim_threads = parse_thread_count(argv[i] + 14, "--sim-threads");
    } else {
      if (a == "--jobs" || a.rfind("--jobs=", 0) == 0) jobs_given = true;
      argv[w0++] = argv[i];
    }
  }
  argc = w0;
  argv[argc] = nullptr;

  cli.jobs = ParallelExecutor::parse_jobs(argc, argv);
  if (!jobs_given && cli.sim_threads > 1) {
    cli.jobs = std::max(1u, cli.jobs / cli.sim_threads);
  }
  set_default_jobs(cli.jobs);

  int w = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--smoke") {
      cli.smoke = true;
    } else if (a == "--check") {
      cli.check = true;
    } else if (a == "--no-check") {
      cli.no_check = true;
    } else if (a == "--metrics") {
      cli.metrics = true;
    } else if (a == "--trace" && i + 1 < argc) {
      cli.trace_path = argv[++i];
    } else if (a.rfind("--trace=", 0) == 0) {
      cli.trace_path = a.substr(8);
    } else if (a.rfind("--", 0) == 0) {
      argv[w++] = argv[i];  // unknown flag: leave for the harness
    } else {
      double v = 0.0;
      if (!cli.has_scale && fully_numeric(argv[i], v)) {
        cli.has_scale = true;
        cli.scale = v;
      } else {
        cli.args.emplace_back(argv[i]);
      }
    }
  }
  argc = w;
  argv[argc] = nullptr;

  if (cli.no_check) cli.check = false;
  if (cli.check && !check::kHooksCompiled) {
    std::fprintf(stderr,
                 "warning: --check requested but this build has "
                 "SUVTM_CHECK=OFF; running unchecked\n");
  }
  if ((cli.tracing() || cli.metrics) && !obs::kHooksCompiled) {
    std::fprintf(stderr,
                 "warning: --trace/--metrics requested but this build has "
                 "SUVTM_OBS=OFF; nothing will be recorded\n");
  }
  return cli;
}

}  // namespace

Cli Cli::parse(int& argc, char** argv) {
  try {
    return parse_flags(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

void Cli::apply(sim::SimConfig& cfg) const {
  if (check) cfg.check.enabled = true;
  if (metrics) cfg.obs.metrics = true;
  if (tracing()) cfg.obs.trace = true;
  if (sim_threads != 0) cfg.pdes.host_threads = sim_threads;
}

std::vector<RunResult> run_matrix_cli(std::vector<RunPoint> points,
                                      const std::vector<std::string>& names,
                                      const Cli& cli, BenchReport& report) {
  for (auto& p : points) cli.apply(p.cfg);
  if (!cli.tracing()) {
    auto results = run_matrix(points);
    if (cli.metrics) fold_metrics(results, report);
    return results;
  }
  MatrixTraces mt = run_matrix_traced(points);
  if (cli.metrics) fold_metrics(mt.results, report);
  std::vector<obs::NamedTrace> named;
  named.reserve(mt.traces.size());
  for (std::size_t i = 0; i < mt.traces.size(); ++i) {
    named.push_back({i < names.size() ? names[i] : "run", &mt.traces[i]});
  }
  if (obs::write_chrome_trace(cli.trace_path, named)) {
    std::printf("trace written to %s (open in ui.perfetto.dev)\n",
                cli.trace_path.c_str());
  } else {
    std::fprintf(stderr, "warning: could not write trace to %s\n",
                 cli.trace_path.c_str());
  }
  return std::move(mt.results);
}

}  // namespace suvtm::runner
