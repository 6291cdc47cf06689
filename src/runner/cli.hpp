// Shared bench/example command-line handling. Every harness used to
// hand-roll the same strip loop for --jobs/--smoke/--check; Cli centralises
// that and adds the observability switches (--trace <path>, --metrics)
// uniformly. parse() mutates argc/argv, removing what it consumed, so
// harness-specific parsing (positional csv lists, scheme names) sees a
// clean argument vector afterwards.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "runner/bench_report.hpp"
#include "runner/experiment.hpp"
#include "sim/config.hpp"

namespace suvtm::runner {

struct Cli {
  unsigned jobs = 0;       ///< resolved --jobs value (also set as default)
  /// --sim-threads N / SUVTM_SIM_THREADS: host threads driving one sharded
  /// simulation's domain schedulers (0 = not requested; leaves configs
  /// untouched). Purely an execution knob -- results are bit-identical at
  /// any value. When set > 1 and --jobs was not given explicitly, the
  /// default sweep-level job count is divided by it so the two layers of
  /// host parallelism share the machine instead of multiplying.
  unsigned sim_threads = 0;
  bool smoke = false;      ///< --smoke: tiny inputs for CI
  bool check = false;      ///< --check: enable the correctness checker
  /// --no-check: explicitly opt out of checking. Harnesses that default
  /// checking ON for some mode (bench_scaling --smoke) honour this; it
  /// never needs consulting where checking is already opt-in.
  bool no_check = false;
  bool metrics = false;    ///< --metrics: harvest the metrics registry
  std::string trace_path;  ///< --trace <path> / --trace=<path> destination
  bool has_scale = false;
  double scale = 1.0;              ///< first numeric positional, if any
  std::vector<std::string> args;   ///< remaining positionals, in order

  /// Parse and strip the shared flags plus all positionals from argv.
  /// Unknown --flags stay in argv for harness-specific parsing. Sizes the
  /// process-wide default executor to `jobs` and warns once when --check or
  /// --trace/--metrics ask for hooks this build compiled out. A malformed
  /// thread count (--jobs, --sim-threads, SUVTM_JOBS, SUVTM_SIM_THREADS)
  /// is a usage error: it is printed and the process exits with status 2.
  static Cli parse(int& argc, char** argv);

  bool tracing() const { return !trace_path.empty(); }
  double scale_or(double dflt) const { return has_scale ? scale : dflt; }
  const std::string& arg_or(std::size_t i, const std::string& dflt) const {
    return i < args.size() ? args[i] : dflt;
  }

  /// Fold the shared switches into a run config (never clears flags a
  /// caller already set): --check -> cfg.check.enabled, --metrics ->
  /// cfg.obs.metrics, --trace -> cfg.obs.trace, --sim-threads ->
  /// cfg.pdes.host_threads (only when given).
  void apply(sim::SimConfig& cfg) const;
};

/// Bench-side uniform handling of the shared switches for one run matrix:
/// applies the Cli switches to every point's config and runs the matrix on
/// the process-wide default executor. With --trace, the combined
/// Chrome-trace JSON (one trace "process" per point, labelled `names[i]`)
/// is written to cli.trace_path; with --metrics, the matrix's summed
/// metrics land in `report` under "metrics." keys. Results come back in
/// submission order either way.
std::vector<RunResult> run_matrix_cli(std::vector<RunPoint> points,
                                      const std::vector<std::string>& names,
                                      const Cli& cli, BenchReport& report);

}  // namespace suvtm::runner
