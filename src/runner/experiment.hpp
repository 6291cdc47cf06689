// Experiment harness: runs one STAMP-like application under one
// version-management scheme and collects everything the paper's tables and
// figures report. Suites and config sweeps fan out across host cores via
// runner/parallel.hpp; every run is an isolated Simulator, so results are
// bit-identical at any jobs count.
#pragma once

#include <string>
#include <vector>

#include "htm/conflict_manager.hpp"
#include "htm/htm_system.hpp"
#include "htm/version_manager.hpp"
#include "mem/memory_system.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runner/parallel.hpp"
#include "sim/breakdown.hpp"
#include "sim/config.hpp"
#include "stamp/framework.hpp"
#include "suv/redirect_table.hpp"
#include "vm/dyntm.hpp"
#include "vm/suv_vm.hpp"

namespace suvtm::runner {

struct RunResult {
  std::string app;
  sim::Scheme scheme{};
  Cycle makespan = 0;
  std::uint64_t sim_events = 0;  // scheduler events processed by this run
  sim::Breakdown breakdown;  // aggregated over cores
  htm::HtmStats htm;
  htm::ConflictStats conflicts;
  htm::VmStats vm;
  mem::MemStats mem;

  // SUV-specific (valid when has_suv).
  bool has_suv = false;
  suv::TableStats table;
  vm::SuvVmStats suv;
  std::uint64_t pool_lines_in_use = 0;
  std::size_t redirect_entries_live = 0;

  // DynTM-specific (valid when has_dyntm).
  bool has_dyntm = false;
  vm::DynTmStats dyntm;

  /// Harvested observability metrics (empty unless cfg.obs asked for
  /// metrics): the hook-fed registry, every field of the stats blocks above
  /// as "<block>.<field>" (see for_each_block) and derived rates, under one
  /// uniform namespace.
  obs::MetricsSnapshot metrics;

  /// Field-for-field equality; the determinism tests rely on this covering
  /// every stats struct.
  bool operator==(const RunResult&) const = default;
};

/// Call f(block name, stats block) for every stats block the run has, in a
/// fixed order; the names are the metrics-snapshot prefixes.
template <class F>
void for_each_block(const RunResult& r, F&& f) {
  f("htm", r.htm);
  f("conflict", r.conflicts);
  f("vm", r.vm);
  f("mem", r.mem);
  if (r.has_suv) {
    f("table", r.table);
    f("suv", r.suv);
  }
  if (r.has_dyntm) f("dyntm", r.dyntm);
}

/// One point of an experiment cross-product.
struct RunPoint {
  stamp::AppId app{};
  sim::SimConfig cfg;
  stamp::SuiteParams params;
};

/// Harvest every stats block -- and, when the run recorded metrics, the
/// uniform MetricsSnapshot -- from a finished simulation. When `trace_out`
/// is non-null and the run traced, the event trace is moved into it (merged
/// across domains on a sharded machine). Hand-built simulations call it
/// directly and get the exact RunResult the experiment harness would.
RunResult harvest_result(sim::Simulator& sim, std::string app_name,
                         obs::TraceData* trace_out = nullptr);

/// Run `app` under `cfg`, verify workload invariants, and harvest stats.
/// When `trace_out` is non-null and cfg.obs.trace is set, the run's event
/// trace is moved into it.
RunResult run_app(stamp::AppId app, const sim::SimConfig& cfg,
                  const stamp::SuiteParams& params,
                  obs::TraceData* trace_out = nullptr);

/// Run every point, fanned across `exec`, results in submission order.
std::vector<RunResult> run_matrix(const std::vector<RunPoint>& points,
                                  ParallelExecutor& exec);
/// Same, on the process-wide default executor.
std::vector<RunResult> run_matrix(const std::vector<RunPoint>& points);

/// run_matrix plus per-point traces, both in submission order (traces are
/// empty unless the point's cfg.obs.trace is set). Each run owns its own
/// Recorder, so the traces are byte-stable across host job counts.
struct MatrixTraces {
  std::vector<RunResult> results;
  std::vector<obs::TraceData> traces;
};
MatrixTraces run_matrix_traced(const std::vector<RunPoint>& points,
                               ParallelExecutor& exec);
MatrixTraces run_matrix_traced(const std::vector<RunPoint>& points);

/// Run every STAMP app under one scheme, fanned across `exec`.
std::vector<RunResult> run_suite(sim::Scheme scheme, const sim::SimConfig& base,
                                 const stamp::SuiteParams& params,
                                 ParallelExecutor& exec);
/// Same, on the process-wide default executor.
std::vector<RunResult> run_suite(sim::Scheme scheme, const sim::SimConfig& base,
                                 const stamp::SuiteParams& params);

/// Geometric-mean speedup of `test` over `base` across matching apps,
/// optionally restricted to the paper's five high-contention apps.
double geomean_speedup(const std::vector<RunResult>& base,
                       const std::vector<RunResult>& test,
                       bool high_contention_only);

}  // namespace suvtm::runner
