#include "runner/experiment.hpp"

#include <cmath>
#include <unordered_set>

#include "sim/simulator.hpp"

namespace suvtm::runner {

namespace {

/// Ratio that maps 0/0 to 0 (rates over counters that may never fire).
double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Fold every field of every present stats block into the hook-fed registry
/// snapshot as "<block>.<field>", plus the derived rates and gauges, so
/// BENCH_*.json carries one uniform metrics namespace.
void add_stats_metrics(RunResult& r) {
  obs::MetricsSnapshot& m = r.metrics;
  for_each_block(r, [&m](const char* block, const auto& stats) {
    visit_fields(stats, [&](const char* field, std::uint64_t v) {
      m.set(std::string(block) + "." + field, static_cast<double>(v));
    });
  });
  m.set("htm.abort_ratio", r.htm.abort_ratio());
  m.set("conflict.sig_false_positive_rate",
        ratio(r.conflicts.false_conflicts, r.conflicts.conflicts));
  m.set("mem.l1_miss_rate", ratio(r.mem.l1_misses, r.mem.l1_hits + r.mem.l1_misses));
  if (r.has_suv) {
    m.set("suv.summary_false_filter_rate",
          ratio(r.table.false_filter_hits, r.table.lookups));
    m.set("suv.table_l1_miss_rate", r.table.l1_miss_rate());
    m.set("suv.redirect_entries_live",
          static_cast<double>(r.redirect_entries_live));
    m.set("suv.pool_lines_in_use", static_cast<double>(r.pool_lines_in_use));
  }
  if (r.has_dyntm) {
    m.set("dyntm.lazy_txn_ratio",
          ratio(r.dyntm.lazy_txns, r.dyntm.lazy_txns + r.dyntm.eager_txns));
  }
}

}  // namespace

RunResult harvest_result(sim::Simulator& sim, std::string app_name,
                         obs::TraceData* trace_out) {
  const sim::SimConfig& cfg = sim.config();
  RunResult r;
  r.app = std::move(app_name);
  r.scheme = cfg.scheme;
  r.makespan = sim.makespan();
  r.sim_events = sim.events_processed();
  r.breakdown = sim.total_breakdown();

  // Stats blocks sum over the machine's domains (exactly one on the classic
  // monolithic machine; one per shard under conservative PDES). The domain
  // order is fixed, so sharded harvests are deterministic by construction.
  for (std::uint32_t d = 0; d < sim.num_domains(); ++d) {
    htm::VersionManager& vmgr = sim.htm(d).vm();
    accumulate(r.htm, sim.htm(d).stats());
    accumulate(r.conflicts, sim.htm(d).conflicts().stats());
    accumulate(r.vm, vmgr.stats());
    accumulate(r.mem, sim.mem(d).stats());

    if (auto* dyn = dynamic_cast<vm::DynTm*>(&vmgr)) {
      r.has_dyntm = true;
      accumulate(r.dyntm, dyn->dyntm_stats());
      // The eager backend's loads, log appends, overflows and degenerations
      // belong to the run too. DynTm counts every store itself, and the
      // backend recounts those it is delegated, so keep DynTm's total.
      htm::VmStats backend = dyn->inner().stats();
      backend.tx_stores = 0;
      accumulate(r.vm, backend);
    }
    if (vm::SuvVm* suvvm = vm::suv_backend(vmgr)) {
      r.has_suv = true;
      accumulate(r.table, suvvm->table().stats());
      accumulate(r.suv, suvvm->suv_stats());
      r.redirect_entries_live += suvvm->table().total_entries();
      for (CoreId c = 0; c < sim.num_cores(); ++c) {
        r.pool_lines_in_use += suvvm->pool(c).lines_in_use();
      }
    }
  }

  if (obs::Recorder* rec = sim.recorder()) {
    if (cfg.obs.metrics) {
      r.metrics = sim.harvest_metrics();
      add_stats_metrics(r);
    }
    if (trace_out != nullptr && rec->tracing()) {
      *trace_out = sim.take_trace();
    }
  }
  return r;
}

RunResult run_app(stamp::AppId app, const sim::SimConfig& cfg,
                  const stamp::SuiteParams& params,
                  obs::TraceData* trace_out) {
  sim::Simulator sim(cfg);
  auto workload = stamp::make_workload(app);
  workload->build(sim, params);
  sim.run();
  workload->verify(sim);
  return harvest_result(sim, stamp::app_name(app), trace_out);
}

std::vector<RunResult> run_matrix(const std::vector<RunPoint>& points,
                                  ParallelExecutor& exec) {
  std::vector<RunResult> out(points.size());
  exec.run_indexed(points.size(), [&](std::size_t i) {
    out[i] = run_app(points[i].app, points[i].cfg, points[i].params);
  });
  return out;
}

std::vector<RunResult> run_matrix(const std::vector<RunPoint>& points) {
  return run_matrix(points, default_executor());
}

MatrixTraces run_matrix_traced(const std::vector<RunPoint>& points,
                               ParallelExecutor& exec) {
  MatrixTraces out;
  out.results.resize(points.size());
  out.traces.resize(points.size());
  exec.run_indexed(points.size(), [&](std::size_t i) {
    out.results[i] =
        run_app(points[i].app, points[i].cfg, points[i].params, &out.traces[i]);
  });
  return out;
}

MatrixTraces run_matrix_traced(const std::vector<RunPoint>& points) {
  return run_matrix_traced(points, default_executor());
}

std::vector<RunResult> run_suite(sim::Scheme scheme, const sim::SimConfig& base,
                                 const stamp::SuiteParams& params,
                                 ParallelExecutor& exec) {
  sim::SimConfig cfg = base;
  cfg.scheme = scheme;
  std::vector<RunPoint> points;
  points.reserve(stamp::all_apps().size());
  for (stamp::AppId app : stamp::all_apps()) {
    points.push_back(RunPoint{app, cfg, params});
  }
  return run_matrix(points, exec);
}

std::vector<RunResult> run_suite(sim::Scheme scheme, const sim::SimConfig& base,
                                 const stamp::SuiteParams& params) {
  return run_suite(scheme, base, params, default_executor());
}

double geomean_speedup(const std::vector<RunResult>& base,
                       const std::vector<RunResult>& test,
                       bool high_contention_only) {
  std::unordered_set<std::string> wanted;
  for (stamp::AppId id : high_contention_only ? stamp::high_contention_apps()
                                              : stamp::all_apps()) {
    wanted.insert(stamp::app_name(id));
  }
  double log_sum = 0.0;
  std::size_t n = 0;
  for (const auto& b : base) {
    if (!wanted.count(b.app)) continue;
    for (const auto& t : test) {
      if (t.app != b.app) continue;
      log_sum += std::log(static_cast<double>(b.makespan) /
                          static_cast<double>(t.makespan));
      ++n;
    }
  }
  return n == 0 ? 1.0 : std::exp(log_sum / static_cast<double>(n));
}

}  // namespace suvtm::runner
