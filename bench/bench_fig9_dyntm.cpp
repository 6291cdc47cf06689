// Figure 9: execution-time breakdown of the original DynTM (D, FasTM
// version management) versus DynTM with SUV as its version-management
// scheme (D+S), per STAMP application, normalized per app to DynTM.
// The Committing bucket carries the paper's headline contrast: lazy
// publication is per-line with FasTM but a flash flip with SUV.
//
// Usage: bench_fig9_dyntm [scale] [--jobs N] [--check] [--trace out.json]
//            [--metrics]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "runner/cli.hpp"
#include "runner/tables.hpp"

using namespace suvtm;

int main(int argc, char** argv) {
  const runner::Cli cli = runner::Cli::parse(argc, argv);
  const unsigned jobs = cli.jobs;
  stamp::SuiteParams params;
  params.scale = cli.scale_or(params.scale);

  runner::BenchReport report("fig9_dyntm");

  // One flat scheme x app matrix through the shared CLI runner.
  std::vector<runner::RunPoint> points;
  std::vector<std::string> names;
  for (sim::Scheme s : {sim::Scheme::kDynTm, sim::Scheme::kDynTmSuv}) {
    sim::SimConfig cfg;
    cfg.scheme = s;
    for (stamp::AppId app : stamp::all_apps()) {
      points.push_back(runner::RunPoint{app, cfg, params});
      names.push_back(std::string(sim::scheme_cli_name(s)) + "/" +
                      stamp::app_name(app));
    }
  }
  runner::WallTimer timer;
  const auto flat = runner::run_matrix_cli(points, names, cli, report);
  const double wall_s = timer.seconds();
  const std::size_t napps = stamp::all_apps().size();
  const std::vector<runner::RunResult> d(flat.begin(), flat.begin() + napps);
  const std::vector<runner::RunResult> ds(flat.begin() + napps, flat.end());

  std::printf("Figure 9: DynTM (D) vs DynTM+SUV (D+S), normalized to DynTM "
              "(scale=%.2f, 16 cores)\n\n", params.scale);
  std::vector<std::vector<std::string>> rows;
  rows.push_back(runner::breakdown_header());
  for (std::size_t i = 0; i < d.size(); ++i) {
    const double norm = static_cast<double>(d[i].breakdown.total());
    rows.push_back(runner::breakdown_row(d[i].app + "/D", d[i].breakdown, norm));
    rows.push_back(
        runner::breakdown_row(d[i].app + "/D+S", ds[i].breakdown, norm));
    rows.push_back({});
  }
  std::printf("%s\n", runner::render_table(rows).c_str());

  std::vector<std::vector<std::string>> mk;
  mk.push_back({"app", "DynTM", "DynTM+SUV", "speedup", "lazy% D",
                "lazy% D+S", "Committing D", "Committing D+S"});
  for (std::size_t i = 0; i < d.size(); ++i) {
    const auto& a = d[i];
    const auto& b = ds[i];
    const double lazy_d =
        100.0 * static_cast<double>(a.dyntm.lazy_txns) /
        static_cast<double>(a.dyntm.lazy_txns + a.dyntm.eager_txns + 1);
    const double lazy_ds =
        100.0 * static_cast<double>(b.dyntm.lazy_txns) /
        static_cast<double>(b.dyntm.lazy_txns + b.dyntm.eager_txns + 1);
    mk.push_back(
        {a.app, runner::fmt_u64(a.makespan), runner::fmt_u64(b.makespan),
         runner::fmt_fixed(
             100.0 * (static_cast<double>(a.makespan) /
                          static_cast<double>(b.makespan) -
                      1.0),
             1) + "%",
         runner::fmt_fixed(lazy_d, 0), runner::fmt_fixed(lazy_ds, 0),
         runner::fmt_u64(a.breakdown.get(sim::Bucket::kCommitting)),
         runner::fmt_u64(b.breakdown.get(sim::Bucket::kCommitting))});
  }
  std::printf("%s\n", runner::render_table(mk).c_str());

  std::printf("headline speedups (geometric mean):\n");
  std::printf("  DynTM+SUV over DynTM, all apps        : %+.1f%%   (paper: +9.8%%)\n",
              100.0 * (runner::geomean_speedup(d, ds, false) - 1.0));
  std::printf("  DynTM+SUV over DynTM, high-contention : %+.1f%%   (paper: +18.6%%)\n",
              100.0 * (runner::geomean_speedup(d, ds, true) - 1.0));

  std::uint64_t events = 0;
  for (const auto& r : d) events += r.sim_events;
  for (const auto& r : ds) events += r.sim_events;
  report.set("jobs", jobs);
  report.set("scale", params.scale);
  report.set("runs", static_cast<std::uint64_t>(d.size() + ds.size()));
  report.set("wall_seconds", wall_s);
  report.set("sim_events", events);
  report.set("events_per_sec",
             wall_s > 0 ? static_cast<double>(events) / wall_s : 0.0);
  report.set("dyntm_suv_vs_dyntm_all", runner::geomean_speedup(d, ds, false));
  report.set("dyntm_suv_vs_dyntm_high", runner::geomean_speedup(d, ds, true));
  // Per-app makespans and Committing cycles, keyed by scheme CLI name.
  for (const auto& r : flat) {
    const std::string key =
        std::string(sim::scheme_cli_name(r.scheme)) + "." + r.app;
    report.set("makespan." + key, r.makespan);
    report.set("committing." + key,
               r.breakdown.get(sim::Bucket::kCommitting));
  }
  report.write();
  return 0;
}
