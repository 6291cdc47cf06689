// Experiment-throughput scaling: how fast the *harness* chews through a
// scheme x app sweep as host jobs increase, plus the thread-scaling
// ablation (how each scheme's suite execution time scales from 1 to 16
// simulated cores).
//
// Part 1 runs the same scheme x app matrix twice -- --jobs 1 and --jobs N --
// times both, and verifies the RunResults are bit-identical (the
// ParallelExecutor determinism guarantee). Part 2 fans the cores x scheme x
// app cross-product through the pool. A machine-readable summary lands in
// BENCH_scaling.json.
//
// Usage: bench_scaling [scale] [--jobs N] [--smoke] [--check] [--no-check]
//            [--trace out.json] [--metrics]
//   --smoke: tiny scale, identity check plus a seed-shape audit of every
//            RunResult field block; exits non-zero on any violation (used
//            as the ctest parallel smoke target). Smoke runs CHECK ON BY
//            DEFAULT: every smoke simulation is oracle-verified and
//            structurally audited (pass --no-check to opt out, e.g. when
//            timing the smoke sweep itself).
//   --check: run every simulation with the correctness checker enabled
//            (history oracle + structural audits; see src/check). Requires
//            a build with SUVTM_CHECK=ON to have any effect; any violation
//            aborts the run. Timing numbers include the checking cost.
//   --trace/--metrics: record observability data during the part-1 sweep
//            (the determinism check then also covers trace and metrics
//            byte-stability across jobs counts).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "check/check.hpp"
#include "obs/chrome_trace.hpp"
#include "runner/cli.hpp"
#include "runner/tables.hpp"
#include "stamp/sharded_kv.hpp"

using namespace suvtm;

namespace {

std::vector<runner::RunPoint> sweep_points(const runner::Cli& cli,
                                           const stamp::SuiteParams& params,
                                           std::uint32_t cores) {
  std::vector<runner::RunPoint> points;
  for (sim::Scheme s : {sim::Scheme::kLogTmSe, sim::Scheme::kFasTm,
                        sim::Scheme::kSuv}) {
    sim::SimConfig cfg;
    cfg.scheme = s;
    cfg.mem.num_cores = cores;
    cli.apply(cfg);
    for (stamp::AppId app : stamp::all_apps()) {
      points.push_back(runner::RunPoint{app, cfg, params});
    }
  }
  return points;
}

std::uint64_t total_events(const std::vector<runner::RunResult>& rs) {
  std::uint64_t n = 0;
  for (const auto& r : rs) n += r.sim_events;
  return n;
}

/// Seed-shape audit for the smoke target: beyond bit-identity, every
/// RunResult must look like a completed simulation the way the seed
/// produced them -- named app, events and cycles consumed, every begun
/// txn resolved, memory traffic present, and the scheme-specific stat
/// blocks present exactly when their scheme ran. Returns the number of
/// violations (0 = shape OK), printing each one.
int check_seed_shape(const std::vector<runner::RunPoint>& points,
                     const std::vector<runner::RunResult>& rs) {
  int bad = 0;
  auto fail = [&bad](std::size_t i, const char* what) {
    std::fprintf(stderr, "  shape violation at run %zu: %s\n", i, what);
    ++bad;
  };
  if (points.size() != rs.size()) {
    std::fprintf(stderr, "  shape violation: %zu results for %zu points\n",
                 rs.size(), points.size());
    return 1;
  }
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const auto& r = rs[i];
    if (r.app.empty()) fail(i, "empty app name");
    if (r.scheme != points[i].cfg.scheme) fail(i, "scheme mismatch");
    if (r.sim_events == 0) fail(i, "no scheduler events");
    if (r.makespan == 0) fail(i, "zero makespan");
    if (r.htm.begins == 0) fail(i, "no transactions ran");
    if (r.htm.begins != r.htm.commits + r.htm.aborts) {
      fail(i, "unresolved txn attempts (begins != commits + aborts)");
    }
    if (r.mem.l1_hits + r.mem.l1_misses == 0) fail(i, "no L1 traffic");
    const bool is_suv = points[i].cfg.scheme == sim::Scheme::kSuv;
    if (r.has_suv != is_suv) fail(i, "has_suv does not match scheme");
    if (is_suv && r.suv.entries_created == 0 && r.table.lookups == 0) {
      fail(i, "SUV ran but its redirect machinery never engaged");
    }
    if (r.has_dyntm) fail(i, "has_dyntm set for a non-DynTM sweep");
  }
  return bad;
}

/// Part 1b: intra-run determinism. Where part 1 checks that *across-run*
/// host parallelism (the sweep pool) never changes results, this checks
/// the *within-run* kind: one sharded machine (4 shards, 16 cores, SUV)
/// driven by 1 vs 4 host threads must produce a bit-identical RunResult,
/// trace, and metrics snapshot.
bool pdes_identity_check(runner::BenchReport& report, bool check) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kSuv;
  cfg.mem.num_cores = 16;
  cfg.pdes.shards = 4;
  cfg.check.enabled = check;
  cfg.obs.trace = true;
  cfg.obs.metrics = true;

  runner::RunResult results[2];
  obs::TraceData traces[2];
  const std::uint32_t threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    cfg.pdes.host_threads = threads[i];
    sim::Simulator sim(cfg);
    stamp::ShardedKv wl;
    wl.build(sim);
    sim.run();
    wl.verify(sim);
    results[i] = runner::harvest_result(sim, "sharded_kv", &traces[i]);
  }
  const bool ok = results[0] == results[1] && traces[0] == traces[1];
  std::printf("Part 1b: sharded machine (4 shards), sim_threads=1 vs 4: %s\n\n",
              ok ? "bit-identical" : "NO -- DETERMINISM VIOLATION");
  report.set("pdes_bit_identical", static_cast<std::uint64_t>(ok ? 1 : 0));
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  runner::Cli cli = runner::Cli::parse(argc, argv);
  // Always-on correctness: smoke sweeps run checked unless --no-check.
  // (Cli::parse already cleared cli.check if --no-check was given.)
  if (cli.smoke && !cli.no_check && check::kHooksCompiled) cli.check = true;
  const unsigned jobs = cli.jobs;
  const bool smoke = cli.smoke;
  const bool check = cli.check;
  stamp::SuiteParams params;
  params.scale = cli.scale_or(smoke ? 0.1 : 0.5);

  runner::BenchReport report("scaling");
  report.set("jobs", jobs);
  report.set("scale", params.scale);
  report.set("smoke", static_cast<std::uint64_t>(smoke ? 1 : 0));
  report.set("check", static_cast<std::uint64_t>(check ? 1 : 0));

  // ---- Part 1: harness throughput, --jobs 1 vs --jobs N ------------------
  const auto points = sweep_points(cli, params, smoke ? 8 : 16);
  std::printf("Part 1: scheme x app sweep (%zu runs, scale=%.2f), "
              "jobs=1 vs jobs=%u\n\n", points.size(), params.scale, jobs);

  runner::ParallelExecutor serial(1);
  runner::WallTimer t1;
  const auto serial_out = runner::run_matrix_traced(points, serial);
  const auto& serial_results = serial_out.results;
  const double serial_s = t1.seconds();

  runner::ParallelExecutor pool(jobs);
  runner::WallTimer tn;
  const auto pool_out = runner::run_matrix_traced(points, pool);
  const auto& pool_results = pool_out.results;
  const double pool_s = tn.seconds();

  // Bit-identity must hold for the stats AND the observability outputs:
  // RunResult includes the metrics snapshot, and the traces compare
  // event-for-event.
  bool identical = serial_results.size() == pool_results.size();
  for (std::size_t i = 0; identical && i < serial_results.size(); ++i) {
    identical = serial_results[i] == pool_results[i] &&
                serial_out.traces[i] == pool_out.traces[i];
  }

  if (cli.tracing()) {
    std::vector<obs::NamedTrace> named;
    named.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      named.push_back(
          {std::string(sim::scheme_cli_name(points[i].cfg.scheme)) + "/" +
               pool_results[i].app,
           &pool_out.traces[i]});
    }
    if (obs::write_chrome_trace(cli.trace_path, named)) {
      std::printf("trace written to %s (open in ui.perfetto.dev)\n\n",
                  cli.trace_path.c_str());
    }
  }

  const std::uint64_t events = total_events(pool_results);
  const double speedup = pool_s > 0.0 ? serial_s / pool_s : 0.0;
  std::printf("  jobs=1 : %7.2f s   (%.0f events/s)\n", serial_s,
              serial_s > 0 ? static_cast<double>(events) / serial_s : 0.0);
  std::printf("  jobs=%-2u: %7.2f s   (%.0f events/s)\n", jobs, pool_s,
              pool_s > 0 ? static_cast<double>(events) / pool_s : 0.0);
  std::printf("  speedup: %5.2fx   results bit-identical: %s\n\n", speedup,
              identical ? "yes" : "NO -- DETERMINISM VIOLATION");

  report.set("sweep_runs", static_cast<std::uint64_t>(points.size()));
  report.set("wall_seconds_jobs1", serial_s);
  report.set("wall_seconds_jobsN", pool_s);
  report.set("speedup", speedup);
  report.set("sim_events", events);
  report.set("events_per_sec_jobs1",
             serial_s > 0 ? static_cast<double>(events) / serial_s : 0.0);
  report.set("events_per_sec_jobsN",
             pool_s > 0 ? static_cast<double>(events) / pool_s : 0.0);
  report.set("bit_identical", static_cast<std::uint64_t>(identical ? 1 : 0));

  const bool pdes_ok = pdes_identity_check(report, check);
  identical = identical && pdes_ok;

  if (smoke) {
    const int shape_violations = check_seed_shape(points, pool_results);
    report.set("shape_violations",
               static_cast<std::uint64_t>(shape_violations));
    report.write();
    if (!identical) {
      std::fprintf(stderr, "FAIL: parallel results differ from serial\n");
      return 1;
    }
    if (shape_violations != 0) {
      std::fprintf(stderr, "FAIL: %d RunResult shape violations\n",
                   shape_violations);
      return 1;
    }
    std::printf("smoke OK (bit-identical, seed-shape fields intact)\n");
    return 0;
  }

  // ---- Part 2: simulated-core scaling per scheme (paper ablation) --------
  const std::uint32_t core_counts[] = {1, 2, 4, 8, 16};
  const sim::Scheme schemes[] = {sim::Scheme::kLogTmSe, sim::Scheme::kFasTm,
                                 sim::Scheme::kSuv};

  // Flatten cores x scheme x app into one matrix so the pool never drains
  // between table rows.
  std::vector<runner::RunPoint> all;
  for (std::uint32_t cores : core_counts) {
    for (sim::Scheme s : schemes) {
      sim::SimConfig cfg;
      cfg.scheme = s;
      cfg.mem.num_cores = cores;
      cfg.check.enabled = check;
      for (stamp::AppId app : stamp::all_apps()) {
        all.push_back(runner::RunPoint{app, cfg, params});
      }
    }
  }
  runner::WallTimer t2;
  const auto results = runner::run_matrix(all, pool);
  const double part2_s = t2.seconds();

  std::printf("Part 2: suite-sum cycles per scheme and simulated core count "
              "(scale=%.2f)\n\n", params.scale);
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"cores", "LogTM-SE", "FasTM", "SUV-TM",
                  "SUV speedup vs LogTM-SE"});
  const std::size_t napps = stamp::all_apps().size();
  std::size_t idx = 0;
  for (std::uint32_t cores : core_counts) {
    std::vector<std::string> row = {runner::fmt_u64(cores)};
    std::uint64_t logtm = 0, suv = 0;
    for (sim::Scheme s : schemes) {
      std::uint64_t total = 0;
      for (std::size_t a = 0; a < napps; ++a) total += results[idx++].makespan;
      row.push_back(runner::fmt_u64(total));
      if (s == sim::Scheme::kLogTmSe) logtm = total;
      if (s == sim::Scheme::kSuv) suv = total;
    }
    row.push_back(runner::fmt_fixed(
        100.0 * (static_cast<double>(logtm) / static_cast<double>(suv) - 1.0),
        1) + "%");
    rows.push_back(row);
  }
  std::printf("%s\n", runner::render_table(rows).c_str());
  std::printf("expected shape: at 1 core the schemes differ only by "
              "bookkeeping costs; the\nSUV advantage grows with core count "
              "as conflicts (and therefore commit/abort\nisolation windows) "
              "start to dominate.\n\n");

  report.set("core_sweep_runs", static_cast<std::uint64_t>(all.size()));
  report.set("core_sweep_wall_seconds", part2_s);
  report.set("core_sweep_events", total_events(results));
  report.write();
  return identical ? 0 : 1;
}
