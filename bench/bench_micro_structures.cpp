// Host-level micro-benchmarks (google-benchmark) of the hot simulator
// structures: Bloom signatures, the summary signature, the redirect table,
// the cache tag array, the flat footprint/map containers and the event
// scheduler. These are the per-layer rows nothing else measures; end-to-end
// host speed (events/s, pass CPU time, obs overhead, the sharded machine)
// comes from perfbench/ (see perfbench/README.md).
//
// Besides the google-benchmark suite, main() runs the two rows CI gates on
// and writes them to BENCH_micro_structures.json:
//   - calendar_vs_heap_speedup: the calendar-queue scheduler (per-cycle
//     buckets, batched same-cycle dispatch) vs the binary-heap scheduler it
//     replaced, on the identical churn workload (perf-smoke gate: >= 2x);
//   - checker_runtime_overhead_pct: the correctness checker (src/check) off
//     vs on over a small scheme x app matrix, ABBA rounds on CPU time
//     (perf-smoke gate: <= 40%).
//
// Usage: bench_micro_structures [gbench args] [--smoke]
//   --smoke skips the google-benchmark suite and runs a shorter scheduler
//   head-to-head and three checker rounds (seconds, not minutes); it still
//   writes both gated rows.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <vector>

#include "check/check.hpp"
#include "common/flat_hash.hpp"
#include "common/rng.hpp"
#include "htm/signature.hpp"
#include "mem/cache.hpp"
#include "runner/bench_report.hpp"
#include "runner/cli.hpp"
#include "runner/experiment.hpp"
#include "sim/config.hpp"
#include "sim/scheduler.hpp"
#include "suv/redirect_table.hpp"
#include "suv/summary_signature.hpp"

using namespace suvtm;

namespace {

// The binary-heap scheduler the calendar queue replaced, verbatim in shape:
// a hand-rolled min-heap of (t, seq, slot) POD keys over a free-listed
// SmallFn slot pool. It is kept only as the reference of the head-to-head
// the CI perf-smoke job gates on.
class BaselineHeapScheduler {
 public:
  Cycle now() const { return now_; }

  void at(Cycle t, sim::SmallFn fn) {
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(std::move(fn));
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot] = std::move(fn);
    }
    heap_.emplace_back();  // reserve the hole; sift_up fills it
    sift_up(heap_.size() - 1, Key{t, seq_++, slot});
  }

  void after(Cycle delay, sim::SmallFn fn) { at(now_ + delay, std::move(fn)); }

  bool run(Cycle limit) {
    while (!heap_.empty()) {
      if (heap_.front().t > limit) return false;
      const Key k = pop_min();
      sim::SmallFn fn = std::move(slots_[k.slot]);
      free_slots_.push_back(k.slot);
      now_ = k.t;
      ++events_;
      fn();
    }
    return true;
  }

  std::uint64_t events_processed() const { return events_; }

 private:
  struct Key {
    Cycle t;
    std::uint64_t seq;
    std::uint32_t slot;

    bool before(const Key& o) const {
      return t != o.t ? t < o.t : seq < o.seq;
    }
  };

  void sift_up(std::size_t i, Key k) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!k.before(heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = k;
  }

  Key pop_min() {
    const Key min = heap_.front();
    const Key last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
      std::size_t i = 0;
      for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n) break;
        if (child + 1 < n && heap_[child + 1].before(heap_[child])) ++child;
        if (!heap_[child].before(last)) break;
        heap_[i] = heap_[child];
        i = child;
      }
      heap_[i] = last;
    }
    return min;
  }

  Cycle now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_ = 0;
  std::vector<Key> heap_;
  std::vector<sim::SmallFn> slots_;
  std::vector<std::uint32_t> free_slots_;
};

// Simulator-shaped event churn: kChains self-rescheduling handlers (one per
// simulated core plus mesh traffic) whose captures match the hot
// [this, &aw, h] lambdas in ThreadContext (24 bytes).
template <class Sched>
std::uint64_t scheduler_churn(std::uint64_t target_events) {
  Sched s;
  constexpr int kChains = 64;
  std::uint64_t processed = 0;
  struct Chain {
    Sched* s;
    std::uint64_t* processed;
    std::uint64_t limit;
    std::uint64_t x;
    void operator()() {
      if (*processed >= limit) return;
      ++*processed;
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      s->after(1 + (x >> 61), Chain{*this});
    }
  };
  static_assert(sizeof(Chain) == 32, "capture should model the hot lambdas");
  for (int i = 0; i < kChains; ++i) {
    s.after(static_cast<Cycle>(i),
            Chain{&s, &processed, target_events,
                  0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(i)});
  }
  s.run(~Cycle{0});
  return processed;
}

// Transaction-footprint churn, shaped like one txn attempt in the VM hot
// path (paper Table IV: write sets of tens of lines, reads outnumbering
// writes ~2:1, every access membership-probing both sets): build a 40-line
// write set and an 80-access read set with duplicate hits, then clear.
std::uint64_t footprint_churn(std::uint64_t rounds) {
  LineSet reads, writes;
  std::uint64_t x = 0x243f6a8885a308d3ull;
  std::uint64_t acc = 0;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (int i = 0; i < 40; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      const LineAddr l = (x >> 12) & 0x3ff;  // 1K-line region -> some dups
      acc += writes.contains(l);
      writes.insert(l);
      for (int j = 0; j < 2; ++j) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const LineAddr rl = (x >> 12) & 0x3ff;
        acc += reads.contains(rl) + writes.contains(rl);
        reads.insert(rl);
      }
    }
    reads.clear();
    writes.clear();
  }
  return acc;
}
// insert+contains ops per round of the loop above (40 + 80 inserts,
// 40 + 160 membership probes).
constexpr std::uint64_t kFootprintOpsPerRound = 320;

// Redo-log / page-map churn: try_emplace-or-overwrite plus lookups over a
// 1K-key working set, cleared per round (commit/abort).
std::uint64_t map_churn(std::uint64_t rounds) {
  FlatMap<std::uint64_t, std::uint64_t> m;
  std::uint64_t x = 0x452821e638d01377ull;
  std::uint64_t acc = 0;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    for (int i = 0; i < 64; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      auto [it, inserted] = m.try_emplace((x >> 20) & 0x3ff, x);
      if (!inserted) it->second = x;
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      auto f = m.find((x >> 20) & 0x3ff);
      if (f != m.end()) acc += f->second;
    }
    m.clear();
  }
  return acc;
}
constexpr std::uint64_t kMapOpsPerRound = 128;

void BM_SignatureAdd(benchmark::State& state) {
  htm::Signature sig(2048, 2);
  Rng rng(1);
  for (auto _ : state) {
    sig.add(rng.next() >> 6);
    if (sig.adds() > 4096) sig.clear();
  }
}
BENCHMARK(BM_SignatureAdd);

void BM_SignatureTest(benchmark::State& state) {
  htm::Signature sig(2048, 2);
  Rng rng(2);
  for (int i = 0; i < 256; ++i) sig.add(rng.next() >> 6);
  std::uint64_t hits = 0;
  for (auto _ : state) {
    hits += sig.test(rng.next() >> 6);
  }
  benchmark::DoNotOptimize(hits);
}
BENCHMARK(BM_SignatureTest);

void BM_SummarySignatureAddRemove(benchmark::State& state) {
  suv::SummarySignature sum(2048, 2);
  Rng rng(3);
  for (auto _ : state) {
    const LineAddr l = rng.next() >> 6;
    sum.add(l);
    sum.remove(l);
  }
}
BENCHMARK(BM_SummarySignatureAddRemove);

void BM_RedirectTableLookupHit(benchmark::State& state) {
  sim::SuvParams p;
  suv::RedirectTable table(p, 16);
  Rng rng(4);
  std::vector<LineAddr> lines;
  for (int i = 0; i < 256; ++i) {
    const LineAddr l = rng.next() >> 40;
    if (table.find(l)) continue;
    lines.push_back(l);
    table.insert_transient(
        {l, l + (1ull << 34), suv::EntryState::kTxnRedirect, 0});
  }
  std::size_t i = 0;
  for (auto _ : state) {
    auto res = table.lookup(0, lines[i++ % lines.size()]);
    benchmark::DoNotOptimize(res.entry);
  }
}
BENCHMARK(BM_RedirectTableLookupHit);

void BM_RedirectTableLookupFiltered(benchmark::State& state) {
  sim::SuvParams p;
  suv::RedirectTable table(p, 16);
  Rng rng(5);
  for (auto _ : state) {
    auto res = table.lookup(0, rng.next() >> 6);
    benchmark::DoNotOptimize(res.entry);
  }
}
BENCHMARK(BM_RedirectTableLookupFiltered);

void BM_CacheAccessHit(benchmark::State& state) {
  mem::Cache cache(32 * 1024, 4);
  for (LineAddr l = 0; l < 256; ++l) cache.insert(l, mem::CohState::kShared);
  LineAddr l = 0;
  for (auto _ : state) {
    auto* ln = cache.find(l++ % 256);
    benchmark::DoNotOptimize(ln);
  }
}
BENCHMARK(BM_CacheAccessHit);

void BM_CacheInsertEvict(benchmark::State& state) {
  mem::Cache cache(32 * 1024, 4);
  Rng rng(6);
  for (auto _ : state) {
    auto v = cache.insert(rng.next() >> 6, mem::CohState::kModified);
    benchmark::DoNotOptimize(v.valid);
  }
}
BENCHMARK(BM_CacheInsertEvict);

void BM_FootprintChurnFlat(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(footprint_churn(100));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100 *
                          static_cast<std::int64_t>(kFootprintOpsPerRound));
}
BENCHMARK(BM_FootprintChurnFlat);

void BM_MapChurnFlat(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(map_churn(100));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100 *
                          static_cast<std::int64_t>(kMapOpsPerRound));
}
BENCHMARK(BM_MapChurnFlat);

void BM_SchedulerEventChurn(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler_churn<sim::Scheduler>(100000));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          100000);
}
BENCHMARK(BM_SchedulerEventChurn);

/// Fixed head-to-head for the JSON report: events/sec through the calendar
/// queue and the binary heap on the identical churn workload. The ratio is
/// the row the CI perf-smoke job gates on (>= 2x).
void scheduler_report(runner::BenchReport& report, bool smoke) {
  const std::uint64_t kEvents = smoke ? 500'000 : 2'000'000;
  const auto timed = [&](auto tag) {
    using Sched = decltype(tag);
    scheduler_churn<Sched>(kEvents / 10);  // warm allocators/caches
    runner::WallTimer t;
    const std::uint64_t n = scheduler_churn<Sched>(kEvents);
    const double s = t.seconds();
    return s > 0 ? static_cast<double>(n) / s : 0.0;
  };

  const double eps_cal = timed(sim::Scheduler{});
  const double eps_heap = timed(BaselineHeapScheduler{});
  const double vs_heap = eps_heap > 0 ? eps_cal / eps_heap : 0.0;
  std::printf("\nscheduler head-to-head (%llu events):\n"
              "  calendar queue (batched)  : %12.0f events/s\n"
              "  binary heap               : %12.0f events/s\n"
              "  calendar vs heap          : %.2fx\n",
              static_cast<unsigned long long>(kEvents), eps_cal, eps_heap,
              vs_heap);

  report.set("scheduler_events", kEvents);
  report.set("events_per_sec_calendar_queue", eps_cal);
  report.set("events_per_sec_binary_heap", eps_heap);
  report.set("calendar_vs_heap_speedup", vs_heap);
}

double cpu_seconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Runtime cost of the correctness checker (src/check): the same small
/// scheme x app matrix with cfg.check.enabled off and on, at the default
/// checked configuration (sampled structural audits plus always-on abort
/// audits; the history oracle's replay and conflict-ordering proofs are
/// always on). The "off" arm is what a checker-capable build pays on the
/// default path: hooks compiled in, gated on a null pointer.
///
/// Methodology, built for noisy/throttling CI hosts: each round times the
/// matrix off, on, on, off (ABBA -- both arms see both positions, so
/// monotone drift within a round cancels), on CLOCK_PROCESS_CPUTIME_ID
/// (immune to descheduling), and the reported overhead is the MEDIAN of
/// the per-round on/off ratios (robust to frequency spikes). Only that
/// ratio is reported: absolute events/s rows taken from the same rounds
/// would be a second, disagreeing estimator.
void checker_overhead_report(runner::BenchReport& report, int rounds) {
  report.set("check_hooks_compiled",
             static_cast<std::uint64_t>(check::kHooksCompiled ? 1 : 0));
  stamp::SuiteParams params;
  params.scale = 0.25;
  const auto matrix = [&](bool enabled) {
    std::vector<runner::RunPoint> points;
    for (sim::Scheme s : {sim::Scheme::kLogTmSe, sim::Scheme::kFasTm,
                          sim::Scheme::kSuv}) {
      sim::SimConfig cfg;
      cfg.scheme = s;
      cfg.mem.num_cores = 16;
      cfg.check.enabled = enabled;
      for (stamp::AppId app : stamp::all_apps()) {
        points.push_back(runner::RunPoint{app, cfg, params});
      }
    }
    return points;
  };
  const auto off_pts = matrix(false);
  const auto on_pts = matrix(check::kHooksCompiled);
  runner::ParallelExecutor serial(1);
  runner::run_matrix(off_pts, serial);  // warm
  runner::run_matrix(on_pts, serial);   // warm
  std::vector<double> ratios;
  for (int r = 0; r < rounds; ++r) {
    const double t0 = cpu_seconds();
    runner::run_matrix(off_pts, serial);
    const double t1 = cpu_seconds();
    runner::run_matrix(on_pts, serial);
    const double t2 = cpu_seconds();
    runner::run_matrix(on_pts, serial);
    const double t3 = cpu_seconds();
    runner::run_matrix(off_pts, serial);
    const double t4 = cpu_seconds();
    const double off = (t1 - t0) + (t4 - t3);
    const double on = (t2 - t1) + (t3 - t2);
    if (off > 0) ratios.push_back(on / off);
  }
  std::sort(ratios.begin(), ratios.end());
  const double ratio = ratios.empty() ? 1.0 : ratios[ratios.size() / 2];
  const double overhead = (ratio - 1.0) * 100.0;
  std::printf("\nchecker overhead (scheme x app matrix, 16 cores, "
              "scale 0.25, %d ABBA rounds, median CPU-time ratio):\n"
              "  check on: +%.1f%% run time\n",
              rounds, overhead);
  report.set("checker_overhead_rounds", static_cast<std::uint64_t>(rounds));
  report.set("checker_runtime_overhead_pct", overhead);
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the shared harness flags (google-benchmark rejects unknown
  // flags); the checker section configures check explicitly, so only
  // --smoke has an effect here.
  const runner::Cli cli = runner::Cli::parse(argc, argv);
  runner::BenchReport report("micro_structures");
  if (!cli.smoke) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  scheduler_report(report, cli.smoke);
  checker_overhead_report(report, /*rounds=*/cli.smoke ? 3 : 5);
  report.write();
  return 0;
}
