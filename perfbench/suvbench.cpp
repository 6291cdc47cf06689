// suvbench -- the measuring half of the repository benchmark (run.py is the
// reporting half). It drives the simulator only through public entry
// points -- sim::Simulator, stamp::make_workload / Workload::build / verify,
// stamp::ShardedKv and runner::harvest_result -- and prints one JSON object
// of raw per-pass samples and exact counters on stdout. run.py turns that
// into the named metrics, so every statistic is computed in one place.
//
//   suvbench --workload NAME --seed N --seconds S [--traced PATH | --prove]
//            [--scale X] [--kv-ops N] [--max-cycles N]
//
// A *pass* runs every simulation of the workload's run list once, one at a
// time. A STAMP run list holds the 8 apps at the input seed --seed plus a
// fixed corpus of kCorpus input seeds. One input's summed makespan swings
// by 15-30% between seeds, so a run list of --seed alone would measure
// mostly which inputs the seed drew; with the corpus the seed decides one
// input in eight. Before the first pass, the --seed simulation of each app
// is run as a warm-up and its timings discarded. The first time a
// simulation runs, its RunResult becomes the reference that every later
// run of it must equal field for field.
//
// Every simulation runs under a cap of kMaxCycles simulated cycles, about
// 17x the longest STAMP makespan at scale 1.0: a run that livelocks (some
// inputs do, README.md) then fails in seconds instead of running for
// minutes. A simulation that fails is counted once and left out of later
// passes, since it fails the same way every time; once every simulation
// has failed, the run ends. --max-cycles lowers the cap, which makes every
// simulation fail: the self-test uses it to exercise that path.
//
// Without --traced this is the timed run: passes repeat until --seconds
// have elapsed (at least kMinPasses of them), and the only host timers are
// around Simulator::run (CPU and wall) and around construction plus build
// (set-up). With --traced
// PATH it is the traced run: spans are recorded around every public call,
// kept in memory and written to PATH as Chrome-trace JSON at exit, and
// passes are interleaved in ABBA blocks (A B B A) that compare, each on
// against off, the span recording itself, the checker, the metrics
// registry and, on a sharded machine, a second host thread. With --prove
// it runs one untimed pass with the checker on and reports only its
// verdict, so a machine is proven coherent in a process of its own and the
// checker's memory never counts in the timed run's peak RSS.
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "runner/experiment.hpp"
#include "sim/simulator.hpp"
#include "stamp/framework.hpp"
#include "stamp/sharded_kv.hpp"

using namespace suvtm;

namespace {

/// Fixed STAMP input seeds run beside --seed (see the header comment).
/// They are 16 apart, the simulated core count: most apps seed thread c's
/// generator with the input seed plus c, so closer inputs share streams.
constexpr std::uint64_t kCorpus[] = {0, 16, 32, 48, 64, 80, 96};

/// Simulated-cycle cap per simulation (see the header comment).
constexpr Cycle kMaxCycles = 50'000'000;

/// Fewest timed passes, however short --seconds is.
constexpr std::size_t kMinPasses = 3;

// ---- host clocks -------------------------------------------------------------

using Clock = std::chrono::steady_clock;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time of the whole process, so a sharded run's host threads count.
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// ---- command line --------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool has_seed = false;
  double seconds = -1.0;
  std::string trace_path;  // non-empty: traced run
  bool prove = false;      // one checked, untimed pass
  double scale = 1.0;
  std::uint64_t kv_ops = 2048;
  Cycle max_cycles = kMaxCycles;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "suvbench: %s\nusage: suvbench --workload NAME --seed N "
               "--seconds S [--traced PATH | --prove] [--scale X] "
               "[--kv-ops N] [--max-cycles N]\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const std::string& flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') {
    usage("bad value for " + flag);
  }
  return v;
}

double parse_double(const char* s, const std::string& flag) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || !(v >= 0.0) || v > 1e6) {
    usage("bad value for " + flag);
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i += 2) {
    const std::string a = argv[i];
    if (a == "--prove") {
      o.prove = true;
      --i;  // takes no value
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const char* v = argv[i + 1];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = parse_u64(v, a);
      o.has_seed = true;
    } else if (a == "--seconds") {
      o.seconds = parse_double(v, a);
    } else if (a == "--traced") {
      o.trace_path = v;
    } else if (a == "--scale") {
      o.scale = parse_double(v, a);
    } else if (a == "--kv-ops") {
      o.kv_ops = parse_u64(v, a);
    } else if (a == "--max-cycles") {
      o.max_cycles = parse_u64(v, a);
    } else {
      usage("unknown flag " + a);
    }
  }
  if (o.workload.empty() || !o.has_seed || o.seconds < 0.0) {
    usage("--workload, --seed and --seconds are required");
  }
  if (o.scale <= 0.0 || o.kv_ops == 0 || o.max_cycles == 0) {
    usage("--scale, --kv-ops and --max-cycles must be positive");
  }
  if (o.prove && !o.trace_path.empty()) {
    usage("--prove and --traced exclude each other");
  }
  return o;
}

// ---- workloads -----------------------------------------------------------------

/// One simulation of a workload's run list.
struct Item {
  std::optional<stamp::AppId> app;  // nullopt: the sharded KV kernel
  std::string name;
  std::uint64_t input_seed = 0;
};

struct Workload {
  std::string name;
  sim::SimConfig cfg;
  std::vector<Item> items;
  std::size_t warmup_items = 0;  // leading items run once as the warm-up
  double scale = 1.0;
  std::uint64_t kv_ops = 0;
  bool sharded = false;
};

/// Every hook-gating field is set explicitly, so the SUVTM_CHECK /
/// SUVTM_TRACE / SUVTM_METRICS environment defaults never leak in.
sim::SimConfig base_config(sim::Scheme scheme, Cycle max_cycles) {
  sim::SimConfig cfg;  // paper Table III: 16 cores on a 4x4 mesh
  cfg.scheme = scheme;
  cfg.check.enabled = false;
  cfg.obs.trace = false;
  cfg.obs.metrics = false;
  cfg.max_cycles = max_cycles;
  return cfg;
}

Workload make_workload(const Options& o) {
  Workload w;
  w.name = o.workload;
  w.scale = o.scale;
  w.kv_ops = o.kv_ops;
  if (o.workload == "stamp_suv" || o.workload == "stamp_logtm") {
    w.cfg = base_config(o.workload == "stamp_logtm" ? sim::Scheme::kLogTmSe
                                                    : sim::Scheme::kSuv,
                        o.max_cycles);
    std::vector<std::uint64_t> inputs = {o.seed};
    inputs.insert(inputs.end(), std::begin(kCorpus), std::end(kCorpus));
    for (std::uint64_t input_seed : inputs) {
      for (stamp::AppId app : stamp::all_apps()) {
        w.items.push_back(Item{app, stamp::app_name(app), input_seed});
      }
    }
    w.warmup_items = stamp::all_apps().size();
  } else if (o.workload == "kv_sharded") {
    // 32 cores in 2 shards is a machine the checker passes; the 64-core,
    // 4-shard machine reports coherence violations (README.md). The
    // kernel's makespan moves by about 1% between seeds, so one seed is
    // enough. One host thread drives both shards through the same windows,
    // barrier and mailbox merges as two would: with two, the wall time
    // doubled whenever the shared host was busy (README.md), so the second
    // thread is compared only in the traced run's ABBA arms.
    w.cfg = base_config(sim::Scheme::kSuv, o.max_cycles);
    w.cfg.mem.num_cores = 32;
    w.cfg.pdes.shards = 2;
    w.cfg.pdes.host_threads = 1;
    w.items.push_back(Item{std::nullopt, "sharded_kv", o.seed});
    w.warmup_items = 1;
    w.sharded = true;
  } else {
    usage("unknown workload " + o.workload);
  }
  return w;
}

// ---- spans -----------------------------------------------------------------------

struct Span {
  const char* name;
  std::uint64_t sim_id;  // app x pass; 0 on pass spans
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::string args;  // extra pre-rendered JSON members, may be empty
};

/// In-memory span log, written out once at exit. Call sites hold a
/// SpanLog*; null means "not recording".
class SpanLog {
 public:
  void add(const char* name, std::uint64_t sim_id, Clock::time_point a,
           Clock::time_point b, std::string args = {}) {
    spans_.push_back(Span{name, sim_id, ns(a), ns(b), std::move(args)});
  }
  std::size_t size() const { return spans_.size(); }

  /// Chrome-trace JSON: one complete ("X") event per span on a single
  /// track, so nesting follows from the intervals. Times are whole
  /// nanoseconds written as microseconds, so a child's interval never
  /// pokes past its parent's through rounding.
  bool write(const std::string& path) const {
    std::ofstream f(path);
    if (!f) return false;
    f << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
         "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\","
         "\"args\":{\"name\":\"suvbench\"}}";
    char buf[96];
    for (const Span& s : spans_) {
      const std::int64_t dur = s.end_ns - s.start_ns;
      std::snprintf(buf, sizeof buf,
                    "\"ts\":%lld.%03lld,\"dur\":%lld.%03lld",
                    static_cast<long long>(s.start_ns / 1000),
                    static_cast<long long>(s.start_ns % 1000),
                    static_cast<long long>(dur / 1000),
                    static_cast<long long>(dur % 1000));
      f << ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"" << s.name
        << "\"," << buf << ",\"args\":{\"sim_id\":" << s.sim_id;
      if (!s.args.empty()) f << "," << s.args;
      f << "}}";
    }
    f << "\n]}\n";
    return static_cast<bool>(f);
  }

 private:
  std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

// ---- one simulation ----------------------------------------------------------------

struct SimSample {
  double construct_s = 0, build_s = 0, run_cpu_s = 0, run_wall_s = 0;
  double verify_s = 0, harvest_s = 0, obs_harvest_s = 0;
  runner::RunResult result;
  double shard_imbalance = 1.0;  // max / mean of per-domain events
  std::uint64_t audits_run = 0;
  std::string error;   // non-empty: the simulation failed
  bool wrong = false;  // ... and what it produced was wrong
};

/// Construct, build, run, verify and harvest one simulation. Only
/// Simulator::run sits inside the CPU and wall timers. Any exception
/// becomes `error`; a verify() failure or a CheckFailure (the checker's
/// finalize() runs inside Simulator::run) also marks the result wrong,
/// while a run that never finished, such as one over the cycle cap,
/// produced nothing to be wrong about.
SimSample run_one(const Workload& w, const Item& item,
                  const sim::SimConfig& cfg, SpanLog* spans,
                  std::uint64_t sim_id) {
  SimSample s;
  bool verifying = false;
  const Clock::time_point t_sim = Clock::now();
  try {
    const Clock::time_point t0 = Clock::now();
    sim::Simulator sim(cfg);
    const Clock::time_point t1 = Clock::now();
    std::unique_ptr<stamp::Workload> app;
    std::unique_ptr<stamp::ShardedKv> kv;
    if (item.app) {
      app = stamp::make_workload(*item.app);
      app->build(sim, stamp::SuiteParams{w.scale, item.input_seed});
    } else {
      stamp::ShardedKvParams p;
      p.ops_per_thread = w.kv_ops;
      p.seed = item.input_seed;
      kv = std::make_unique<stamp::ShardedKv>(p);
      kv->build(sim);
    }
    const Clock::time_point t2 = Clock::now();
    const double c0 = cpu_now();
    sim.run();
    const double c1 = cpu_now();
    const Clock::time_point t3 = Clock::now();
    verifying = true;
    if (app) {
      app->verify(sim);
    } else {
      kv->verify(sim);
    }
    const Clock::time_point t4 = Clock::now();
    verifying = false;
    s.result = runner::harvest_result(sim, item.name);
    const Clock::time_point t5 = Clock::now();

    s.construct_s = secs(t0, t1);
    s.build_s = secs(t1, t2);
    s.run_cpu_s = c1 - c0;
    s.run_wall_s = secs(t2, t3);
    s.verify_s = secs(t3, t4);
    s.harvest_s = secs(t4, t5);
    std::uint64_t max_events = 0;
    for (std::uint32_t d = 0; d < sim.num_domains(); ++d) {
      max_events = std::max(max_events, sim.scheduler(d).events_processed());
      if (const check::Checker* ck = sim.checker(d)) {
        s.audits_run += ck->audits_run();
      }
    }
    if (s.result.sim_events > 0) {
      s.shard_imbalance = static_cast<double>(max_events) *
                          sim.num_domains() /
                          static_cast<double>(s.result.sim_events);
    }
    if (spans != nullptr) {
      const Clock::time_point t6 = Clock::now();
      const obs::MetricsSnapshot m = sim.harvest_metrics();
      const Clock::time_point t7 = Clock::now();
      s.obs_harvest_s = secs(t6, t7);
      spans->add("sim.construct", sim_id, t0, t1);
      spans->add("stamp.build", sim_id, t1, t2);
      spans->add("sim.run", sim_id, t2, t3);
      spans->add("stamp.verify", sim_id, t3, t4);
      spans->add("runner.harvest", sim_id, t4, t5);
      spans->add("obs.harvest", sim_id, t6, t7,
                 "\"scalars\":" + std::to_string(m.scalars.size()));
    }
  } catch (const check::CheckFailure& e) {
    s.error = e.what();
    s.wrong = true;
  } catch (const std::exception& e) {
    s.error = e.what();
    s.wrong = verifying;
  }
  if (spans != nullptr) {
    spans->add("simulation", sim_id, t_sim, Clock::now(),
               "\"app\":\"" + item.name + "\",\"input_seed\":" +
                   std::to_string(item.input_seed));
  }
  return s;
}

// ---- passes --------------------------------------------------------------------------

struct Pass {
  double cpu_s = 0, wall_s = 0, setup_s = 0, construct_s = 0, build_s = 0;
  double verify_s = 0, harvest_s = 0, obs_harvest_s = 0, total_wall_s = 0;
  std::uint64_t audits_run = 0;
};

/// Reference results (the first run of each item), failure tally, and the
/// pass counter that numbers simulations in the span trace.
struct Ledger {
  const Workload* w = nullptr;
  std::uint64_t seed = 0;
  std::vector<std::optional<SimSample>> ref;
  std::vector<bool> dropped;  // failed once; left out of later passes
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t passes = 0;

  /// Count `s` as attempted, check it, and keep it as the reference if it
  /// is the item's first run. A failure is printed to stderr with
  /// workload, app, scheme and seed; a result that differs from the
  /// reference is wrong. `ignore_metrics` compares every RunResult field
  /// but the metrics snapshot, for arms that switch the metrics registry.
  void record(std::size_t i, const sim::SimConfig& cfg, SimSample s,
              bool ignore_metrics) {
    ++attempted;
    std::string why = s.error;
    bool bad = s.wrong;
    if (why.empty() && ref[i]) {
      const runner::RunResult& r = ref[i]->result;
      runner::RunResult got = s.result;
      if (ignore_metrics) got.metrics = r.metrics;
      bad = !(got == r);
      if (got.makespan != r.makespan || got.sim_events != r.sim_events) {
        why = "makespan/events differ from the first run";
      } else if (bad) {
        why = "RunResult differs from the first run";
      }
    }
    if (!why.empty()) {
      ++failed;
      if (bad) ++wrong;
      dropped[i] = true;
      std::fprintf(stderr,
                   "FAIL workload=%s app=%s scheme=%s seed=%llu "
                   "input_seed=%llu pass=%llu: %s\n",
                   w->name.c_str(), w->items[i].name.c_str(),
                   sim::scheme_name(cfg.scheme),
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(w->items[i].input_seed),
                   static_cast<unsigned long long>(passes), why.c_str());
      return;
    }
    if (!ref[i]) ref[i] = std::move(s);
  }

  /// Whether any simulation is still left to run.
  bool live() const {
    return std::find(dropped.begin(), dropped.end(), false) != dropped.end();
  }
};

/// Run items [first, last) once under `cfg`.
Pass run_items(Ledger& led, std::size_t first, std::size_t last,
               const sim::SimConfig& cfg, SpanLog* spans,
               const std::string& label, bool ignore_metrics) {
  Pass p;
  const std::uint64_t pass_no = ++led.passes;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = first; i < last; ++i) {
    if (led.dropped[i]) continue;
    SimSample s = run_one(*led.w, led.w->items[i], cfg, spans,
                          pass_no * 1000 + i + 1);
    p.cpu_s += s.run_cpu_s;
    p.wall_s += s.run_wall_s;
    p.construct_s += s.construct_s;
    p.build_s += s.build_s;
    p.setup_s += s.construct_s + s.build_s;
    p.verify_s += s.verify_s;
    p.harvest_s += s.harvest_s;
    p.obs_harvest_s += s.obs_harvest_s;
    p.audits_run += s.audits_run;
    led.record(i, cfg, std::move(s), ignore_metrics);
  }
  const Clock::time_point t1 = Clock::now();
  p.total_wall_s = secs(t0, t1);
  if (spans != nullptr) {
    spans->add("pass", 0, t0, t1,
               "\"pass\":" + std::to_string(pass_no) + ",\"label\":\"" +
                   label + "\"");
  }
  return p;
}

// ---- fingerprint -------------------------------------------------------------------

/// FNV-1a over every RunResult field. The stats blocks are hashed as their
/// object bytes, which the static_assert proves padding-free, so a field
/// added to any of them is covered without touching this class.
class Fingerprint {
 public:
  void result(const runner::RunResult& r) {
    str(r.app);
    pod(static_cast<std::uint32_t>(r.scheme));
    pod(r.makespan);
    pod(r.sim_events);
    pod(r.breakdown);
    pod(r.htm);
    pod(r.conflicts);
    pod(r.vm);
    pod(r.mem);
    pod(static_cast<std::uint8_t>(r.has_suv));
    pod(r.table);
    pod(r.suv);
    pod(r.pool_lines_in_use);
    pod(static_cast<std::uint64_t>(r.redirect_entries_live));
    pod(static_cast<std::uint8_t>(r.has_dyntm));
    pod(r.dyntm);
    for (const auto& [name, v] : r.metrics.scalars) {
      str(name);
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      pod(bits);
    }
    for (const auto& h : r.metrics.histograms) {
      str(h.name);
      pod(h.data);
      pod(static_cast<std::uint8_t>(h.linear));
    }
    for (const auto& s : r.metrics.series) {
      str(s.name);
      for (const auto& pt : s.points) {
        pod(pt.t);
        pod(pt.v);
      }
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ull;
  }
  template <class T>
  void pod(const T& v) {
    static_assert(std::has_unique_object_representations_v<T>,
                  "hashing object bytes needs a padding-free type");
    bytes(&v, sizeof v);
  }
  void str(const std::string& s) {
    pod(s.size());
    bytes(s.data(), s.size());
  }

  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// ---- JSON output ---------------------------------------------------------------------

/// Minimal streaming writer; keys and strings written here are plain ASCII
/// names, so escaping covers only quotes and backslashes.
class Json {
 public:
  Json& key(const std::string& k) {
    sep();
    out_ += '"' + k + "\":";
    fresh_ = true;
    return *this;
  }
  void num(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    sep();
    out_ += buf;
  }
  void u64(std::uint64_t v) {
    sep();
    out_ += std::to_string(v);
  }
  void str(const std::string& s) {
    sep();
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += c;
    }
    out_ += '"';
  }
  void open(char c) {
    sep();
    out_ += c;
    fresh_ = true;
  }
  void close(char c) {
    out_ += c;
    fresh_ = false;
  }
  const std::string& text() const { return out_; }

 private:
  void sep() {
    if (!fresh_) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

/// Exact counters of one pass: the reference RunResults, summed.
void emit_counters(Json& j, const Ledger& led) {
  runner::RunResult t;
  double imbalance = 1.0;
  Fingerprint fp;
  for (const auto& s : led.ref) {
    if (!s) continue;  // the item never succeeded; already counted failed
    const runner::RunResult& r = s->result;
    fp.result(r);
    t.makespan += r.makespan;
    t.sim_events += r.sim_events;
    t.breakdown += r.breakdown;
    htm::accumulate(t.htm, r.htm);
    htm::accumulate(t.conflicts, r.conflicts);
    htm::accumulate(t.vm, r.vm);
    mem::accumulate(t.mem, r.mem);
    suv::accumulate(t.table, r.table);
    vm::accumulate(t.suv, r.suv);
    imbalance = std::max(imbalance, s->shard_imbalance);
  }
  j.key("result_fingerprint").str(fp.hex());
  j.key("counters").open('{');
  const auto put = [&j](const std::string& k, std::uint64_t v) {
    j.key(k).u64(v);
  };
  put("makespan", t.makespan);
  put("events", t.sim_events);
  for (std::size_t b = 0; b < sim::kNumBuckets; ++b) {
    const auto bucket = static_cast<sim::Bucket>(b);
    std::string name = sim::bucket_name(bucket);
    for (char& ch : name) {
      ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    }
    put("breakdown." + name, t.breakdown.get(bucket));
  }
  put("mem.l1_hits", t.mem.l1_hits);
  put("mem.l1_misses", t.mem.l1_misses);
  put("mem.l2_hits", t.mem.l2_hits);
  put("mem.l2_misses", t.mem.l2_misses);
  put("mem.forwards", t.mem.forwards);
  put("mem.invalidations", t.mem.invalidations);
  put("mem.spec_evictions", t.mem.spec_evictions);
  put("htm.commits", t.htm.commits);
  put("htm.aborts", t.htm.aborts);
  put("htm.overflowed_attempts", t.htm.overflowed_attempts);
  put("htm.conflicts", t.conflicts.conflicts);
  put("htm.false_conflicts", t.conflicts.false_conflicts);
  put("htm.deadlock_aborts", t.conflicts.deadlock_aborts);
  put("vm.tx_loads", t.vm.tx_loads);
  put("vm.tx_stores", t.vm.tx_stores);
  put("vm.log_entries", t.vm.log_entries);
  put("vm.spec_overflows", t.vm.spec_overflows);
  put("vm.degenerations", t.vm.degenerations);
  put("suv.lookups", t.table.lookups);
  put("suv.summary_filtered", t.table.summary_filtered);
  put("suv.false_filter_hits", t.table.false_filter_hits);
  put("suv.table_l1_hits", t.table.l1_hits);
  put("suv.table_l1_misses", t.table.l1_misses);
  put("suv.misspeculations", t.table.misspeculations);
  put("suv.l1_overflow_entries", t.table.l1_overflow_entries);
  put("suv.entries_created", t.suv.entries_created);
  j.key("shard_event_imbalance").num(imbalance);
  j.close('}');
}

void emit_samples(Json& j, const char* k, const std::vector<Pass>& ps,
                  double Pass::*field) {
  j.key(k).open('[');
  for (const Pass& p : ps) j.num(p.*field);
  j.close(']');
}


double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- the two runs ------------------------------------------------------------------

/// One side of an ABBA comparison.
struct Arm {
  std::string name;  // "<variant>/A" (switched on) or "<variant>/B" (off)
  sim::SimConfig cfg;
  bool spans;
};

std::vector<Arm> traced_arms(const Workload& w) {
  std::vector<Arm> arms;
  const auto pair = [&](const char* variant, sim::SimConfig on,
                        sim::SimConfig off, bool spans_off) {
    arms.push_back(Arm{std::string(variant) + "/A", on, true});
    arms.push_back(Arm{std::string(variant) + "/B", off, !spans_off});
  };
  pair("span", w.cfg, w.cfg, /*spans_off=*/true);
  sim::SimConfig on = w.cfg, off = w.cfg;
  on.check.enabled = true;
  off.check.enabled = false;
  pair("check", on, off, false);
  on = off = w.cfg;
  on.obs.metrics = true;
  off.obs.metrics = false;
  pair("obs", on, off, false);
  if (w.sharded) {
    on = off = w.cfg;
    on.pdes.host_threads = 2;
    off.pdes.host_threads = 1;
    pair("pdes", on, off, false);
  }
  return arms;
}

int main_impl(const Options& o) {
  const Workload w = make_workload(o);
  Ledger led;
  led.w = &w;
  led.seed = o.seed;
  led.ref.resize(w.items.size());
  led.dropped.resize(w.items.size());
  const std::size_t n = w.items.size();

  Json j;
  j.open('{');
  j.key("workload").str(w.name);
  j.key("seed").u64(o.seed);
  j.key("simulations_per_pass").u64(n);

  if (!o.prove) {
    run_items(led, 0, w.warmup_items, w.cfg, nullptr, "warm-up", false);
  }
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(o.seconds));
  if (o.prove) {
    // One pass with the checker on must pass verify() and the checker's
    // finalize() for every simulation.
    sim::SimConfig checked = w.cfg;
    checked.check.enabled = true;
    const Pass proof = run_items(led, 0, n, checked, nullptr, "proof", false);
    j.key("audits_run").u64(proof.audits_run);
  } else if (o.trace_path.empty()) {
    std::vector<Pass> passes;
    do {
      passes.push_back(run_items(led, 0, n, w.cfg, nullptr, "timed", false));
    } while (led.live() &&
             (passes.size() < kMinPasses || Clock::now() < deadline));
    emit_counters(j, led);
    j.key("passes").u64(passes.size());
    emit_samples(j, "pass_cpu_s", passes, &Pass::cpu_s);
    emit_samples(j, "pass_wall_s", passes, &Pass::wall_s);
    emit_samples(j, "setup_s", passes, &Pass::setup_s);
  } else {
    // Whole ABBA blocks, one variant after another, until the deadline.
    SpanLog spans;
    const std::vector<Arm> arms = traced_arms(w);
    std::vector<std::vector<Pass>> by_arm(arms.size());
    std::uint64_t blocks = 0;
    do {
      for (std::size_t v = 0; v < arms.size(); v += 2) {
        for (std::size_t a : {v, v + 1, v + 1, v}) {
          by_arm[a].push_back(run_items(led, 0, n, arms[a].cfg,
                                        arms[a].spans ? &spans : nullptr,
                                        arms[a].name, true));
        }
      }
      ++blocks;
    } while (led.live() && Clock::now() < deadline);

    emit_counters(j, led);
    j.key("abba_blocks").u64(blocks);
    j.key("arms").open('{');
    for (std::size_t a = 0; a < arms.size(); ++a) {
      j.key(arms[a].name).open('{');
      emit_samples(j, "pass_cpu_s", by_arm[a], &Pass::cpu_s);
      emit_samples(j, "pass_wall_s", by_arm[a], &Pass::wall_s);
      emit_samples(j, "total_wall_s", by_arm[a], &Pass::total_wall_s);
      emit_samples(j, "construct_s", by_arm[a], &Pass::construct_s);
      emit_samples(j, "build_s", by_arm[a], &Pass::build_s);
      emit_samples(j, "verify_s", by_arm[a], &Pass::verify_s);
      emit_samples(j, "harvest_s", by_arm[a], &Pass::harvest_s);
      emit_samples(j, "obs_harvest_s", by_arm[a], &Pass::obs_harvest_s);
      j.key("audits_run").u64(by_arm[a].front().audits_run);
      j.close('}');
    }
    j.close('}');
    j.key("spans").u64(spans.size());
    if (!spans.write(o.trace_path)) {
      std::fprintf(stderr, "suvbench: cannot write %s\n",
                   o.trace_path.c_str());
      return 1;
    }
  }
  j.key("attempted").u64(led.attempted);
  j.key("failed").u64(led.failed);
  j.key("wrong").u64(led.wrong);
  j.key("peak_rss_mb").num(peak_rss_mb());
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    return main_impl(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "suvbench: %s\n", e.what());
    return 1;
  }
}
