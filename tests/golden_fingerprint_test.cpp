// Golden result fingerprints: every scheme x STAMP app at a small scale,
// plus one sharded machine, each hashed over every RunResult field and
// compared with a committed constant. The determinism tests compare runs
// with each other; this one compares them with a reference, so a refactor
// that claims "same simulated behaviour" is proved rather than asserted.
//
// Metrics and tracing are off: the metrics snapshot is a report, not
// simulated behaviour, and its key set may change without any run moving.
// An intended behaviour change updates the table below (the failure message
// prints the new row) and is explained in CHANGES.md.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "runner/experiment.hpp"
#include "sim/simulator.hpp"
#include "stamp/framework.hpp"
#include "stamp/sharded_kv.hpp"

namespace suvtm {
namespace {

/// FNV-1a over every RunResult field. Stats blocks are hashed as their
/// object bytes (padding-free, checked at compile time), so a field added to
/// any of them moves the hash.
class Fnv1a {
 public:
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
  std::uint64_t value() const { return h_; }

 private:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h_ = (h_ ^ b[i]) * 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t fingerprint(const runner::RunResult& r) {
  Fnv1a f;
  f.str(r.app);
  f.pod(static_cast<std::uint32_t>(r.scheme));
  f.pod(r.makespan);
  f.pod(r.sim_events);
  f.pod(r.breakdown);
  f.pod(r.htm);
  f.pod(r.conflicts);
  f.pod(r.vm);
  f.pod(r.mem);
  f.pod(static_cast<std::uint8_t>(r.has_suv));
  f.pod(r.table);
  f.pod(r.suv);
  f.pod(r.pool_lines_in_use);
  f.pod(static_cast<std::uint64_t>(r.redirect_entries_live));
  f.pod(static_cast<std::uint8_t>(r.has_dyntm));
  f.pod(r.dyntm);
  return f.value();
}

/// Every hook-gating field set explicitly, so SUVTM_CHECK / SUVTM_TRACE /
/// SUVTM_METRICS in the environment cannot leak into the reference runs.
sim::SimConfig quiet_config(sim::Scheme scheme) {
  sim::SimConfig cfg;
  cfg.scheme = scheme;
  cfg.check.enabled = false;
  cfg.obs.trace = false;
  cfg.obs.metrics = false;
  return cfg;
}

struct Golden {
  const char* scheme;  // sim::scheme_cli_name
  const char* app;
  std::uint64_t hash;
};

// STAMP suite at scale 0.1 under the default (paper Table III) machine.
constexpr Golden kStamp[] = {
    {"logtm", "bayes", 0x8bcd51f321a87803ull},
    {"logtm", "genome", 0xec517834f1bc6043ull},
    {"logtm", "intruder", 0x90e47012d3ab604bull},
    {"logtm", "kmeans", 0xb2e9fcad03fac969ull},
    {"logtm", "labyrinth", 0xf262c3316f76154bull},
    {"logtm", "ssca2", 0xc17902b321170631ull},
    {"logtm", "vacation", 0xadf5813b8bddcab5ull},
    {"logtm", "yada", 0xefc02faa11ee2766ull},
    {"fastm", "bayes", 0xcf6f6d1501574ef2ull},
    {"fastm", "genome", 0x15019e0a9007a303ull},
    {"fastm", "intruder", 0xbc9976a3befdcbd0ull},
    {"fastm", "kmeans", 0x76425708f6a089baull},
    {"fastm", "labyrinth", 0x57168991c8106b47ull},
    {"fastm", "ssca2", 0xc8753935730f1f31ull},
    {"fastm", "vacation", 0x168ebb337d677a87ull},
    {"fastm", "yada", 0x2119e76848820b9eull},
    {"suv", "bayes", 0x1669a867cf1cdbe8ull},
    {"suv", "genome", 0xcdff6e10daf0b771ull},
    {"suv", "intruder", 0x51fe661da797c153ull},
    {"suv", "kmeans", 0x748f12d658e011f7ull},
    {"suv", "labyrinth", 0x8d3673e22796df05ull},
    {"suv", "ssca2", 0x64890a9c2c61fce6ull},
    {"suv", "vacation", 0x00773a52023b00b2ull},
    {"suv", "yada", 0x9a2ca56d7b5289b6ull},
    {"dyntm", "bayes", 0x3c54161e7e48e525ull},
    {"dyntm", "genome", 0xced716cb5e793efaull},
    {"dyntm", "intruder", 0x8f2c5ff375aa56b2ull},
    {"dyntm", "kmeans", 0x965f4e242cf204faull},
    {"dyntm", "labyrinth", 0x9915484ed680308dull},
    {"dyntm", "ssca2", 0x1b42031598d0fd69ull},
    {"dyntm", "vacation", 0xc1fa8d71b02c23f4ull},
    {"dyntm", "yada", 0xfc4b5431b699c02bull},
    {"dyntm-suv", "bayes", 0xdf5c4ea1b38c3aaeull},
    {"dyntm-suv", "genome", 0x32806017d7b2f1b4ull},
    {"dyntm-suv", "intruder", 0x5cf0e2ef3ff7cdd7ull},
    {"dyntm-suv", "kmeans", 0xa998b1b5d6706a63ull},
    {"dyntm-suv", "labyrinth", 0x4c532706252b90aaull},
    {"dyntm-suv", "ssca2", 0xd2f950ab4531be4eull},
    {"dyntm-suv", "vacation", 0x6f46db9c4b0aed66ull},
    {"dyntm-suv", "yada", 0x1508be1db4774205ull},
};

// The benchmark's contended inputs at full scale (scale 1.0, input seed
// 42): stalls are about half of all simulated cycles here, so these rows
// pin the NACK-retry path far harder than the scale-0.1 table above.
constexpr Golden kContended[] = {
    {"logtm", "bayes", 0xf9021a7ecd3684f4ull},
    {"logtm", "intruder", 0x5a4b47c330e25e98ull},
    {"logtm", "labyrinth", 0x1b05c325ede69f58ull},
    {"logtm", "yada", 0xd4cbd4fa61cdd17full},
    {"suv", "bayes", 0xfac3f36f10c7f7c1ull},
    {"suv", "intruder", 0x6dbdff64abba79a6ull},
    {"suv", "labyrinth", 0xd2584991a4fb05dbull},
    {"suv", "yada", 0x4a3a69cde42f4875ull},
};

// Configurations whose stall retries stay one scheduler event per poll:
// SUV-TM bayes under the requester-wins policy and DynTM-SUV intruder, both
// at scale 1.0.
constexpr std::uint64_t kSuvBayesRequesterWins = 0xe9a6da75ad09ea8bull;
constexpr std::uint64_t kDynTmSuvIntruder = 0xe7b4d21da3b6b503ull;

// sharded_kv on a 32-core, 2-shard SUV machine.
constexpr std::uint64_t kShardedKv = 0xe132898a3740ea69ull;

std::string row(const runner::RunResult& r, std::uint64_t h) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "{\"%s\", \"%s\", 0x%016llxull},",
                sim::scheme_cli_name(r.scheme), r.app.c_str(),
                static_cast<unsigned long long>(h));
  return buf;
}

TEST(GoldenFingerprintTest, StampSuiteMatchesReference) {
  stamp::SuiteParams params;
  params.scale = 0.1;
  std::vector<runner::RunPoint> points;
  for (sim::Scheme s : sim::all_schemes()) {
    for (stamp::AppId app : stamp::all_apps()) {
      points.push_back(runner::RunPoint{app, quiet_config(s), params});
    }
  }
  runner::ParallelExecutor pool(2);
  const std::vector<runner::RunResult> results =
      runner::run_matrix(points, pool);
  ASSERT_EQ(results.size(), std::size(kStamp));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const runner::RunResult& r = results[i];
    const std::uint64_t h = fingerprint(r);
    EXPECT_STREQ(sim::scheme_cli_name(r.scheme), kStamp[i].scheme);
    EXPECT_EQ(r.app, kStamp[i].app);
    EXPECT_EQ(h, kStamp[i].hash) << "now: " << row(r, h);
  }
}

TEST(GoldenFingerprintTest, ContendedInputsMatchReference) {
  stamp::SuiteParams params;  // scale 1.0, input seed 42
  std::vector<runner::RunPoint> points;
  for (const Golden& g : kContended) {
    sim::Scheme s{};
    ASSERT_TRUE(sim::scheme_from_string(g.scheme, &s));
    const auto& apps = stamp::all_apps();
    const auto app = std::find_if(apps.begin(), apps.end(), [&](auto a) {
      return std::string(stamp::app_name(a)) == g.app;
    });
    ASSERT_NE(app, apps.end()) << g.app;
    points.push_back(runner::RunPoint{*app, quiet_config(s), params});
  }
  sim::SimConfig wins = quiet_config(sim::Scheme::kSuv);
  wins.htm.conflict_policy = sim::ConflictPolicy::kRequesterWins;
  points.push_back(runner::RunPoint{stamp::AppId::kBayes, wins, params});
  points.push_back(runner::RunPoint{
      stamp::AppId::kIntruder, quiet_config(sim::Scheme::kDynTmSuv), params});

  runner::ParallelExecutor pool(2);
  const std::vector<runner::RunResult> results =
      runner::run_matrix(points, pool);
  ASSERT_EQ(results.size(), std::size(kContended) + 2);
  for (std::size_t i = 0; i < std::size(kContended); ++i) {
    const std::uint64_t h = fingerprint(results[i]);
    EXPECT_EQ(results[i].app, kContended[i].app);
    EXPECT_EQ(h, kContended[i].hash) << "now: " << row(results[i], h);
  }
  const std::uint64_t wins_h = fingerprint(results[std::size(kContended)]);
  EXPECT_EQ(wins_h, kSuvBayesRequesterWins)
      << "now (requester-wins): " << row(results[std::size(kContended)], wins_h);
  const runner::RunResult& dyn = results[std::size(kContended) + 1];
  const std::uint64_t dyn_h = fingerprint(dyn);
  EXPECT_EQ(dyn_h, kDynTmSuvIntruder) << "now: " << row(dyn, dyn_h);
}

TEST(GoldenFingerprintTest, ShardedKvMatchesReference) {
  sim::SimConfig cfg = quiet_config(sim::Scheme::kSuv);
  cfg.mem.num_cores = 32;
  cfg.pdes.shards = 2;
  cfg.pdes.host_threads = 1;
  stamp::ShardedKvParams p;
  p.ops_per_thread = 64;
  p.seed = 42;
  sim::Simulator sim(cfg);
  stamp::ShardedKv wl(p);
  wl.build(sim);
  sim.run();
  wl.verify(sim);
  const runner::RunResult r = runner::harvest_result(sim, "sharded_kv");
  const std::uint64_t h = fingerprint(r);
  EXPECT_EQ(h, kShardedKv) << "now: " << row(r, h);
}

}  // namespace
}  // namespace suvtm
