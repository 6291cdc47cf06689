// Config fuzzer: checks that sim::validate is complete. Each fixed seed
// draws a SimConfig from small domains that include 0, values that are not
// powers of two and capacity-starved machines (1-2 KB L1s, 4-entry redirect
// tables, 64-bit signatures, one hash), then runs all five schemes on
// kmeans at a tiny scale with the checker on. A run may end in exactly one
// of three ways:
//   * the Simulator constructor throws std::invalid_argument (refused);
//   * it finishes, the checker passes and the workload verifies (clean);
//   * it hits max_cycles (overrun; counted and printed, since proving
//     progress is the job of a progress watchdog, not of the validator).
// Anything else -- a signal, an assert, a CheckFailure, a failed workload
// verification -- fails the test. Seeds that once failed are kept as named
// regression cases below the sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "sim/config.hpp"
#include "sim/simulator.hpp"
#include "stamp/framework.hpp"

namespace suvtm {
namespace {

enum class Outcome { kRefused, kClean, kOverrun };

/// Simulated-cycle cap per run: SUV-TM kmeans at this scale ends near 21K
/// cycles on the default machine; 25x leaves room for starved ones.
constexpr Cycle kMaxCycles = 500'000;
constexpr double kScale = 0.05;

/// Pick one of `values`, uniformly.
template <class T>
T pick(Rng& rng, std::initializer_list<T> values) {
  return *(values.begin() + rng.below(values.size()));
}

/// Mostly a value from `common` (valid, often tiny); with probability 1/16
/// a value from `edge` (0, non-powers of two, out of range).
template <class T>
T draw(Rng& rng, std::initializer_list<T> common, std::initializer_list<T> edge) {
  return edge.size() != 0 && rng.below(16) == 0 ? pick(rng, edge)
                                                 : pick(rng, common);
}

sim::SimConfig draw_config(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  using U = std::uint32_t;
  using C = Cycle;
  sim::SimConfig c;
  sim::MemParams& m = c.mem;
  m.num_cores = draw<U>(rng, {1, 2, 3, 4, 8, 16}, {0, 33});
  m.mesh_dim = draw<U>(rng, {1, 2, 3, 4}, {0});
  m.l1_bytes = draw<U>(rng, {1024, 2048, 4096, 32768}, {0, 1000, 1100});
  m.l1_assoc = draw<U>(rng, {1, 2, 4, 8}, {0, 3});
  m.l1_latency = draw<C>(rng, {1, 3}, {0});
  m.l2_bytes = draw<U>(rng, {4096, 16384, 65536, 1u << 20}, {0, 3000});
  m.l2_assoc = draw<U>(rng, {1, 2, 8, 16}, {0, 3});
  m.l2_latency = draw<C>(rng, {0, 1, 15}, {});
  m.directory_latency = draw<C>(rng, {0, 6}, {});
  m.memory_latency = draw<C>(rng, {0, 1, 150}, {});
  m.mesh_wire_latency = draw<C>(rng, {0, 1, 2}, {});
  m.mesh_route_latency = draw<C>(rng, {0, 1}, {});
  m.tlb_entries = draw<U>(rng, {1, 2, 64}, {0});
  m.tlb_miss_latency = draw<C>(rng, {0, 30}, {});

  sim::HtmParams& h = c.htm;
  h.signature_bits = draw<U>(rng, {1, 64, 256, 2048}, {0, 100});
  h.signature_hashes = draw<U>(rng, {1, 2, 8}, {0, 9});
  h.conflict_policy = pick(rng, {sim::ConflictPolicy::kRequesterStalls,
                                 sim::ConflictPolicy::kRequesterWins});
  h.stall_retry_interval = draw<C>(rng, {1, 3, 20}, {0});
  h.backoff_base = draw<C>(rng, {1, 7, 40}, {0});
  h.backoff_cap = draw<C>(rng, {0, 1, 100, 4096}, {});
  for (C* cost : {&h.checkpoint_latency, &h.log_store_extra,
                  &h.log_new_line_extra, &h.abort_trap_latency,
                  &h.abort_per_entry, &h.fastm_writeback_extra,
                  &h.fastm_begin_extra, &h.fastm_flash_abort,
                  &h.fastm_flash_commit, &h.dyntm_arbitration,
                  &h.dyntm_publish_per_line, &h.dyntm_lazy_abort}) {
    *cost = draw<C>(rng, {0, 1, 7, 200}, {});
  }
  h.dyntm_selector_bits = draw<U>(rng, {1, 2, 8}, {0, 9, 70});

  sim::SuvParams& s = c.suv;
  s.l1_table_entries = draw<U>(rng, {1, 4, 64, 512}, {0});
  s.l1_table_latency = draw<C>(rng, {0, 1}, {});
  s.l2_table_assoc = draw<U>(rng, {1, 2, 4, 8}, {0, 3});
  s.l2_table_entries = draw<U>(rng, {8, 16, 64, 16384}, {0, 12});
  s.l2_table_latency = draw<C>(rng, {0, 10}, {});
  s.misspeculation_penalty = draw<C>(rng, {0, 100}, {});
  s.summary_signature_bits = draw<U>(rng, {1, 64, 2048}, {0, 100});
  s.summary_signature_hashes = draw<U>(rng, {1, 2, 8}, {0, 9});
  for (C* cost : {&s.redirect_copy_latency, &s.flash_commit, &s.flash_abort}) {
    *cost = draw<C>(rng, {0, 1, 2}, {});
  }

  // kmeans is not built for a partitioned machine, so only the monolithic
  // machine runs; 0 shards and 0 host threads must still be refused.
  c.pdes.shards = draw<U>(rng, {1}, {0});
  c.pdes.host_threads = draw<U>(rng, {1, 2}, {0});

  c.check.enabled = true;
  c.check.audit_period = 1;
  c.obs.metrics = false;
  c.obs.trace = false;
  c.seed = seed;
  c.max_cycles = kMaxCycles;
  return c;
}

Outcome run_kmeans(const sim::SimConfig& cfg, std::uint64_t seed) {
  std::unique_ptr<sim::Simulator> sim;
  try {
    sim = std::make_unique<sim::Simulator>(cfg);
  } catch (const std::invalid_argument&) {
    return Outcome::kRefused;
  }
  auto workload = stamp::make_workload(stamp::AppId::kKmeans);
  workload->build(*sim, stamp::SuiteParams{kScale, seed});
  try {
    sim->run();
  } catch (const std::runtime_error& e) {
    if (std::string(e.what()) == "simulation exceeded max_cycles limit") {
      return Outcome::kOverrun;
    }
    throw;
  }
  workload->verify(*sim);
  return Outcome::kClean;
}

struct Tally {
  int refused = 0;
  int clean = 0;
  int overrun = 0;
};

/// Run `cfg` under every scheme; a failure names the seed and the scheme.
void fuzz_one(sim::SimConfig cfg, std::uint64_t seed, Tally& tally) {
  for (sim::Scheme scheme : sim::all_schemes()) {
    cfg.scheme = scheme;
    try {
      switch (run_kmeans(cfg, seed)) {
        case Outcome::kRefused: ++tally.refused; break;
        case Outcome::kClean: ++tally.clean; break;
        case Outcome::kOverrun:
          ++tally.overrun;
          std::printf("overrun: seed %llu, %s\n",
                      static_cast<unsigned long long>(seed),
                      sim::scheme_name(scheme));
          break;
      }
    } catch (const std::exception& e) {
      ADD_FAILURE() << "seed " << seed << ", " << sim::scheme_name(scheme)
                    << ": " << e.what();
    }
  }
}

TEST(ConfigFuzzTest, EveryDrawnConfigIsRefusedOrRuns) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    fuzz_one(draw_config(seed), seed, tally);
  }
  std::printf("config fuzz: %d refused, %d clean, %d overrun\n",
              tally.refused, tally.clean, tally.overrun);
  // The sweep must exercise both sides of the validator.
  EXPECT_GT(tally.refused, 0);
  EXPECT_GT(tally.clean, 0);
}

// Regression found by the sweep: a DynTM machine with zero-cycle L1 hits,
// directory and mesh hops. An eager transaction read a line in the cycle a
// lazy committer published it and began its own commit in that same cycle;
// the checker orders an eager commit start before a same-cycle lazy
// publish and reported a serializability violation. Every access must now
// take at least one cycle, so the config is refused; one cycle runs clean.
TEST(ConfigFuzzRegression, ZeroCycleAccessesRefused) {
  sim::SimConfig cfg;
  cfg.scheme = sim::Scheme::kDynTm;
  cfg.mem.num_cores = 4;
  cfg.mem.l1_latency = 0;
  cfg.mem.directory_latency = 0;
  cfg.mem.mesh_wire_latency = 0;
  cfg.mem.mesh_route_latency = 0;
  cfg.htm.stall_retry_interval = 1;
  cfg.htm.dyntm_lazy_abort = 0;
  cfg.check.enabled = true;
  cfg.seed = 89;
  cfg.max_cycles = kMaxCycles;
  EXPECT_EQ(run_kmeans(cfg, 89), Outcome::kRefused);
  cfg.mem.l1_latency = 1;
  EXPECT_EQ(run_kmeans(cfg, 89), Outcome::kClean);
}

}  // namespace
}  // namespace suvtm
