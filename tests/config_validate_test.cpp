// sim::validate is the one place that decides whether a SimConfig can run.
// Every rule gets a case here: a config that breaks it must throw
// std::invalid_argument from the Simulator constructor, and the message
// must start with the offending field's path. Every config the repository
// itself builds must pass.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "sim/config.hpp"
#include "sim/simulator.hpp"

namespace suvtm {
namespace {

using Mutate = std::function<void(sim::SimConfig&)>;

/// Build a Simulator from the defaults changed by `mutate`; it must throw
/// std::invalid_argument whose message starts with `field`.
void expect_rejected(const Mutate& mutate, const std::string& field) {
  sim::SimConfig cfg;
  cfg.check.enabled = false;
  mutate(cfg);
  try {
    sim::Simulator sim(cfg);
    ADD_FAILURE() << field << ": config was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind(field, 0), 0u)
        << "expected the message to start with " << field << ", got: "
        << e.what();
  }
}

TEST(ConfigValidateTest, CoreCountWithinSharerMask) {
  expect_rejected([](auto& c) { c.mem.num_cores = 0; }, "mem.num_cores");
  expect_rejected([](auto& c) { c.mem.num_cores = 33; }, "mem.num_cores");
}

TEST(ConfigValidateTest, MeshNeedsAtLeastOneTile) {
  expect_rejected([](auto& c) { c.mem.mesh_dim = 0; }, "mem.mesh_dim");
  expect_rejected([](auto& c) { c.mem.mesh_dim = 65536; }, "mem.mesh_dim");
}

TEST(ConfigValidateTest, CachesNeedPowerOfTwoSets) {
  expect_rejected([](auto& c) { c.mem.l1_assoc = 3; }, "mem.l1_assoc");
  expect_rejected([](auto& c) { c.mem.l1_assoc = 0; }, "mem.l1_assoc");
  expect_rejected([](auto& c) { c.mem.l1_bytes = 1000; }, "mem.l1_bytes");
  // A power-of-two set count that does not fill the capacity exactly.
  expect_rejected([](auto& c) { c.mem.l1_bytes = 1100; }, "mem.l1_bytes");
  // Fewer bytes than one set of ways.
  expect_rejected([](auto& c) { c.mem.l1_bytes = 128; }, "mem.l1_assoc");
  expect_rejected([](auto& c) { c.mem.l2_assoc = 3; }, "mem.l2_assoc");
  expect_rejected([](auto& c) { c.mem.l2_bytes = 0; }, "mem.l2_bytes");
}

// The checker's same-cycle commit order needs every access to take a
// cycle (see ConfigFuzzRegression.ZeroCycleAccessesRefused).
TEST(ConfigValidateTest, AccessesTakeAtLeastOneCycle) {
  expect_rejected([](auto& c) { c.mem.l1_latency = 0; }, "mem.l1_latency");
}

TEST(ConfigValidateTest, TlbNeedsAnEntry) {
  expect_rejected([](auto& c) { c.mem.tlb_entries = 0; }, "mem.tlb_entries");
}

TEST(ConfigValidateTest, SignaturesArePowerOfTwoWithOneToEightHashes) {
  expect_rejected([](auto& c) { c.htm.signature_bits = 100; },
                  "htm.signature_bits");
  expect_rejected([](auto& c) { c.htm.signature_bits = 0; },
                  "htm.signature_bits");
  expect_rejected([](auto& c) { c.htm.signature_hashes = 0; },
                  "htm.signature_hashes");
  expect_rejected([](auto& c) { c.htm.signature_hashes = 9; },
                  "htm.signature_hashes");
  expect_rejected([](auto& c) { c.suv.summary_signature_bits = 100; },
                  "suv.summary_signature_bits");
  expect_rejected([](auto& c) { c.suv.summary_signature_hashes = 0; },
                  "suv.summary_signature_hashes");
  expect_rejected([](auto& c) { c.suv.summary_signature_hashes = 9; },
                  "suv.summary_signature_hashes");
}

TEST(ConfigValidateTest, StallAndBackoffMustAdvanceTime) {
  expect_rejected([](auto& c) { c.htm.stall_retry_interval = 0; },
                  "htm.stall_retry_interval");
  // backoff_base = 0 livelocks SUV-TM kmeans: an aborted transaction
  // restarts in the same cycle and re-forms the same conflict.
  expect_rejected([](auto& c) { c.htm.backoff_base = 0; },
                  "htm.backoff_base");
}

TEST(ConfigValidateTest, SelectorCounterFitsAByte) {
  expect_rejected([](auto& c) { c.htm.dyntm_selector_bits = 0; },
                  "htm.dyntm_selector_bits");
  expect_rejected([](auto& c) { c.htm.dyntm_selector_bits = 9; },
                  "htm.dyntm_selector_bits");
  expect_rejected([](auto& c) { c.htm.dyntm_selector_bits = 70; },
                  "htm.dyntm_selector_bits");
}

TEST(ConfigValidateTest, RedirectTableGeometry) {
  expect_rejected([](auto& c) { c.suv.l1_table_entries = 0; },
                  "suv.l1_table_entries");
  expect_rejected([](auto& c) { c.suv.l2_table_assoc = 0; },
                  "suv.l2_table_assoc");
  expect_rejected([](auto& c) { c.suv.l2_table_assoc = 3; },
                  "suv.l2_table_entries");
  expect_rejected([](auto& c) { c.suv.l2_table_entries = 0; },
                  "suv.l2_table_entries");
}

TEST(ConfigValidateTest, ShardsPartitionCores) {
  expect_rejected([](auto& c) { c.pdes.shards = 0; }, "pdes.shards");
  expect_rejected([](auto& c) { c.pdes.shards = 3; }, "pdes.shards");
  expect_rejected([](auto& c) { c.pdes.host_threads = 0; },
                  "pdes.host_threads");
}

TEST(ConfigValidateTest, LatenciesCannotWrapTheClock) {
  const Cycle huge = (Cycle{1} << 32) + 1;
  expect_rejected([&](auto& c) { c.mem.memory_latency = huge; },
                  "mem.memory_latency");
  expect_rejected([&](auto& c) { c.htm.backoff_cap = huge; },
                  "htm.backoff_cap");
  expect_rejected([&](auto& c) { c.suv.flash_abort = huge; },
                  "suv.flash_abort");
}

/// validate() must accept `cfg`; reports the message if it does not.
void expect_accepted(const sim::SimConfig& cfg, const std::string& what) {
  try {
    sim::validate(cfg);
  } catch (const std::invalid_argument& e) {
    ADD_FAILURE() << what << " rejected: " << e.what();
  }
}

// Every config point the benches sweep, plus the defaults and the sharded
// machine, must stay valid.
TEST(ConfigValidateTest, EveryConfigTheRepoBuildsIsAccepted) {
  expect_accepted(sim::SimConfig{}, "defaults");
  for (sim::Scheme s : sim::all_schemes()) {
    sim::SimConfig cfg;
    cfg.scheme = s;
    expect_accepted(cfg, sim::scheme_name(s));
  }
  // bench_fig7_l1_table
  for (std::uint32_t n : {64u, 128u, 256u, 512u, 1024u, 2048u}) {
    sim::SimConfig cfg;
    cfg.suv.l1_table_entries = n;
    expect_accepted(cfg, "fig7 l1_table_entries=" + std::to_string(n));
  }
  // bench_fig8_l2_table
  for (std::uint32_t n : {2048u, 4096u, 8192u, 16384u, 32768u, 65536u}) {
    sim::SimConfig cfg;
    cfg.suv.l2_table_entries = n;
    expect_accepted(cfg, "fig8 l2_table_entries=" + std::to_string(n));
  }
  for (Cycle lat : {0, 5, 10, 20, 40}) {
    sim::SimConfig cfg;
    cfg.suv.l2_table_latency = lat;
    expect_accepted(cfg, "fig8 l2_table_latency=" + std::to_string(lat));
  }
  // bench_ablation_costs
  for (Cycle trap : {50, 100, 200, 300}) {
    sim::SimConfig cfg;
    cfg.htm.abort_trap_latency = trap;
    expect_accepted(cfg, "ablation abort_trap_latency");
  }
  for (Cycle pen : {0, 50, 100, 400}) {
    sim::SimConfig cfg;
    cfg.suv.misspeculation_penalty = pen;
    expect_accepted(cfg, "ablation misspeculation_penalty");
  }
  for (std::uint32_t bits : {512u, 1024u, 2048u, 8192u}) {
    sim::SimConfig cfg;
    cfg.suv.summary_signature_bits = bits;
    expect_accepted(cfg, "ablation summary_signature_bits");
    cfg = sim::SimConfig{};
    cfg.htm.signature_bits = bits;
    expect_accepted(cfg, "ablation signature_bits");
  }
  for (auto policy : {sim::ConflictPolicy::kRequesterStalls,
                      sim::ConflictPolicy::kRequesterWins}) {
    sim::SimConfig cfg;
    cfg.htm.conflict_policy = policy;
    expect_accepted(cfg, "ablation conflict_policy");
  }
  // bench_scaling's core counts.
  for (std::uint32_t cores : {1u, 2u, 4u, 8u, 16u}) {
    sim::SimConfig cfg;
    cfg.mem.num_cores = cores;
    expect_accepted(cfg, "scaling num_cores=" + std::to_string(cores));
  }
  // bench_scaling part 1b: 16 cores in 4 shards, 4 host threads.
  sim::SimConfig quad;
  quad.pdes.shards = 4;
  quad.pdes.host_threads = 4;
  expect_accepted(quad, "16 cores / 4 shards");
  // perfbench kv_sharded and the sharded golden row: 32 cores on the
  // default 4-wide mesh (cores fill rows 0-7; banks stay on the 4x4 square).
  sim::SimConfig kv;
  kv.mem.num_cores = 32;
  kv.pdes.shards = 2;
  kv.pdes.host_threads = 2;
  expect_accepted(kv, "32 cores / 2 shards on mesh_dim 4");
}

}  // namespace
}  // namespace suvtm
