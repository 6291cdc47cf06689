// Bit-identity gate for the sharded conservative-PDES runtime: the host
// thread count driving a sharded machine is a pure execution knob, so the
// full RunResult (every stats block, field for field), the exported trace
// JSON bytes, and the flattened metrics snapshot must be identical at any
// sim_threads value. Also pins the shard purity rules (cross-shard
// transactions/stores throw) and the geometry guards.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "check/check.hpp"
#include "obs/chrome_trace.hpp"
#include "runner/experiment.hpp"
#include "sim/simulator.hpp"
#include "stamp/sharded_kv.hpp"

namespace suvtm {
namespace {

sim::SimConfig sharded_cfg(sim::Scheme scheme, std::uint64_t seed,
                           std::uint32_t host_threads) {
  sim::SimConfig cfg;
  cfg.scheme = scheme;
  cfg.seed = seed;
  cfg.mem.num_cores = 16;
  cfg.pdes.shards = 4;
  cfg.pdes.host_threads = host_threads;
  cfg.obs.trace = true;
  cfg.obs.metrics = true;
  return cfg;
}

stamp::ShardedKvParams small_params(std::uint64_t seed) {
  stamp::ShardedKvParams p;
  p.ops_per_thread = 48;
  p.txn_keys = 16;
  p.keys_per_txn = 3;
  p.remote_read_every = 4;
  p.seed = seed;
  return p;
}

struct Harvest {
  runner::RunResult result;
  obs::TraceData trace;
  std::string json;
};

Harvest run_sharded(const sim::SimConfig& cfg, std::uint64_t wl_seed) {
  sim::Simulator sim(cfg);
  stamp::ShardedKv wl(small_params(wl_seed));
  wl.build(sim);
  sim.run();
  wl.verify(sim);
  Harvest h;
  h.result = runner::harvest_result(sim, "sharded_kv", &h.trace);
  h.json = obs::chrome_trace_json({{"sharded_kv", &h.trace}});
  return h;
}

TEST(PdesDeterminism, BitIdenticalAcrossHostThreads) {
  const sim::Scheme schemes[] = {sim::Scheme::kLogTmSe, sim::Scheme::kFasTm,
                                 sim::Scheme::kSuv};
  const std::uint64_t seeds[] = {1, 7};
  for (sim::Scheme scheme : schemes) {
    for (std::uint64_t seed : seeds) {
      const Harvest ref = run_sharded(sharded_cfg(scheme, seed, 1), seed);
      EXPECT_FALSE(ref.trace.events.empty());
      EXPECT_GT(ref.result.htm.commits, 0u);
      for (std::uint32_t threads : {2u, 3u, 4u}) {
        const Harvest h =
            run_sharded(sharded_cfg(scheme, seed, threads), seed);
        EXPECT_EQ(ref.result, h.result)
            << "scheme " << static_cast<int>(scheme) << " seed " << seed
            << " host_threads " << threads;
        EXPECT_EQ(ref.trace, h.trace);
        EXPECT_EQ(ref.json, h.json);
      }
    }
  }
}

TEST(PdesDeterminism, HostThreadsInertOnMonolithicMachine) {
  // shards == 1 is the classic machine; host_threads must change nothing,
  // including against a config that never mentions pdes at all.
  sim::SimConfig cfg = sharded_cfg(sim::Scheme::kSuv, 3, 1);
  cfg.pdes.shards = 1;
  const Harvest ref = run_sharded(cfg, 3);
  cfg.pdes.host_threads = 4;
  const Harvest h = run_sharded(cfg, 3);
  EXPECT_EQ(ref.result, h.result);
  EXPECT_EQ(ref.json, h.json);

  sim::SimConfig plain;
  plain.scheme = sim::Scheme::kSuv;
  plain.seed = 3;
  plain.mem.num_cores = 16;
  plain.obs.trace = true;
  plain.obs.metrics = true;
  const Harvest dflt = run_sharded(plain, 3);
  EXPECT_EQ(ref.result, dflt.result);
  EXPECT_EQ(ref.json, dflt.json);
}

sim::ThreadTask foreign_tx_load(sim::ThreadContext& tc, Addr foreign) {
  co_await tc.tx_begin(1);
  co_await tc.load(foreign);
  co_await tc.tx_commit();
}

sim::ThreadTask foreign_store(sim::ThreadContext& tc, Addr foreign) {
  co_await tc.store(foreign, 1);
}

sim::ThreadTask foreign_plain_load(sim::ThreadContext& tc, Addr foreign) {
  co_await tc.load(foreign);
}

TEST(PdesPurity, CrossShardTransactionalLoadThrows) {
  sim::Simulator sim(sharded_cfg(sim::Scheme::kSuv, 1, 2));
  sim.spawn(0, foreign_tx_load(sim.context(0), sim::ShardMap::arena_base(1)));
  EXPECT_THROW(sim.run(), check::CheckFailure);
}

TEST(PdesPurity, CrossShardStoreThrows) {
  sim::Simulator sim(sharded_cfg(sim::Scheme::kSuv, 1, 2));
  sim.spawn(0, foreign_store(sim.context(0), sim::ShardMap::arena_base(2)));
  EXPECT_THROW(sim.run(), check::CheckFailure);
}

TEST(PdesPurity, CrossShardPlainLoadIsLegal) {
  sim::Simulator sim(sharded_cfg(sim::Scheme::kSuv, 1, 2));
  sim.poke_word(sim::ShardMap::arena_base(1) + 0x40, 99);
  sim.spawn(0, foreign_plain_load(sim.context(0),
                                  sim::ShardMap::arena_base(1) + 0x40));
  EXPECT_NO_THROW(sim.run());
}

TEST(PdesGeometry, GlobalBarrierAmbiguousOnShardedMachine) {
  sim::Simulator sim(sharded_cfg(sim::Scheme::kSuv, 1, 1));
  EXPECT_THROW(sim.make_barrier(16), std::logic_error);
  EXPECT_NO_THROW(sim.make_barrier(4, /*home=*/0));
}

TEST(PdesGeometry, ShardsMustDivideCores) {
  sim::SimConfig cfg = sharded_cfg(sim::Scheme::kSuv, 1, 1);
  cfg.mem.num_cores = 6;
  EXPECT_THROW(sim::Simulator{cfg}, std::invalid_argument);
}

// The directory sharer mask has one bit per core, so a machine above 32
// cores would shift past it; the constructor refuses it by name, sharded
// or not. 32 cores in 2 shards (the benchmark's sharded machine) builds.
TEST(PdesGeometry, RejectsMoreCoresThanTheSharerMask) {
  const std::uint32_t geometries[][2] = {{33, 1}, {48, 1}, {48, 4}};
  for (const auto& [cores, shards] : geometries) {
    sim::SimConfig cfg = sharded_cfg(sim::Scheme::kSuv, 1, 1);
    cfg.mem.num_cores = cores;
    cfg.pdes.shards = shards;
    try {
      sim::Simulator sim(cfg);
      ADD_FAILURE() << cores << " cores / " << shards << " shards built";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("mem.num_cores"), std::string::npos)
          << e.what();
    }
  }
  sim::SimConfig cfg = sharded_cfg(sim::Scheme::kSuv, 1, 1);
  cfg.mem.num_cores = 32;
  cfg.pdes.shards = 2;
  EXPECT_NO_THROW(sim::Simulator{cfg});
}

}  // namespace
}  // namespace suvtm
