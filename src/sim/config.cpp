// sim::validate: every rule a SimConfig must satisfy before a Simulator is
// built from it. Each rule guards a model that would otherwise divide by
// zero, index past a mask, trip an invariant assert or never make progress.
#include "sim/config.hpp"

#include <bit>
#include <stdexcept>
#include <string>

#include "mem/directory.hpp"

namespace suvtm::sim {

namespace {

/// Largest accepted cost or latency: far beyond any modelled machine, and
/// small enough that no sum of them can wrap the 64-bit cycle clock.
constexpr Cycle kMaxLatency = Cycle{1} << 32;

[[noreturn]] void reject(const std::string& field, std::uint64_t value,
                         const std::string& why) {
  throw std::invalid_argument(field + " = " + std::to_string(value) + " " +
                              why);
}

void require_range(const char* field, std::uint64_t v, std::uint64_t lo,
                   std::uint64_t hi) {
  if (v < lo || v > hi) {
    reject(field, v, "is outside [" + std::to_string(lo) + ", " +
                         std::to_string(hi) + "]");
  }
}

/// Bloom filters index their bit vectors with a `bits - 1` mask.
void require_pow2(const char* field, std::uint32_t bits) {
  if (!std::has_single_bit(bits)) {
    reject(field, bits,
           "is not a power of two (the filter indexes with a bits-1 mask)");
  }
}

/// A set-associative cache of 64-byte lines needs at least one way and a
/// power-of-two number of sets that exactly fills its capacity. When the
/// capacity itself is a power of two, only the associativity can be at
/// fault, so that field is named first.
void require_cache_geometry(const char* name, std::uint32_t bytes,
                            std::uint32_t assoc) {
  const std::string b = std::string("mem.") + name + "_bytes";
  const std::string a = std::string("mem.") + name + "_assoc";
  if (assoc == 0) reject(a, 0, "leaves the cache with no ways");
  constexpr std::uint64_t kLine = 64;
  const std::uint64_t sets = bytes / kLine / assoc;
  if (sets != 0 && std::has_single_bit(sets) && sets * assoc * kLine == bytes) {
    return;
  }
  if (std::has_single_bit(bytes) && bytes >= kLine) {
    reject(a, assoc,
           "does not split " + b + " = " + std::to_string(bytes) +
               " into a power-of-two number of 64 B sets");
  }
  reject(b, bytes,
         "is not 64 B x " + a + " (" + std::to_string(assoc) +
             ") x a power-of-two number of sets");
}

}  // namespace

void validate(const SimConfig& cfg) {
  // ---- mem ----------------------------------------------------------------
  const MemParams& m = cfg.mem;
  // The directory sharer mask has one bit per core.
  require_range("mem.num_cores", m.num_cores, 1, mem::kMaxCores);
  // mesh_dim^2 L2 bank tiles must be countable in 32 bits.
  require_range("mem.mesh_dim", m.mesh_dim, 1, 65535);
  require_cache_geometry("l1", m.l1_bytes, m.l1_assoc);
  require_cache_geometry("l2", m.l2_bytes, m.l2_assoc);
  require_range("mem.tlb_entries", m.tlb_entries, 1, UINT32_MAX);

  // ---- htm ----------------------------------------------------------------
  const HtmParams& h = cfg.htm;
  // The signatures and the conflict manager's bit-sliced columns index
  // with a mask; the hash count bounds the double-hashing loop.
  require_pow2("htm.signature_bits", h.signature_bits);
  require_range("htm.signature_hashes", h.signature_hashes, 1, 8);
  // ModeSelector keeps one saturating uint8_t counter per site.
  require_range("htm.dyntm_selector_bits", h.dyntm_selector_bits, 1, 8);

  // ---- suv ----------------------------------------------------------------
  const SuvParams& s = cfg.suv;
  require_range("suv.l1_table_entries", s.l1_table_entries, 1, UINT32_MAX);
  require_range("suv.l2_table_assoc", s.l2_table_assoc, 1, UINT32_MAX);
  if (s.l2_table_entries == 0 || s.l2_table_entries % s.l2_table_assoc != 0) {
    reject("suv.l2_table_entries", s.l2_table_entries,
           "is not a positive multiple of suv.l2_table_assoc = " +
               std::to_string(s.l2_table_assoc));
  }
  require_pow2("suv.summary_signature_bits", s.summary_signature_bits);
  require_range("suv.summary_signature_hashes", s.summary_signature_hashes, 1,
                8);

  // ---- pdes ---------------------------------------------------------------
  if (cfg.pdes.shards == 0 || m.num_cores % cfg.pdes.shards != 0) {
    reject("pdes.shards", cfg.pdes.shards,
           "does not divide mem.num_cores = " + std::to_string(m.num_cores) +
               " (cores partition into equal contiguous blocks)");
  }
  require_range("pdes.host_threads", cfg.pdes.host_threads, 1, UINT32_MAX);

  // ---- every cost and latency ---------------------------------------------
  // Three must be at least one cycle. The checker orders an eager commit
  // start before a same-cycle lazy publish, which is sound only if no
  // access completes in the cycle it issues. A zero retry interval re-polls
  // a NACKed request at the same cycle forever, and a zero backoff restarts
  // an aborted transaction at once (it livelocks SUV-TM kmeans).
  const struct {
    const char* field;
    Cycle v;
    Cycle min = 0;
  } latencies[] = {
      {"mem.l1_latency", m.l1_latency, 1},
      {"mem.l2_latency", m.l2_latency},
      {"mem.directory_latency", m.directory_latency},
      {"mem.memory_latency", m.memory_latency},
      {"mem.mesh_wire_latency", m.mesh_wire_latency},
      {"mem.mesh_route_latency", m.mesh_route_latency},
      {"mem.tlb_miss_latency", m.tlb_miss_latency},
      {"htm.stall_retry_interval", h.stall_retry_interval, 1},
      {"htm.backoff_base", h.backoff_base, 1},
      {"htm.backoff_cap", h.backoff_cap},
      {"htm.checkpoint_latency", h.checkpoint_latency},
      {"htm.log_store_extra", h.log_store_extra},
      {"htm.log_new_line_extra", h.log_new_line_extra},
      {"htm.abort_trap_latency", h.abort_trap_latency},
      {"htm.abort_per_entry", h.abort_per_entry},
      {"htm.fastm_writeback_extra", h.fastm_writeback_extra},
      {"htm.fastm_begin_extra", h.fastm_begin_extra},
      {"htm.fastm_flash_abort", h.fastm_flash_abort},
      {"htm.fastm_flash_commit", h.fastm_flash_commit},
      {"htm.dyntm_arbitration", h.dyntm_arbitration},
      {"htm.dyntm_publish_per_line", h.dyntm_publish_per_line},
      {"htm.dyntm_lazy_abort", h.dyntm_lazy_abort},
      {"suv.l1_table_latency", s.l1_table_latency},
      {"suv.l2_table_latency", s.l2_table_latency},
      {"suv.misspeculation_penalty", s.misspeculation_penalty},
      {"suv.redirect_copy_latency", s.redirect_copy_latency},
      {"suv.flash_commit", s.flash_commit},
      {"suv.flash_abort", s.flash_abort},
  };
  for (const auto& l : latencies) {
    require_range(l.field, l.v, l.min, kMaxLatency);
  }
}

}  // namespace suvtm::sim
