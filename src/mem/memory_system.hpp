// Timing + functional memory hierarchy: per-core L1s, banked shared L2 with
// an integrated directory, MESI coherence, mesh NoC, per-core TLBs and the
// functional backing store.
//
// The timing model is "atomic-operation, computed-latency": each access
// updates global cache/directory state at issue time and returns the number
// of cycles the access takes, which the caller uses to schedule the
// requesting coroutine's resumption. This is the standard approximation for
// cycle-approximate simulators; it forgoes modelling in-flight coherence
// races, which the HTM layer's conflict detection makes unobservable to
// workloads anyway.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats_block.hpp"
#include "common/types.hpp"
#include "mem/backing_store.hpp"
#include "mem/cache.hpp"
#include "mem/directory.hpp"
#include "mem/mesh.hpp"
#include "mem/tlb.hpp"
#include "obs/obs.hpp"
#include "sim/config.hpp"

namespace suvtm::mem {

struct AccessOutcome {
  Cycle latency = 0;
  bool l1_hit = false;
  bool l2_hit = false;
  /// An L1 line marked speculative (FasTM SM) was evicted by this fill.
  bool evicted_speculative = false;
  LineAddr evicted_line = 0;
};

#define SUVTM_MEM_STATS(X) \
  X(l1_hits)                 \
  X(l1_misses)               \
  X(l2_hits)                 \
  X(l2_misses)               \
  X(writebacks)              \
  X(invalidations)           \
  X(forwards)                \
  X(l2_recalls)              \
  X(spec_evictions)

struct MemStats {
  SUVTM_STATS_BLOCK(MemStats, SUVTM_MEM_STATS)
};

using suvtm::accumulate;

class MemorySystem {
 public:
  explicit MemorySystem(const sim::MemParams& p);

  /// Timing access: moves the line into this core's L1 with load (GETS) or
  /// store (GETM) permission and returns the latency. `a` must already be
  /// the *final* physical address (any SUV redirection applied by caller).
  AccessOutcome access(CoreId core, Addr a, bool is_write);

  // Functional word access (no timing).
  std::uint64_t load_word(Addr a) const { return store_.load(a); }
  void store_word(Addr a, std::uint64_t v) { store_.store(a, v); }
  BackingStore& backing() { return store_; }

  /// Install `l` into `core`'s L1 in Modified state without a memory fetch:
  /// used when hardware materializes a line whose contents it already has
  /// (SUV's redirect-target allocation + in-cache line copy). Returns true
  /// if the fill evicted a speculative line (caller reports the overflow).
  bool install_line(CoreId core, LineAddr l);

  // --- FasTM speculative-line (SM bit) support -----------------------------
  /// Mark this core's cached copy of `l` speculative. Returns false if the
  /// line is not resident (caller must have just accessed it).
  ///
  /// Marked lines are also recorded in a per-core list so the flash
  /// commit/abort walks touch only the write set (tens of lines) instead of
  /// sweeping the whole L1 per transaction. Entries going stale (eviction,
  /// coherence invalidation) is fine: the walks re-check residency and the
  /// SM bit before acting.
  bool mark_speculative(CoreId core, LineAddr l);
  /// Flash-clear all SM bits (commit).
  void clear_speculative(CoreId core);
  /// Invalidate all SM lines (abort); they will demand-refetch.
  void invalidate_speculative(CoreId core);

  const MemStats& stats() const { return stats_; }
  const Mesh& mesh() const { return mesh_; }
  Cache& l1(CoreId core) { return l1_[core]; }
  const Cache& l1(CoreId core) const { return l1_[core]; }
  Cache& l2() { return l2_; }
  const Cache& l2() const { return l2_; }
  Directory& directory() { return dir_; }
  const Directory& directory() const { return dir_; }
  const BackingStore& backing() const { return store_; }
  /// Lines recorded as speculative for `core` (superset: may hold stale
  /// entries for lines since evicted; every line whose SM bit IS set must
  /// appear here -- the flash walks rely on it).
  const std::vector<LineAddr>& speculative_lines(CoreId core) const {
    return spec_lines_[core];
  }
  Tlb& tlb(CoreId core) { return tlb_[core]; }
  const sim::MemParams& params() const { return params_; }

  /// Observability wiring; called once by the Simulator when recording is on.
  void set_obs(obs::Recorder* r) { obs_ = r; }

 private:
  Cycle fetch_from_l2_or_memory(LineAddr l, std::uint32_t bank_tile);
  void l1_eviction(CoreId core, const Cache::Victim& v);
  /// Insert into the L2 and, if that evicted a line with L1 copies, recall
  /// them (invalidate + directory reset). Returns true if a recall happened.
  /// Every L2 fill must go through here: inserting without the recall
  /// leaves L1 lines the inclusive L2 no longer backs.
  bool l2_insert_with_recall(LineAddr l, CohState st);

  sim::MemParams params_;
  Mesh mesh_;
  std::vector<Cache> l1_;
  Cache l2_;
  Directory dir_;
  std::vector<Tlb> tlb_;
  BackingStore store_;
  MemStats stats_;
  obs::Recorder* obs_ = nullptr;
  /// Per-core lines with the SM bit set (may hold stale entries for lines
  /// since evicted or invalidated; cleared by the flash walks).
  std::vector<std::vector<LineAddr>> spec_lines_;
};

}  // namespace suvtm::mem
