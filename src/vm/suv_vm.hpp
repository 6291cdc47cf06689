// SUV version management -- the paper's contribution.
//
// Every transactional store is redirected to a line in the per-core
// preserved pool (or toggled back to its original line if a global redirect
// entry already exists); the redirect table tracks the mapping. Commit and
// abort are flash bit-flips over the transaction's transient entries:
// exactly one data update happens per store regardless of outcome, so both
// ends of the transaction release isolation in near-constant time.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats_block.hpp"
#include "htm/version_manager.hpp"
#include "mem/memory_system.hpp"
#include "sim/config.hpp"
#include "suv/pool.hpp"
#include "suv/redirect_table.hpp"

namespace suvtm::vm {

#define SUVTM_SUV_VM_STATS(X)                                            \
  X(entries_created)      /* fresh transient redirects */                 \
  X(entries_toggled)      /* redirect-back on a global entry */           \
  X(entries_published)    /* transient -> global at commit */             \
  X(entries_deleted)      /* toggle-commit deletions */                   \
  X(entries_discarded)    /* transient removed at abort */                \
  X(entries_reverted)     /* toggle rolled back to global */              \
  X(table_overflow_txns)  /* txns whose entries spilled the L1 table */

struct SuvVmStats {
  SUVTM_STATS_BLOCK(SuvVmStats, SUVTM_SUV_VM_STATS)
};

using suvtm::accumulate;

class SuvVm final : public htm::VersionManager {
 public:
  SuvVm(const sim::SuvParams& p, mem::MemorySystem& mem,
        std::uint32_t num_cores);

  const char* name() const override { return "SUV-TM"; }

  void set_obs(obs::Recorder* r) override {
    htm::VersionManager::set_obs(r);
    table_.set_obs(r);
    for (auto& p : pools_) p->set_obs(r);
  }

  htm::LoadAction resolve_load(CoreId core, htm::Txn* txn, Addr a) override;
  Addr debug_resolve(CoreId core, Addr a) const override;
  htm::StoreAction on_tx_store(htm::Txn& txn, Addr a) override;
  Cycle commit_cost(htm::Txn& txn) override;
  void on_commit_done(htm::Txn& txn) override;
  Cycle abort_cost(htm::Txn& txn) override;
  void on_abort_done(htm::Txn& txn) override;
  std::size_t nest_mark(const htm::Txn& txn) const override {
    return owned_[txn.core].size();
  }
  Cycle partial_abort(htm::Txn& txn, std::size_t mark) override;
  void on_suspend(CoreId core) override;
  void on_resume(CoreId core) override;

  suv::RedirectTable& table() { return table_; }
  const suv::RedirectTable& table() const { return table_; }
  suv::PreservedPool& pool(CoreId c) { return *pools_[c]; }
  const suv::PreservedPool& pool(CoreId c) const { return *pools_[c]; }
  const SuvVmStats& suv_stats() const { return sstats_; }

  /// Originals with transient entries owned by `core`'s RUNNING transaction.
  const std::vector<LineAddr>& owned_lines(CoreId c) const {
    return owned_[c];
  }
  /// Visit every original with a transient entry attributable to `core`:
  /// the running transaction's plus any suspended transactions' (audits).
  template <class Fn>
  void for_each_owned(CoreId c, Fn&& fn) const {
    for (LineAddr l : owned_[c]) fn(l);
    for (const auto& stash : suspended_owned_[c]) {
      for (LineAddr l : stash) fn(l);
    }
  }

 private:
  /// Extra commit/abort flash cost for entries that spilled to the shared
  /// second-level table (their flips cannot ride the per-core flash).
  Cycle overflow_flip_cost(const htm::Txn& txn) const;

  sim::SuvParams params_;
  mem::MemorySystem& mem_;
  suv::RedirectTable table_;
  std::vector<std::unique_ptr<suv::PreservedPool>> pools_;
  /// Lines with transient entries owned by each core's running transaction.
  std::vector<std::vector<LineAddr>> owned_;
  /// Ownership lists parked by on_suspend, FIFO per core (matching
  /// HtmSystem's suspended-transaction order for the core).
  std::vector<std::vector<std::vector<LineAddr>>> suspended_owned_;
  SuvVmStats sstats_;
};

/// The SuvVm behind `vm`: the scheme itself, or DynTM's eager backend when
/// DynTM runs over SUV; nullptr for schemes without SUV machinery.
SuvVm* suv_backend(htm::VersionManager& vm);

}  // namespace suvtm::vm
