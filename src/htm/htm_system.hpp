// HtmSystem: per-core transactions + conflict manager + the configured
// version-management scheme, glued over the memory system.
#pragma once

#include <memory>
#include <vector>

#include "common/stats_block.hpp"
#include "common/types.hpp"
#include "htm/conflict_manager.hpp"
#include "htm/txn.hpp"
#include "htm/version_manager.hpp"
#include "mem/memory_system.hpp"
#include "sim/config.hpp"

namespace suvtm::check {
class Checker;
}

namespace suvtm::htm {

// overflowed_attempts: attempts (committed or aborted) whose speculative
// state overflowed the L1 -- the paper Table V's "overflowed transactions".
#define SUVTM_HTM_STATS(X)                                     \
  X(begins)              /* outermost transaction attempts */ \
  X(commits)             /* committed atomic blocks */        \
  X(aborts)              /* aborted attempts */               \
  X(nested_begins)                                            \
  X(overflowed_attempts)

struct HtmStats {
  SUVTM_STATS_BLOCK(HtmStats, SUVTM_HTM_STATS)

  double abort_ratio() const {
    const double att = static_cast<double>(commits + aborts);
    return att == 0.0 ? 0.0 : static_cast<double>(aborts) / att;
  }
};

using suvtm::accumulate;

class HtmSystem {
 public:
  HtmSystem(const sim::SimConfig& cfg, mem::MemorySystem& mem,
            std::unique_ptr<VersionManager> vm);

  Txn& txn(CoreId c) { return *txns_[c]; }
  const Txn& txn(CoreId c) const { return *txns_[c]; }
  std::vector<Txn*>& txn_view() { return txn_view_; }

  VersionManager& vm() { return *vm_; }
  const VersionManager& vm() const { return *vm_; }
  ConflictManager& conflicts() { return conflicts_; }
  const ConflictManager& conflicts() const { return conflicts_; }
  mem::MemorySystem& mem() { return mem_; }
  const mem::MemorySystem& mem() const { return mem_; }
  const sim::HtmParams& params() const { return params_; }
  std::uint32_t num_cores() const {
    return static_cast<std::uint32_t>(txns_.size());
  }

  /// Optional correctness checker; receives suspend/resume notifications
  /// (all other hooks fire from ThreadContext, which owns the clock).
  void set_checker(check::Checker* ck) { checker_ = ck; }
  check::Checker* checker() { return checker_; }

  /// Optional observability recorder; fans out to the conflict manager and
  /// the version manager (which forwards into the SUV structures).
  void set_obs(obs::Recorder* r) {
    obs_ = r;
    conflicts_.set_obs(r);
    vm_->set_obs(r);
  }

  HtmStats& stats() { return stats_; }
  const HtmStats& stats() const { return stats_; }

  /// Mark a victim transaction for abort (lazy committer wins, or deadlock
  /// cycle). No-op for idle or committing transactions. The first doom's
  /// cause sticks; it feeds the abort-cause attribution in obs. Wakes the
  /// victim's parked stall poll, if any, so it re-issues and aborts.
  void doom(CoreId victim, AbortCause cause = AbortCause::kExplicit);

  // --- Thread suspension (paper Section IV-C) ------------------------------
  /// Park the core's running transaction: its read/write sets move into the
  /// suspended-summary signatures that every conflict check consults, so
  /// isolation survives the deschedule. Returns false if no transaction is
  /// running. The core gets a clean descriptor for the next thread.
  bool suspend_txn(CoreId core);
  /// Un-park the core's suspended transaction (the core's current
  /// descriptor must be idle). Returns false if nothing was suspended.
  bool resume_txn(CoreId core);
  std::size_t suspended_count() const { return suspended_.size(); }

  /// Visit each suspended transaction as fn(core, txn) in park order.
  template <class Fn>
  void for_each_suspended(Fn&& fn) const {
    for (const auto& s : suspended_) fn(s.core, s.txn);
  }
  const Signature& suspended_read_summary() const { return suspended_reads_; }
  const Signature& suspended_write_summary() const {
    return suspended_writes_;
  }

  /// Committer-wins against parked victims: mark every suspended
  /// transaction whose read or write set intersects `committer`'s write set
  /// as doomed (it aborts on resume; it cannot be aborted while parked).
  /// Returns the number of freshly doomed transactions.
  std::size_t doom_suspended_conflicting(const Txn& committer);

  // --- Lazy-commit arbitration token (one committer at a time) -------------
  bool commit_token_free() const { return token_holder_ == kNoCore; }
  bool acquire_commit_token(CoreId c);
  void release_commit_token(CoreId c);

 private:
  sim::HtmParams params_;
  mem::MemorySystem& mem_;
  std::unique_ptr<VersionManager> vm_;
  ConflictManager conflicts_;
  void rebuild_suspended_summary();

  std::vector<std::unique_ptr<Txn>> txns_;
  std::vector<Txn*> txn_view_;
  HtmStats stats_;
  CoreId token_holder_ = kNoCore;
  check::Checker* checker_ = nullptr;
  obs::Recorder* obs_ = nullptr;

  struct Suspended {
    CoreId core;
    Txn txn;
  };
  std::vector<Suspended> suspended_;
  Signature suspended_reads_{2048, 2};
  Signature suspended_writes_{2048, 2};
};

}  // namespace suvtm::htm
