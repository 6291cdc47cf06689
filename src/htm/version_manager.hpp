// Version-management scheme interface: the axis this paper varies.
//
// A VersionManager decides (a) where a transactional store's data physically
// goes (in place, buffered, or SUV-redirected), (b) what extra cycles each
// access pays for version bookkeeping, and (c) how long commit and abort
// processing hold the transaction's isolation -- the isolation-window cost
// at the heart of the paper's repair/merge pathology argument.
#pragma once

#include <cstdint>
#include <optional>

#include "common/stats_block.hpp"
#include "common/types.hpp"
#include "htm/txn.hpp"
#include "obs/obs.hpp"

namespace suvtm::mem {
class MemorySystem;
}

namespace suvtm::htm {

class HtmSystem;

/// Address resolution + cost for a load (or non-transactional access).
struct LoadAction {
  Addr target = 0;                          ///< final physical address
  Cycle extra = 0;                          ///< VM cycles added to the access
  /// Table-probe cycles that ride on the coherence request when the data
  /// access misses the L1 cache (SUV's piggybacked redirection resolution);
  /// charged only if the access turns out to be an L1 hit.
  Cycle extra_if_l1_hit = 0;
  std::optional<std::uint64_t> buffered;    ///< value served from a redo buffer
};

/// Address resolution + cost for a transactional store.
struct StoreAction {
  Addr target = 0;   ///< final physical address the data is written to
  Cycle extra = 0;   ///< VM cycles added to the access
  Cycle extra_if_l1_hit = 0;  ///< see LoadAction::extra_if_l1_hit
  bool buffered = false;  ///< value goes to the txn redo buffer, not memory
};

/// Counters common to every scheme; schemes also keep private stats.
#define SUVTM_VM_STATS(X)                                          \
  X(tx_stores)                                                      \
  X(tx_loads)                                                       \
  X(log_entries)     /* undo-log appends (LogTM-SE path) */         \
  X(spec_overflows)  /* L1 speculative-state overflows */           \
  X(degenerations)   /* FasTM fell back to LogTM-SE */              \
  X(data_overflows)  /* transactional data left the L1 */

struct VmStats {
  SUVTM_STATS_BLOCK(VmStats, SUVTM_VM_STATS)
};

class VersionManager {
 public:
  virtual ~VersionManager() = default;
  virtual const char* name() const = 0;

  /// Back-reference wiring; called once by HtmSystem after construction.
  virtual void attach(HtmSystem& htm) { htm_ = &htm; }

  /// Observability wiring. Wrappers (DynTM) forward to their backend;
  /// SuvVm forwards into its redirect table and pools.
  virtual void set_obs(obs::Recorder* r) { obs_ = r; }

  /// Transaction (outermost) begin; returns extra begin cycles.
  virtual Cycle on_begin(Txn&) { return 0; }

  /// Resolve an address for a LOAD or a non-transactional access. `txn` is
  /// nullptr for non-transactional accesses (strong isolation: those still
  /// consult SUV's redirect table).
  virtual LoadAction resolve_load(CoreId core, Txn* txn, Addr a) = 0;

  /// True when resolve_load / resolve_nontx_store are the identity action
  /// ({a, 0, 0, no buffer}) for EVERY access: in-place schemes (LogTM-SE,
  /// FasTM) never redirect or buffer loads. The per-access hot path uses
  /// this to skip the virtual resolution call entirely; schemes that
  /// redirect (SUV) or buffer (DynTM lazy mode) leave it false.
  bool loads_in_place() const { return loads_in_place_; }

  /// Transactional store bookkeeping: returns where the data goes and the
  /// extra cycles the scheme spends (log writes, redirection, ...). The
  /// functional old-value capture for rollback happens in here too.
  virtual StoreAction on_tx_store(Txn& txn, Addr a) = 0;

  /// Resolve a NON-transactional store's target address.
  virtual LoadAction resolve_nontx_store(CoreId core, Addr a) {
    return resolve_load(core, nullptr, a);
  }

  /// An L1 line carrying speculative transactional state was evicted while
  /// `txn` ran (FasTM degenerates here; others just count the overflow).
  virtual void on_spec_eviction(Txn&, LineAddr) { ++stats_.data_overflows; }

  // --- Closed-nesting partial abort (paper Section IV-C) -------------------
  /// Scheme-specific rollback position recorded when a nesting frame opens
  /// (undo-log length for log-based schemes; SUV overrides with its
  /// transient-entry count).
  virtual std::size_t nest_mark(const Txn& txn) const { return txn.undo.size(); }

  /// Whether this transaction can partially abort its innermost frame
  /// (DynTM's lazy mode cannot: the redo buffer has no frame structure).
  virtual bool supports_partial_abort(const Txn&) const { return true; }

  /// Roll the transaction's version state back to `mark` (from the frame
  /// being discarded) and return the cycles it takes. Signatures are NOT
  /// rewound (Bloom filters cannot subtract); the paper's closed-nesting
  /// design accepts the same conservative superset.
  virtual Cycle partial_abort(Txn& txn, std::size_t mark) = 0;

  /// Ready to enter commit processing? A lazy committer must wait for
  /// eager transactions that own lines in its write set (they hold
  /// exclusive coherence permission); the caller retries until true.
  /// Implementations must guarantee eventual readiness (bounded waiting).
  virtual bool commit_ready(Txn&) { return true; }

  /// Cycles commit processing takes; isolation is held throughout. May doom
  /// other transactions (lazy commit-time conflict resolution).
  virtual Cycle commit_cost(Txn& txn) = 0;
  /// Commit processing finished: publish state (SUV entry flips, SM clears).
  virtual void on_commit_done(Txn& txn) = 0;

  /// Cycles abort processing takes; isolation is held throughout.
  virtual Cycle abort_cost(Txn& txn) = 0;
  /// Abort processing finished: restore functional state.
  virtual void on_abort_done(Txn& txn) = 0;

  // --- Thread suspension ---------------------------------------------------
  /// `core`'s running transaction was just parked (its descriptor copied
  /// aside by HtmSystem::suspend_txn). Schemes that key per-transaction
  /// version state by core (SUV's transient-entry ownership list) must park
  /// that state too, or the core's next transaction inherits it.
  virtual void on_suspend(CoreId) {}
  /// `core`'s suspended transaction was restored to the core's descriptor.
  virtual void on_resume(CoreId) {}

  /// Untimed, stat-free address resolution for host-side inspection and
  /// post-run verification: after a run, a line with a live global redirect
  /// entry keeps its canonical data at the redirected location.
  virtual Addr debug_resolve(CoreId, Addr a) const { return a; }

  const VmStats& stats() const { return stats_; }

 protected:
  VmStats stats_;
  HtmSystem* htm_ = nullptr;
  obs::Recorder* obs_ = nullptr;
  bool loads_in_place_ = false;  // subclasses opt in (see loads_in_place())
};

}  // namespace suvtm::htm
