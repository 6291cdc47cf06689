// Eager conflict detection and the LogTM "Stall" resolution policy.
//
// Detection: every access (transactional or not -- strong isolation) is
// checked against all other cores' active signatures. A write conflicts with
// any other read or write signature hit; a read conflicts with a write
// signature hit. Transactions in kCommitting/kAborting still hold isolation.
//
// Resolution: the requester stalls and retries. A single-edge wait-for graph
// (each core stalls on at most one holder at a time) detects potential
// deadlock; the youngest transaction (latest first-attempt timestamp) in the
// cycle aborts, which matches LogTM's possible-cycle rule closely enough to
// preserve both progress and the paper's pathology dynamics.
//
// Parked stalls (DESIGN.md section 12): a stalled requester's re-polls repeat
// the NACK until something changes the verdict. watch() records what the
// verdict depends on, and the events that can change it wake the parked
// poll, which then re-issues the access; until then its polls are virtual.
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats_block.hpp"
#include "common/types.hpp"
#include "htm/signature.hpp"
#include "htm/txn.hpp"
#include "obs/obs.hpp"
#include "sim/config.hpp"

namespace suvtm::sim {
class ParkedPoll;
}

namespace suvtm::htm {

#define SUVTM_CONFLICT_STATS(X)                                    \
  X(conflicts)         /* NACKed requests (incl. retries) */        \
  X(false_conflicts)   /* signature hit but exact-set miss */       \
  X(deadlock_aborts)   /* victims chosen by cycle detection */      \
  X(requester_wins)    /* holders doomed by kRequesterWins */       \
  X(suspended_stalls)  /* NACKs from suspended-txn summaries */

struct ConflictStats {
  SUVTM_STATS_BLOCK(ConflictStats, SUVTM_CONFLICT_STATS)
};

class ConflictManager {
 public:
  /// `sig_bits`/`sig_hashes` must match the per-transaction signature
  /// geometry: the bit-sliced columns below index with the exact same
  /// double-hash derivation, so a column miss proves a signature miss.
  ConflictManager(std::uint32_t num_cores,
                  sim::ConflictPolicy policy =
                      sim::ConflictPolicy::kRequesterStalls,
                  std::uint32_t sig_bits = 2048, std::uint32_t sig_hashes = 4);

  sim::ConflictPolicy policy() const { return policy_; }

  /// What the requester must do about a detected conflict.
  enum class Action : std::uint8_t { kProceed, kStall, kAbortSelf };

  struct Decision {
    Action action = Action::kProceed;
    CoreId holder = kNoCore;  // conflicting core when not kProceed
    bool exact = false;       // a stall: the holder's exact sets hold the line
    CoreId victim = kNoCore;  // transaction doomed by cycle detection
    AbortCause victim_cause = AbortCause::kNone;  // why `victim` is doomed
    /// Running lazy transactions that only *read* a line this write now
    /// takes exclusive ownership of: the coherence invalidation aborts them
    /// (DynTM semantics). The caller dooms them; the access proceeds.
    std::vector<CoreId> invalidated_lazy_readers;
  };

  /// Check `line` access by `core` against all other transactions and apply
  /// the stall policy. `txns` is indexed by core; non-transactional
  /// requesters (txns[core] inactive) can only ever stall.
  ///
  /// Mixed-mode (DynTM) matrix -- lazy transactions buffer writes, so:
  ///  - a running lazy holder NACKs only writes that hit its write
  ///    signature (write-write conflicts stay eager; reads never see its
  ///    buffered data, so they pass),
  ///  - a lazy requester checks only holders' write signatures (readers do
  ///    not block it; it is doomed at their commit instead).
  ///
  /// Inline fast path: the bit-sliced column probe proves "no signature can
  /// hit" for the overwhelming majority of accesses without an out-of-line
  /// call; only candidate hits and suspended-summary checks take the slow
  /// path. A read can only conflict with write sets; a write with read or
  /// write sets (superset of every branch of the matrix above).
  Decision check(CoreId core, LineAddr line, bool is_write, bool requester_lazy,
                 const std::vector<Txn*>& txns) {
    const std::uint64_t lm = Signature::mix(line);
    std::uint64_t cand = probe_columns(write_cols_, lm);
    if (is_write) cand |= probe_columns(read_cols_, lm);
    cand &= isolation_mask_ & ~(1ull << core);
    grant_cand_ = cand;
    grant_susp_possible_ =
        suspended_reads_ != nullptr || suspended_writes_ != nullptr;
    if (cand == 0) [[likely]] {
      // Suspended-transaction summaries are not in the columns; test them
      // here so a registered summary doesn't force every access out of
      // line. Misses take the same proceed path the slow scan would.
      const bool susp_hit =
          (is_write && suspended_reads_ && suspended_reads_->test_mixed(lm)) ||
          (suspended_writes_ && suspended_writes_->test_mixed(lm));
      if (!susp_hit) [[likely]] {
        grant_susp_possible_ = false;
        waits_for_[core] = kNoCore;  // == clear_wait(core): access proceeds
        return {};
      }
    }
    return check_slow(core, line, is_write, requester_lazy, txns, lm, cand);
  }

  /// Callers must report every isolation transition (a core's txn going
  /// kIdle <-> non-idle) here. check() intersects the bit-sliced candidate
  /// mask with the cores holding isolation; releasing also scrubs the
  /// core's column bits so stale candidates stay bounded by one
  /// transaction's footprint.
  void set_isolation(CoreId core, bool held) {
    const std::uint64_t bit = 1ull << core;
    if (held) {
      isolation_mask_ |= bit;
    } else {
      isolation_mask_ &= ~bit;
      clear_columns(core);
      if (watch_cover_ & bit) [[unlikely]] wake_on_release(core);
    }
  }

  /// Mirror of Txn::read_sig.add / write_sig.add: every line added to a
  /// LIVE transaction's signature must be reported here (first add per line
  /// suffices -- repeats set the same bits) so the bit-sliced columns stay
  /// a superset of the per-core signatures (the correctness contract
  /// check() relies on: column miss => signature miss). The touched mixes
  /// are journaled so release clears cost O(footprint), not O(sig bits).
  void note_read(CoreId core, LineAddr l) {
    const std::uint64_t m = Signature::mix(l);
    set_column_bits(read_cols_, core, m);
    touched_[core].push_back(m);
    if ((watch_cover_ & (1ull << core)) && hits_watched(m)) [[unlikely]] {
      wake_on_note(core, l, /*write=*/false);
    }
  }
  void note_write(CoreId core, LineAddr l) {
    const std::uint64_t m = Signature::mix(l);
    set_column_bits(write_cols_, core, m);
    touched_[core].push_back(m);
    if ((watch_cover_ & (1ull << core)) && hits_watched(m)) [[unlikely]] {
      wake_on_note(core, l, /*write=*/true);
    }
  }

  // ---- parked stalls ------------------------------------------------------
  /// Watch `core`'s stall on `line` (NACKed by `holder`) and wake `poll`
  /// when an event could change the verdict. The wake triggers:
  ///  - `holder` releases isolation;
  ///  - a core numbered below `holder` notes a line whose columns cover
  ///    `line` (it may become the first hitting core);
  ///  - `holder` notes `line` itself (the exact flag may change);
  ///  - `core` is doomed (wake_requester, from HtmSystem::doom);
  ///  - resync and a registered suspended summary (wake_all).
  /// Returns false, watching nothing, when the verdict depends on more than
  /// these: the requester-wins policy and suspended-summary NACKs.
  bool watch(CoreId core, LineAddr line, bool is_write, CoreId holder,
             sim::ParkedPoll& poll);
  /// Count one NACK re-confirmed by a parked poll.
  void count_nack(bool exact) {
    ++stats_.conflicts;
    if (!exact) ++stats_.false_conflicts;
  }
  /// Wake `core`'s parked poll, if any.
  void wake_requester(CoreId core) {
    if (watched_ & (1ull << core)) [[unlikely]] wake(core);
  }
  /// Wake every parked poll.
  void wake_all();

  /// Rebuild `core`'s column bits from a transaction whose signatures were
  /// restored wholesale (deschedule/resume round trip) rather than grown
  /// add-by-add through note_read/note_write.
  void resync(CoreId core, const Txn& t);

  /// The requester's access succeeded or its transaction ended: drop its
  /// wait-for edge.
  void clear_wait(CoreId core);

  /// Summary signatures of suspended transactions (paper Section IV-C /
  /// LogTM-SE): accesses conflicting with a descheduled transaction's sets
  /// stall until it is resumed and finishes. Pass nullptr to clear.
  void set_suspended_summary(const Signature* reads, const Signature* writes) {
    suspended_reads_ = reads;
    suspended_writes_ = writes;
    if (reads != nullptr || writes != nullptr) wake_all();
  }

  const ConflictStats& stats() const { return stats_; }

  /// Cores whose transaction currently holds isolation (the checker's
  /// grant audit short-circuits when nobody else does).
  std::uint64_t isolation_mask() const { return isolation_mask_; }

  /// Candidate mask the latest check() computed (columns AND isolation,
  /// requester excluded) and whether suspended summaries could have hit.
  /// Valid only inside the event that issued the check: the checker's
  /// grant audit, which runs immediately after a granted access, reuses
  /// it as its first filter (exact sets are subsets of the signatures,
  /// which are subsets of the columns, so a zero mask proves no live
  /// transaction holds the line). Initialized conservatively so a grant
  /// audit driven without a preceding check() still takes the slow scan.
  std::uint64_t grant_candidates() const { return grant_cand_; }
  bool grant_suspended_possible() const { return grant_susp_possible_; }

  /// Audit support: the raw column candidate mask for `line` (write or
  /// read columns, no isolation masking). audit_signatures uses it to
  /// prove the columns stay a superset of every live transaction's sets.
  std::uint64_t column_mask(LineAddr line, bool writes) const {
    return probe_columns(writes ? write_cols_ : read_cols_,
                         Signature::mix(line));
  }

  /// Observability: check() records an abort edge whenever it picks a
  /// victim (deadlock cycle, requester-wins, lazy-reader invalidation).
  void set_obs(obs::Recorder* r) { obs_ = r; }

 private:
  /// The rest of check(): scan the candidate cores' real signatures, apply
  /// the stall/requester-wins policy and deadlock detection. `lm` is the
  /// precomputed line mix, `cand` the masked candidate-core set.
  Decision check_slow(CoreId core, LineAddr line, bool is_write,
                      bool requester_lazy, const std::vector<Txn*>& txns,
                      std::uint64_t lm, std::uint64_t cand);

  /// Walk the wait-for chain from `start`; returns true if it reaches
  /// `target` (a cycle, given target is about to wait on start's chain).
  bool reaches(CoreId start, CoreId target) const;

  // ---- bit-sliced signature columns ---------------------------------------
  // cols[idx] holds one bit per core: set iff that core's signature has
  // filter bit `idx` set (or had it set since the core's last isolation
  // release -- stale supersets are harmless, the scan re-tests the real
  // signatures). Probing all cores therefore costs k column loads TOTAL
  // instead of k loads per active core: with the same (b, step) walk as
  // Signature::test_mixed, AND-ing the k columns yields the mask of cores
  // whose signature passes every probe.
  std::uint64_t probe_columns(const std::vector<std::uint64_t>& cols,
                              std::uint64_t m) const {
    std::uint32_t b = static_cast<std::uint32_t>(m);
    const std::uint32_t step = static_cast<std::uint32_t>(m >> 32) | 1u;
    std::uint64_t hit = ~0ull;
    for (std::uint32_t i = 0; i < col_k_; ++i, b += step) {
      hit &= cols[b & (col_bits_ - 1)];
      if (hit == 0) break;  // sparse columns: most probes die on load 1-2
    }
    return hit;
  }

  void set_column_bits(std::vector<std::uint64_t>& cols, CoreId core,
                       std::uint64_t m) {
    std::uint32_t b = static_cast<std::uint32_t>(m);
    const std::uint32_t step = static_cast<std::uint32_t>(m >> 32) | 1u;
    for (std::uint32_t i = 0; i < col_k_; ++i, b += step) {
      cols[b & (col_bits_ - 1)] |= 1ull << core;
    }
  }

  void clear_columns(CoreId core);

  struct Watch {
    LineAddr line = 0;
    std::uint64_t lm = 0;  // Signature::mix(line)
    CoreId holder = kNoCore;
    bool is_write = false;
    sim::ParkedPoll* poll = nullptr;
  };
  /// Drop `core`'s watch and wake its poll.
  void wake(CoreId core);
  void wake_on_release(CoreId holder);
  void wake_on_note(CoreId core, LineAddr l, bool write);
  /// Add `core`'s watch to watch_cover_ and watched_bits_.
  void add_watched(CoreId core);

  /// A note can only change a watched verdict by setting a column bit of a
  /// watched line: a core numbered below the holder did not cover the line
  /// at the NACK, and the holder's own note of the line sets its bits.
  bool hits_watched(std::uint64_t m) const {
    std::uint32_t b = static_cast<std::uint32_t>(m);
    const std::uint32_t step = static_cast<std::uint32_t>(m >> 32) | 1u;
    for (std::uint32_t i = 0; i < col_k_; ++i, b += step) {
      const std::uint32_t idx = b & (col_bits_ - 1);
      if ((watched_bits_[idx >> 6] >> (idx & 63u)) & 1u) return true;
    }
    return false;
  }

  std::vector<CoreId> waits_for_;  // kNoCore if not waiting
  std::uint64_t isolation_mask_ = 0;  // cores whose txn holds isolation
  std::uint64_t grant_cand_ = ~0ull;     // see grant_candidates()
  bool grant_susp_possible_ = true;
  sim::ConflictPolicy policy_;
  std::uint32_t col_bits_;  // == Signature bits of every probed txn
  std::uint32_t col_k_;     // == Signature hash count of every probed txn
  std::vector<std::uint64_t> read_cols_;   // col_bits_ words, bit per core
  std::vector<std::uint64_t> write_cols_;  // col_bits_ words, bit per core
  /// Per-core journal of noted line mixes; clear_columns scrubs exactly
  /// these positions (in both column arrays -- conservative but cheap)
  /// instead of sweeping every word. A resync installs bits the journal
  /// never saw, so it flags the core for one full-sweep clear instead.
  std::vector<std::vector<std::uint64_t>> touched_;
  std::vector<std::uint8_t> needs_full_clear_;
  const Signature* suspended_reads_ = nullptr;
  const Signature* suspended_writes_ = nullptr;
  ConflictStats stats_;
  obs::Recorder* obs_ = nullptr;
  std::vector<Watch> watches_;     // by requester core
  std::uint64_t watched_ = 0;      // requesters with a watch
  /// Cores whose release or notes can wake a watch: every holder and every
  /// core numbered below one.
  std::uint64_t watch_cover_ = 0;
  /// Column positions of every watched line (col_bits_ bits).
  std::vector<std::uint64_t> watched_bits_;
};

}  // namespace suvtm::htm
