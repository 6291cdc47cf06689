#include "htm/conflict_manager.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "obs/recorder.hpp"
#include "sim/scheduler.hpp"

namespace suvtm::htm {

ConflictManager::ConflictManager(std::uint32_t num_cores,
                                 sim::ConflictPolicy policy,
                                 std::uint32_t sig_bits,
                                 std::uint32_t sig_hashes)
    : waits_for_(num_cores, kNoCore),
      policy_(policy),
      col_bits_(sig_bits),
      col_k_(sig_hashes),
      read_cols_(sig_bits, 0),
      write_cols_(sig_bits, 0),
      touched_(num_cores),
      needs_full_clear_(num_cores, 0),
      watches_(num_cores),
      watched_bits_((sig_bits + 63) / 64, 0) {
  assert(num_cores <= 64 && "isolation/column masks are 64-bit words");
  assert(std::has_single_bit(sig_bits) && "signature bits must be a power of 2");
}

void ConflictManager::clear_columns(CoreId core) {
  std::vector<std::uint64_t>& journal = touched_[core];
  const std::uint64_t keep = ~(1ull << core);
  // Past ~bits/k journal entries the positions cover most of the filter
  // anyway; the sweep is cheaper and exact.
  if (needs_full_clear_[core] || journal.size() * col_k_ > col_bits_) {
    for (std::uint64_t& w : read_cols_) w &= keep;
    for (std::uint64_t& w : write_cols_) w &= keep;
    needs_full_clear_[core] = 0;
  } else {
    for (const std::uint64_t m : journal) {
      std::uint32_t b = static_cast<std::uint32_t>(m);
      const std::uint32_t step = static_cast<std::uint32_t>(m >> 32) | 1u;
      for (std::uint32_t i = 0; i < col_k_; ++i, b += step) {
        const std::uint32_t idx = b & (col_bits_ - 1);
        read_cols_[idx] &= keep;
        write_cols_[idx] &= keep;
      }
    }
  }
  journal.clear();
}

void ConflictManager::resync(CoreId core, const Txn& t) {
  clear_columns(core);
  const std::uint64_t bit = 1ull << core;
  const auto install = [&](std::vector<std::uint64_t>& cols,
                           const Signature& sig) {
    const auto& words = sig.words();
    for (std::size_t w = 0; w < words.size(); ++w) {
      for (std::uint64_t word = words[w]; word != 0; word &= word - 1) {
        cols[(w << 6) | static_cast<std::size_t>(std::countr_zero(word))] |=
            bit;
      }
    }
  };
  install(read_cols_, t.read_sig);
  install(write_cols_, t.write_sig);
  // The journal never saw these bits: the next release must sweep.
  needs_full_clear_[core] = 1;
  // Whole signatures changed at once, outside the note triggers.
  wake_all();
}

bool ConflictManager::reaches(CoreId start, CoreId target) const {
  CoreId cur = start;
  // The walk terminates: waits_for_ has at most one out-edge per core and we
  // bound the walk by the core count.
  for (std::size_t steps = 0; steps <= waits_for_.size(); ++steps) {
    if (cur == kNoCore) return false;
    if (cur == target) return true;
    cur = waits_for_[cur];
  }
  return false;
}

ConflictManager::Decision ConflictManager::check_slow(
    CoreId core, LineAddr line, bool is_write, bool requester_lazy,
    const std::vector<Txn*>& txns, std::uint64_t lm, std::uint64_t cand) {
  const Txn* self = txns[core];
  CoreId holder = kNoCore;
  bool exact = false;
  Decision d;
  // `cand` came from the inline bit-sliced pre-filter: cores outside it are
  // proven signature misses. This loop re-tests the survivors' real
  // signatures, so decisions are identical to the historical full per-core
  // scan (bit iteration walks cores in increasing order, matching the old
  // loop's tie-breaking).
  for (std::uint64_t m = cand; m != 0; m &= m - 1) {
    const CoreId c = static_cast<CoreId>(std::countr_zero(m));
    const Txn* t = txns[c];
    if (!t || !t->holds_isolation()) continue;
    const bool holder_lazy_running =
        t->lazy && t->state == TxnState::kRunning;
    bool hit;
    bool check_read_sig;
    if (holder_lazy_running) {
      // Buffered writes confer no coherence permission: only write-write
      // conflicts are eager against a running lazy transaction. A write to a
      // line the lazy transaction merely READ invalidates its cached copy,
      // which aborts it (it cannot revalidate its read set).
      hit = is_write && t->write_sig.test_mixed(lm);
      check_read_sig = false;
      if (!hit && is_write && t->read_sig.test_mixed(lm)) {
        d.invalidated_lazy_readers.push_back(c);
        continue;
      }
    } else if (requester_lazy) {
      // A lazy requester never blocks on readers; uncommitted in-place or
      // publishing write sets must still NACK it.
      hit = t->write_sig.test_mixed(lm);
      check_read_sig = false;
    } else {
      hit = is_write ? (t->read_sig.test_mixed(lm) || t->write_sig.test_mixed(lm))
                     : t->write_sig.test_mixed(lm);
      check_read_sig = is_write;
    }
    if (!hit) continue;
    holder = c;
    exact = t->write_lines.count(line) != 0 ||
            (check_read_sig && t->read_lines.count(line) != 0);
    d.exact = exact;
    break;
  }
  if (holder == kNoCore) {
    // Check the suspended-transaction summaries (descheduled transactions
    // still hold isolation; their sets live in the per-core summary).
    const bool susp_hit =
        (is_write && suspended_reads_ && suspended_reads_->test_mixed(lm)) ||
        (suspended_writes_ && suspended_writes_->test_mixed(lm));
    if (susp_hit) {
      ++stats_.conflicts;
      ++stats_.suspended_stalls;
      d.invalidated_lazy_readers.clear();
      d.action = Action::kStall;  // cannot abort a descheduled transaction
      return d;
    }
    // Proceeding: any lazy readers collected above really do get doomed by
    // this access's invalidation, so their abort edges are recorded here
    // (the stalling paths clear the list instead).
    for ([[maybe_unused]] CoreId r : d.invalidated_lazy_readers) {
      SUVTM_OBS_HOOK(obs_, on_conflict_edge(core, r, line, txns[r]->site,
                                            AbortCause::kLazyInvalidated));
    }
    clear_wait(core);
    return d;
  }

  // Requester-wins policy: doom the holder (unless it is already
  // committing) and let the requester spin until the holder's isolation
  // clears -- the paper's "guarantee the execution of the requester".
  // Timestamp priority prevents mutual-doom livelock: only an OLDER
  // requester may kill the holder; younger ones fall back to stalling.
  if (policy_ == sim::ConflictPolicy::kRequesterWins && self &&
      self->active() && txns[holder]->state != TxnState::kCommitting &&
      self->timestamp < txns[holder]->timestamp) {
    ++stats_.conflicts;
    ++stats_.requester_wins;
    d.invalidated_lazy_readers.clear();
    d.holder = holder;
    d.victim = holder;
    d.victim_cause = AbortCause::kRequesterWins;
    SUVTM_OBS_HOOK(obs_,
                   on_conflict_edge(core, holder, line, txns[holder]->site,
                                    AbortCause::kRequesterWins));
    d.action = Action::kStall;  // stall until the doomed holder drains
    return d;
  }

  ++stats_.conflicts;
  if (!exact) ++stats_.false_conflicts;

  d.invalidated_lazy_readers.clear();  // only doom readers when proceeding
  d.holder = holder;

  // Non-transactional requesters just stall; they hold nothing, so they can
  // never be part of a cycle.
  if (!self || !self->active()) {
    d.action = Action::kStall;
    return d;
  }

  // Record the wait-for edge, then look for a cycle: does the holder's
  // chain already reach us?
  waits_for_[core] = holder;
  if (reaches(holder, core)) {
    // Abort the youngest transaction in the cycle.
    ++stats_.deadlock_aborts;
    CoreId victim = core;
    std::uint64_t youngest = txns[core]->timestamp;
    for (CoreId cur = holder; cur != core; cur = waits_for_[cur]) {
      const Txn* t = txns[cur];
      // Committing transactions are past the point of no return.
      if (t && t->active() && t->state != TxnState::kCommitting &&
          t->timestamp > youngest) {
        youngest = t->timestamp;
        victim = cur;
      }
    }
    d.victim = victim;
    d.victim_cause = AbortCause::kDeadlockCycle;
    // Edge direction: the access that detected the cycle kills the victim;
    // when the victim is the requester itself, the holder it waited on is
    // the aborter.
    SUVTM_OBS_HOOK(obs_, on_conflict_edge(victim == core ? holder : core,
                                          victim, line, txns[victim]->site,
                                          AbortCause::kDeadlockCycle));
    d.action = victim == core ? Action::kAbortSelf : Action::kStall;
    if (victim != core) waits_for_[victim] = kNoCore;
    else waits_for_[core] = kNoCore;
    return d;
  }
  d.action = Action::kStall;
  return d;
}

void ConflictManager::clear_wait(CoreId core) { waits_for_[core] = kNoCore; }

bool ConflictManager::watch(CoreId core, LineAddr line, bool is_write,
                            CoreId holder, sim::ParkedPoll& poll) {
  if (policy_ != sim::ConflictPolicy::kRequesterStalls || holder == kNoCore ||
      suspended_reads_ != nullptr || suspended_writes_ != nullptr) {
    return false;
  }
  watches_[core] = Watch{line, Signature::mix(line), holder, is_write, &poll};
  watched_ |= 1ull << core;
  add_watched(core);
  return true;
}

void ConflictManager::add_watched(CoreId core) {
  const Watch& w = watches_[core];
  watch_cover_ |= (2ull << w.holder) - 1;  // the holder and every core below
  std::uint32_t b = static_cast<std::uint32_t>(w.lm);
  const std::uint32_t step = static_cast<std::uint32_t>(w.lm >> 32) | 1u;
  for (std::uint32_t i = 0; i < col_k_; ++i, b += step) {
    const std::uint32_t idx = b & (col_bits_ - 1);
    watched_bits_[idx >> 6] |= 1ull << (idx & 63u);
  }
}

void ConflictManager::wake(CoreId core) {
  watched_ &= ~(1ull << core);
  watch_cover_ = 0;
  std::fill(watched_bits_.begin(), watched_bits_.end(), 0);
  for (std::uint64_t m = watched_; m != 0; m &= m - 1) {
    add_watched(static_cast<CoreId>(std::countr_zero(m)));
  }
  sim::ParkedPoll* poll = watches_[core].poll;
  watches_[core] = Watch{};
  poll->wake();
}

void ConflictManager::wake_all() {
  for (std::uint64_t m = watched_; m != 0; m &= m - 1) {
    wake(static_cast<CoreId>(std::countr_zero(m)));
  }
}

void ConflictManager::wake_on_release(CoreId holder) {
  for (std::uint64_t m = watched_; m != 0; m &= m - 1) {
    const CoreId r = static_cast<CoreId>(std::countr_zero(m));
    if (watches_[r].holder == holder) wake(r);
  }
}

void ConflictManager::wake_on_note(CoreId core, LineAddr l, bool write) {
  const std::uint64_t bit = 1ull << core;
  for (std::uint64_t m = watched_; m != 0; m &= m - 1) {
    const CoreId r = static_cast<CoreId>(std::countr_zero(m));
    const Watch& w = watches_[r];
    bool may_change;
    if (w.holder == core) {
      may_change = w.line == l;
    } else if (w.holder > core && (write || w.is_write)) {
      // A read request conflicts only with write sets, so only a noted
      // write can make `core` its first hitting core.
      may_change = (probe_columns(write ? write_cols_ : read_cols_, w.lm) &
                    bit) != 0;
    } else {
      may_change = false;
    }
    if (may_change) wake(r);
  }
}

}  // namespace suvtm::htm
