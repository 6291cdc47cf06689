#include "vm/suv_vm.hpp"

#include <cassert>

#include "obs/recorder.hpp"

namespace suvtm::vm {

namespace {
Addr with_line(LineAddr l, Addr original) {
  return addr_of_line(l) | (original & (kLineBytes - 1));
}
}  // namespace

SuvVm::SuvVm(const sim::SuvParams& p, mem::MemorySystem& mem,
             std::uint32_t num_cores)
    : params_(p), mem_(mem), table_(p, num_cores), owned_(num_cores),
      suspended_owned_(num_cores) {
  pools_.reserve(num_cores);
  for (std::uint32_t c = 0; c < num_cores; ++c) {
    pools_.push_back(std::make_unique<suv::PreservedPool>(c));
  }
}

htm::LoadAction SuvVm::resolve_load(CoreId core, htm::Txn* txn, Addr a) {
  if (txn) ++stats_.tx_loads;
  const auto res = table_.lookup(core, line_of(a));
  if (!res.entry) return {a, res.squash, res.probe, std::nullopt};
  const LineAddr target = res.entry->resolve_for(core);
  return {with_line(target, a), res.squash, res.probe, std::nullopt};
}

Addr SuvVm::debug_resolve(CoreId core, Addr a) const {
  const suv::RedirectEntry* e = table_.find(line_of(a));
  if (!e) return a;
  return with_line(e->resolve_for(core), a);
}

htm::StoreAction SuvVm::on_tx_store(htm::Txn& txn, Addr a) {
  ++stats_.tx_stores;
  const LineAddr line = line_of(a);
  const auto res = table_.lookup(txn.core, line);
  Cycle extra = res.squash;
  const Cycle probe = res.probe;

  if (!res.entry) {
    // Fresh redirect: allocate a pool line, seed it with the line's current
    // content (one in-cache copy), install the transient entry. The store
    // itself then lands at the redirected address -- the single update. The
    // target line materializes directly in the L1 (its data came from the
    // copy), so no memory fetch happens for it.
    const LineAddr target = pools_[txn.core]->allocate();
    mem_.backing().copy_line(line, target);
    if (mem_.install_line(txn.core, target)) {
      txn.overflowed = true;
      on_spec_eviction(txn, target);
    }
    suv::RedirectEntry e{line, target, suv::EntryState::kTxnRedirect, txn.core};
    extra += table_.insert_transient(e) + params_.redirect_copy_latency;
    owned_[txn.core].push_back(line);
    ++sstats_.entries_created;
    return {with_line(target, a), extra, probe, false};
  }

  suv::RedirectEntry* e = table_.find(line);
  assert(e);
  switch (e->state) {
    case suv::EntryState::kTxnRedirect:
      assert(e->owner == txn.core && "conflict detection admitted a foreign store");
      return {with_line(e->target, a), extra, probe, false};
    case suv::EntryState::kTxnUnredirect:
      assert(e->owner == txn.core && "conflict detection admitted a foreign store");
      return {with_line(e->original, a), extra, probe, false};
    case suv::EntryState::kGlobalRedirect: {
      // Toggle: redirect back to the original address (paper Figure 4(d)).
      // New values build in the original line; the global target keeps the
      // old version for abort. Commit deletes the entry entirely, which is
      // SUV's entry-count reduction feature. The copy materializes the
      // original line in the L1.
      mem_.backing().copy_line(e->target, e->original);
      if (mem_.install_line(txn.core, e->original)) {
        txn.overflowed = true;
        on_spec_eviction(txn, e->original);
      }
      e->state = suv::EntryState::kTxnUnredirect;
      e->owner = txn.core;
      extra += table_.pin_transient(txn.core, line) + params_.redirect_copy_latency;
      owned_[txn.core].push_back(line);
      ++sstats_.entries_toggled;
      return {with_line(e->original, a), extra, probe, false};
    }
    case suv::EntryState::kInvalid:
    default:
      assert(false && "invalid entries must not be reachable from the table");
      return {a, extra, probe, false};
  }
}

Cycle SuvVm::overflow_flip_cost(const htm::Txn& txn) const {
  const std::size_t owned = owned_[txn.core].size();
  const std::size_t cap = table_.l1_capacity();
  if (owned <= cap) return 0;
  // Spilled entries flip through the shared second-level table, one access
  // plus a cycle per entry.
  return params_.l2_table_latency +
         static_cast<Cycle>(owned - cap);
}

Cycle SuvVm::commit_cost(htm::Txn& txn) {
  Cycle c = params_.flash_commit + overflow_flip_cost(txn);
  if (owned_[txn.core].size() > table_.l1_capacity()) {
    ++sstats_.table_overflow_txns;
  }
  SUVTM_OBS_HOOK(obs_, on_suv_flash(txn.core, /*commit=*/true,
                                    owned_[txn.core].size()));
  return c;
}

void SuvVm::on_commit_done(htm::Txn& txn) {
  for (LineAddr line : owned_[txn.core]) {
    const auto out = table_.commit_entry(line);
    if (out.deleted) {
      ++sstats_.entries_deleted;
      pools_[suv::PreservedPool::owner_of(out.target)]->release(out.target);
    } else {
      // The original line's storage is now dead (all accesses go to the
      // target); the paper reclaims it for later redirections, this model
      // does not (suv/pool.hpp).
      ++sstats_.entries_published;
    }
  }
  owned_[txn.core].clear();
  mem_.clear_speculative(txn.core);
}

Cycle SuvVm::abort_cost(htm::Txn& txn) {
  SUVTM_OBS_HOOK(obs_, on_suv_flash(txn.core, /*commit=*/false,
                                    owned_[txn.core].size()));
  return params_.flash_abort + overflow_flip_cost(txn);
}

Cycle SuvVm::partial_abort(htm::Txn& txn, std::size_t mark) {
  // Flash-flip only the transient entries the discarded frame created; the
  // outer frame's entries (and any toggles it made) survive untouched.
  auto& owned = owned_[txn.core];
  while (owned.size() > mark) {
    const auto out = table_.abort_entry(owned.back());
    if (out.deleted) {
      ++sstats_.entries_discarded;
      pools_[suv::PreservedPool::owner_of(out.target)]->release(out.target);
    } else {
      ++sstats_.entries_reverted;
    }
    owned.pop_back();
  }
  return params_.flash_abort;
}

void SuvVm::on_suspend(CoreId core) {
  // The ownership list is keyed by core, not by transaction: park it with
  // the suspended transaction or the core's NEXT transaction inherits the
  // suspended one's transient entries and flash-flips them at its own
  // commit/abort (publishing or discarding a parked transaction's specula-
  // tive versions).
  suspended_owned_[core].push_back(std::move(owned_[core]));
  owned_[core].clear();
}

void SuvVm::on_resume(CoreId core) {
  // HtmSystem::resume_txn restores the FIRST suspended transaction for the
  // core; restore its ownership list in the same FIFO order.
  assert(owned_[core].empty() &&
         "resume with a running transaction's entries still live");
  assert(!suspended_owned_[core].empty());
  owned_[core] = std::move(suspended_owned_[core].front());
  suspended_owned_[core].erase(suspended_owned_[core].begin());
}

void SuvVm::on_abort_done(htm::Txn& txn) {
  for (LineAddr line : owned_[txn.core]) {
    const auto out = table_.abort_entry(line);
    if (out.deleted) {
      ++sstats_.entries_discarded;
      pools_[suv::PreservedPool::owner_of(out.target)]->release(out.target);
    } else {
      // A toggled entry reverted to kGlobalRedirect; nothing to free.
      ++sstats_.entries_reverted;
    }
  }
  owned_[txn.core].clear();
  // No invalidations: the original lines still hold the pre-transaction
  // values (single-update property); pool lines are simply released.
  mem_.clear_speculative(txn.core);
}

}  // namespace suvtm::vm
