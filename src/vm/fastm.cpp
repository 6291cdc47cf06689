#include "vm/fastm.hpp"

#include "mem/cache.hpp"
#include "obs/recorder.hpp"
#include "vm/logtm_se.hpp"

namespace suvtm::vm {

htm::StoreAction FasTm::on_tx_store(htm::Txn& txn, Addr a) {
  ++stats_.tx_stores;
  const LineAddr line = line_of(a);
  Cycle extra = 0;

  if (txn.degenerated) {
    // LogTM-SE path: pay log maintenance for words not yet logged.
    extra = log_undo_word(txn, a, mem_, params_, stats_, /*charge_cycles=*/true);
    return {a, extra, false};
  }

  // Fast path. Functionally capture the old word for rollback (the hardware
  // keeps it in L2; zero model cost). First write to a *dirty* resident line
  // pushes the old line down first.
  if (txn.write_lines.count(line) == 0) {
    const mem::Cache::Line* ln = mem_.l1(txn.core).find(line);
    if (ln && ln->state == mem::CohState::kModified && !ln->speculative) {
      extra += params_.fastm_writeback_extra;
    }
  }
  log_undo_word(txn, a, mem_, params_, stats_, /*charge_cycles=*/false);
  return {a, extra, false};
}

Cycle FasTm::commit_cost(htm::Txn&) { return params_.fastm_flash_commit; }

void FasTm::on_commit_done(htm::Txn& txn) {
  mem_.clear_speculative(txn.core);
}

Cycle FasTm::abort_cost(htm::Txn& txn) {
  if (!txn.degenerated) return params_.fastm_flash_abort;
  // Degenerated: flash what is still in the L1, walk the software log for
  // the words stored after degeneration.
  const Cycle walked =
      static_cast<Cycle>(txn.undo.size() - txn.degen_undo_mark);
  SUVTM_OBS_HOOK(obs_, on_undo_walk(walked));
  return params_.fastm_flash_abort + params_.abort_trap_latency +
         params_.abort_per_entry * walked;
}

void FasTm::on_abort_done(htm::Txn& txn) {
  // Old values come back by invalidating SM lines (demand refetch pulls the
  // safe copies from L2); functionally we restore from the shadow log.
  restore_undo_log(txn, mem_);
  mem_.invalidate_speculative(txn.core);
}

Cycle FasTm::partial_abort(htm::Txn& txn, std::size_t mark) {
  // Restore the frame's words from the shadow log. On the fast path the
  // hardware refetches old lines from the L2 instead of walking a log, so
  // only degenerated transactions pay the per-entry software cost.
  std::size_t walked = 0;
  while (txn.undo.size() > mark) {
    const auto [addr, old] = txn.undo.back();
    mem_.store_word(addr, old);
    txn.logged_words.erase(addr);
    txn.undo.pop_back();
    ++walked;
  }
  if (txn.degenerated && txn.undo.size() < txn.degen_undo_mark) {
    txn.degen_undo_mark = txn.undo.size();
  }
  return txn.degenerated
             ? params_.abort_trap_latency / 2 +
                   params_.abort_per_entry * static_cast<Cycle>(walked)
             : params_.fastm_flash_abort;
}

void FasTm::on_spec_eviction(htm::Txn& txn, LineAddr) {
  ++stats_.data_overflows;
  ++stats_.spec_overflows;
  if (!txn.degenerated) {
    txn.degenerated = true;
    txn.degen_undo_mark = txn.undo.size();
    ++stats_.degenerations;
    SUVTM_OBS_HOOK(obs_, on_degeneration(txn.core));
  }
}

}  // namespace suvtm::vm
