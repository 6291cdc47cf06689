#include "htm/htm_system.hpp"

#include <cassert>

#include "check/check.hpp"
#include "obs/recorder.hpp"

namespace suvtm::htm {

HtmSystem::HtmSystem(const sim::SimConfig& cfg, mem::MemorySystem& mem,
                     std::unique_ptr<VersionManager> vm)
    : params_(cfg.htm), mem_(mem), vm_(std::move(vm)),
      conflicts_(cfg.mem.num_cores, cfg.htm.conflict_policy,
                 cfg.htm.signature_bits, cfg.htm.signature_hashes),
      suspended_reads_(cfg.htm.signature_bits, cfg.htm.signature_hashes),
      suspended_writes_(cfg.htm.signature_bits, cfg.htm.signature_hashes) {
  txns_.reserve(cfg.mem.num_cores);
  for (CoreId c = 0; c < cfg.mem.num_cores; ++c) {
    // lint: allow(alloc-in-loop) -- one-time construction, not a sim path
    txns_.push_back(std::make_unique<Txn>(c, params_.signature_bits,
                                          params_.signature_hashes));
    txn_view_.push_back(txns_.back().get());
  }
  vm_->attach(*this);
}

void HtmSystem::rebuild_suspended_summary() {
  // Bloom filters cannot subtract, so the summary is recomputed from the
  // suspended transactions' exact sets on every change (LogTM-SE does the
  // equivalent in its deschedule handler).
  suspended_reads_.clear();
  suspended_writes_.clear();
  for (const auto& s : suspended_) {
    for (LineAddr l : s.txn.read_lines) suspended_reads_.add(l);
    for (LineAddr l : s.txn.write_lines) suspended_writes_.add(l);
  }
  if (suspended_.empty()) {
    conflicts_.set_suspended_summary(nullptr, nullptr);
  } else {
    conflicts_.set_suspended_summary(&suspended_reads_, &suspended_writes_);
  }
}

bool HtmSystem::suspend_txn(CoreId core) {
  Txn& t = *txns_[core];
  if (t.state != TxnState::kRunning) return false;
  suspended_.push_back({core, t});
  // The checker sees the suspend while the descriptor still holds the
  // transaction's sets.
  SUVTM_CHECK_HOOK(checker_, on_suspend(core));
  t.reset_committed();  // fresh descriptor for the next scheduled thread
  conflicts_.set_isolation(core, false);
  rebuild_suspended_summary();
  vm_->on_suspend(core);
  SUVTM_OBS_HOOK(obs_, on_suspend(core));
  return true;
}

bool HtmSystem::resume_txn(CoreId core) {
  if (txns_[core]->active()) return false;
  for (auto it = suspended_.begin(); it != suspended_.end(); ++it) {
    if (it->core == core) {
      *txns_[core] = it->txn;  // saved state was kRunning: isolation resumes
      conflicts_.set_isolation(core, true);
      conflicts_.resync(core, *txns_[core]);
      suspended_.erase(it);
      rebuild_suspended_summary();
      vm_->on_resume(core);
      SUVTM_CHECK_HOOK(checker_, on_resume(core));
      SUVTM_OBS_HOOK(obs_, on_resume(core));
      return true;
    }
  }
  return false;
}

std::size_t HtmSystem::doom_suspended_conflicting(const Txn& committer) {
  std::size_t doomed = 0;
  for (auto& s : suspended_) {
    if (s.txn.doomed) continue;
    for (LineAddr l : committer.write_lines) {
      if (s.txn.read_lines.contains(l) || s.txn.write_lines.contains(l)) {
        s.txn.doomed = true;
        s.txn.doom_cause = AbortCause::kSuspendedConflict;
        SUVTM_OBS_HOOK(obs_,
                       on_conflict_edge(committer.core, s.core, l, s.txn.site,
                                        AbortCause::kSuspendedConflict));
        ++doomed;
        break;
      }
    }
  }
  return doomed;
}

void HtmSystem::doom(CoreId victim, AbortCause cause) {
  Txn& t = *txns_[victim];
  if (!t.active() || t.state == TxnState::kCommitting) return;
  if (!t.doomed) t.doom_cause = cause;
  t.doomed = true;
  conflicts_.wake_requester(victim);
}

bool HtmSystem::acquire_commit_token(CoreId c) {
  if (token_holder_ != kNoCore && token_holder_ != c) return false;
  token_holder_ = c;
  return true;
}

void HtmSystem::release_commit_token(CoreId c) {
  assert(token_holder_ == c);
  (void)c;
  token_holder_ = kNoCore;
}

}  // namespace suvtm::htm
