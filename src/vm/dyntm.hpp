// DynTM (Lupon et al., MICRO'10): a history-based selector picks an eager
// or lazy execution mode per static transaction site. Eager transactions
// run exactly like the backing version manager (FasTM in the original
// paper, SUV in the paper's DynTM+SUV variant). Lazy transactions buffer
// their writes, skip eager read-write conflicts, and resolve conflicts at
// commit time (committer wins) behind a commit token.
//
// The Figure 9 difference this reproduces: with the FasTM backend a lazy
// commit must *publish* its write set line by line (the Committing bucket);
// with SUV the writes are already sitting in redirected locations, so
// publication is a flash flip and Committing nearly vanishes.
#pragma once

#include <cstdint>
#include <memory>

#include "common/flat_hash.hpp"
#include "common/stats_block.hpp"
#include "htm/version_manager.hpp"
#include "mem/memory_system.hpp"
#include "sim/config.hpp"

namespace suvtm::vm {

/// Per-site 2-bit saturating mode predictor. An abort suffered in eager
/// mode pushes the site toward lazy execution (eager handling of its
/// conflicts is losing); an abort suffered in lazy mode pushes it back
/// toward eager (committer-wins is slaughtering it); commits mildly
/// reinforce the mode that produced them. Quiet sites settle eager,
/// contended sites settle wherever their aborts are cheaper.
class ModeSelector {
 public:
  explicit ModeSelector(std::uint32_t bits = 2)
      : max_(static_cast<std::uint8_t>((1u << bits) - 1)),
        threshold_(static_cast<std::uint8_t>(1u << (bits - 1))) {}

  bool predict_lazy(std::uint32_t site) const {
    auto it = counters_.find(site);
    const std::uint8_t v = it == counters_.end() ? threshold_ : it->second;
    return v >= threshold_;
  }
  void record_abort(std::uint32_t site, bool was_lazy) {
    auto& v = counter(site);
    if (was_lazy) {
      if (v > 0) --v;  // lazy mode is losing work to committer-wins
    } else {
      if (v < max_) ++v;  // eager stalls/cycles are losing: go lazy
    }
  }
  void record_commit(std::uint32_t site, bool /*was_lazy*/) {
    // Commits always drift a site toward eager: eager commits are the
    // cheap case, so a site only stays lazy while eager-mode aborts keep
    // pushing it back.
    auto& v = counter(site);
    if (v > 0) --v;
  }

 private:
  std::uint8_t& counter(std::uint32_t site) {
    auto [it, inserted] = counters_.try_emplace(site, threshold_);
    return it->second;
  }
  std::uint8_t max_;
  std::uint8_t threshold_;
  FlatMap<std::uint32_t, std::uint8_t> counters_;
};

#define SUVTM_DYNTM_STATS(X)                                     \
  X(eager_txns)                                                   \
  X(lazy_txns)                                                    \
  X(lazy_commit_dooms)  /* victims of committer-wins */           \
  X(redo_overflows)     /* lazy write buffer exceeded the L1 */

struct DynTmStats {
  SUVTM_STATS_BLOCK(DynTmStats, SUVTM_DYNTM_STATS)
};

class DynTm final : public htm::VersionManager {
 public:
  /// `inner` handles eager-mode transactions (and, when `suv_backend`, the
  /// physical store redirection of lazy ones too).
  DynTm(const sim::HtmParams& p, mem::MemorySystem& mem,
        std::unique_ptr<htm::VersionManager> inner, bool suv_backend);

  const char* name() const override {
    return suv_backend_ ? "DynTM+SUV" : "DynTM";
  }

  void attach(htm::HtmSystem& htm) override;
  void set_obs(obs::Recorder* r) override {
    htm::VersionManager::set_obs(r);
    inner_->set_obs(r);
  }

  Cycle on_begin(htm::Txn& txn) override;
  bool commit_ready(htm::Txn& txn) override;
  htm::LoadAction resolve_load(CoreId core, htm::Txn* txn, Addr a) override;
  htm::StoreAction on_tx_store(htm::Txn& txn, Addr a) override;
  Cycle commit_cost(htm::Txn& txn) override;
  void on_commit_done(htm::Txn& txn) override;
  Cycle abort_cost(htm::Txn& txn) override;
  void on_abort_done(htm::Txn& txn) override;
  void on_spec_eviction(htm::Txn& txn, LineAddr l) override;
  std::size_t nest_mark(const htm::Txn& txn) const override {
    return lazy_buffer_mode(txn) ? 0 : inner_->nest_mark(txn);
  }
  bool supports_partial_abort(const htm::Txn& txn) const override {
    return !lazy_buffer_mode(txn);
  }
  Cycle partial_abort(htm::Txn& txn, std::size_t mark) override {
    return inner_->partial_abort(txn, mark);
  }
  void on_suspend(CoreId core) override { inner_->on_suspend(core); }
  void on_resume(CoreId core) override { inner_->on_resume(core); }

  Addr debug_resolve(CoreId core, Addr a) const override {
    return inner_->debug_resolve(core, a);
  }

  htm::VersionManager& inner() { return *inner_; }
  const DynTmStats& dyntm_stats() const { return dstats_; }
  ModeSelector& selector() { return selector_; }

 private:
  void doom_conflicting(const htm::Txn& committer);
  bool lazy_buffer_mode(const htm::Txn& txn) const {
    return txn.lazy && !suv_backend_;
  }

  sim::HtmParams params_;
  mem::MemorySystem& mem_;
  std::unique_ptr<htm::VersionManager> inner_;
  bool suv_backend_;
  ModeSelector selector_;
  DynTmStats dstats_;
};

}  // namespace suvtm::vm
