// FasTM version management (Lupon et al., PACT'09): eager conflict
// detection with new values held in the L1 cache (SM-marked lines) and old
// values safe in the lower memory hierarchy.
//
// Fast path: the first transactional write to an L1-dirty line first writes
// the old line back to L2; no undo-log maintenance. Commit flash-clears SM
// bits; abort flash-invalidates SM lines (old values refetch on demand).
//
// Degenerate path: when an SM line is evicted (speculative state can no
// longer be contained in the L1), the transaction falls back to LogTM-SE
// behaviour from that point -- subsequent stores pay log maintenance and the
// abort becomes a software log walk (paper Section V-B: "degenerates to
// LogTM-SE when the L1 cache overflows").
#pragma once

#include <cstddef>

#include "htm/version_manager.hpp"
#include "mem/memory_system.hpp"
#include "sim/config.hpp"

namespace suvtm::vm {

class FasTm final : public htm::VersionManager {
 public:
  FasTm(const sim::HtmParams& p, mem::MemorySystem& mem)
      : params_(p), mem_(mem) {
    loads_in_place_ = true;  // resolve_load below is the identity action
  }

  const char* name() const override { return "FasTM"; }

  Cycle on_begin(htm::Txn&) override { return params_.fastm_begin_extra; }

  htm::LoadAction resolve_load(CoreId, htm::Txn*, Addr a) override {
    return {a, 0, 0, std::nullopt};
  }

  htm::StoreAction on_tx_store(htm::Txn& txn, Addr a) override;
  Cycle commit_cost(htm::Txn& txn) override;
  void on_commit_done(htm::Txn& txn) override;
  Cycle abort_cost(htm::Txn& txn) override;
  void on_abort_done(htm::Txn& txn) override;
  void on_spec_eviction(htm::Txn& txn, LineAddr l) override;
  Cycle partial_abort(htm::Txn& txn, std::size_t mark) override;

 private:
  sim::HtmParams params_;
  mem::MemorySystem& mem_;
};

}  // namespace suvtm::vm
