// ThreadContext: the per-core bridge between workload coroutines and the
// simulator. Every awaitable here suspends the calling coroutine on the
// event scheduler and resumes it when the simulated operation completes;
// transactional aborts surface as TxAbort exceptions from await_resume.
#pragma once

#include <coroutine>
#include <cstdint>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "obs/obs.hpp"
#include "sim/barrier.hpp"
#include "sim/breakdown.hpp"
#include "sim/config.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"

namespace suvtm::check {
class Checker;
}
namespace suvtm::htm {
class HtmSystem;
struct Txn;
}
namespace suvtm::mem {
class MemorySystem;
}

namespace suvtm::sim {

struct RemotePort;

class ThreadContext {
 public:
  /// `port` is non-null only on a sharded machine (sim/shard.hpp): it lets
  /// this core route non-transactional loads of foreign-shard addresses
  /// through the window-boundary mailboxes.
  ThreadContext(CoreId core, const SimConfig& cfg, Scheduler& sched,
                mem::MemorySystem& mem, htm::HtmSystem& htm,
                Breakdown& breakdown, std::uint64_t rng_seed,
                check::Checker* checker = nullptr,
                obs::Recorder* obs = nullptr,
                const RemotePort* port = nullptr);

  // ---- awaitables ----------------------------------------------------------

  struct MemAwaiter {
    ThreadContext& tc;
    Addr addr;
    std::uint64_t store_value;
    bool is_store;
    bool rmw = false;  // load with store intent (exclusive permission)
    std::uint64_t value = 0;
    bool aborted = false;

    bool await_ready() const noexcept { return false; }
    /// Returns false (continue without suspending) when the access completed
    /// on the non-transactional fast path -- see issue_mem.
    bool await_suspend(std::coroutine_handle<> h) {
      return tc.issue_mem(*this, h);
    }
    std::uint64_t await_resume() const {
      if (aborted) throw TxAbort{};
      return value;
    }
  };

  struct BeginAwaiter {
    ThreadContext& tc;
    std::uint32_t site;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { tc.issue_begin(*this, h); }
    void await_resume() const noexcept {}
  };

  struct CommitAwaiter {
    ThreadContext& tc;
    bool aborted = false;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { tc.issue_commit(*this, h); }
    void await_resume() const {
      if (aborted) throw TxAbort{};
    }
  };

  struct ComputeAwaiter {
    ThreadContext& tc;
    Cycle cycles;
    bool await_ready() const noexcept { return cycles == 0; }
    bool await_suspend(std::coroutine_handle<> h) {
      return tc.issue_compute(*this, h);
    }
    void await_resume() const noexcept {}
  };

  struct BackoffAwaiter {
    ThreadContext& tc;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { tc.issue_backoff(*this, h); }
    void await_resume() const noexcept {}
  };

  struct RollbackInnerAwaiter {
    ThreadContext& tc;
    bool aborted = false;    // fell back to a full abort
    bool rolled_back = false;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      tc.issue_rollback_inner(*this, h);
    }
    bool await_resume() const {
      if (aborted) throw TxAbort{};
      return rolled_back;
    }
  };

  struct BarrierAwaiter {
    ThreadContext& tc;
    Barrier::Waiter inner;
    bool await_ready() const noexcept { return false; }
    bool await_suspend(std::coroutine_handle<> h) { return inner.await_suspend(h); }
    void await_resume() const {
      tc.breakdown_.add(Bucket::kBarrier, inner.await_resume());
    }
  };

  /// Load the 64-bit word at `a` (transactional when inside tx()).
  MemAwaiter load(Addr a) { return {*this, a, 0, false}; }
  /// Load with store intent: takes exclusive coherence permission up front,
  /// the way compiled read-modify-write sequences do. Avoids the classic
  /// read-then-upgrade deadlock on hot words (queue heads, counters).
  MemAwaiter load_rmw(Addr a) { return {*this, a, 0, false, true}; }
  /// Store `v` to the 64-bit word at `a`.
  MemAwaiter store(Addr a, std::uint64_t v) { return {*this, a, v, true}; }
  /// Begin a transaction at static site `site` (nesting supported).
  BeginAwaiter tx_begin(std::uint32_t site = 0) { return {*this, site}; }
  /// Commit the innermost transaction.
  CommitAwaiter tx_commit() { return {*this}; }
  /// Burn `n` cycles of non-memory work.
  ComputeAwaiter compute(Cycle n) { return {*this, n}; }
  /// Post-abort randomized exponential backoff.
  BackoffAwaiter backoff() { return {*this}; }
  /// Partially abort the innermost nested frame (paper Section IV-C closed
  /// nesting): the frame's version state rolls back and the frame is
  /// popped, leaving the outer transaction running. Returns true on a
  /// partial rollback; throws TxAbort if the scheme cannot partially abort
  /// (DynTM lazy mode) or the transaction is already doomed -- the full
  /// retry loop handles those. Must be called at depth > 1.
  RollbackInnerAwaiter tx_rollback_inner() { return {*this}; }
  /// Wait at `b`; time is charged to the Barrier bucket. Any fast-path
  /// run-ahead is folded into the recorded arrival time: the core arrives
  /// in scheduler order, but its wait is measured from the cycle it
  /// logically reached the barrier (now + skew).
  BarrierAwaiter barrier(Barrier& b) {
    Barrier::Waiter w = b.arrive();
    w.arrived_at += skew_;
    skew_ = 0;
    return {*this, w};
  }

  CoreId core() const { return core_; }
  bool in_tx() const;
  Rng& rng() { return rng_; }
  Breakdown& breakdown() { return breakdown_; }

 private:
  friend struct MemAwaiter;
  friend struct BeginAwaiter;
  friend struct CommitAwaiter;
  friend struct ComputeAwaiter;
  friend struct BackoffAwaiter;
  friend struct RollbackInnerAwaiter;

  htm::Txn& txn();

  /// issue_mem/issue_compute return true when the coroutine suspended on
  /// the scheduler, false when the operation completed synchronously on the
  /// non-transactional fast path (the caller continues without a queue
  /// round trip, `skew_` cycles ahead of the scheduler clock).
  bool issue_mem(MemAwaiter& aw, std::coroutine_handle<> h);
  /// Foreign-shard access: post a RemoteMsg to the owner's mailbox (the
  /// merger replies at the next window boundary). Throws check::CheckFailure
  /// for anything but a non-transactional load -- the sharded-machine
  /// purity contract (sim/config.hpp PdesParams).
  bool issue_remote(MemAwaiter& aw, std::coroutine_handle<> h,
                    std::uint32_t owner);
  void issue_begin(BeginAwaiter& aw, std::coroutine_handle<> h);
  void issue_commit(CommitAwaiter& aw, std::coroutine_handle<> h);
  bool issue_compute(ComputeAwaiter& aw, std::coroutine_handle<> h);
  void issue_backoff(BackoffAwaiter& aw, std::coroutine_handle<> h);
  void issue_rollback_inner(RollbackInnerAwaiter& aw,
                            std::coroutine_handle<> h);

  /// Enter kAborting, pay the version manager's rollback cost while
  /// isolation is still held, then resume `h` with `*aborted` set.
  void start_abort(bool* aborted, std::coroutine_handle<> h);

  /// The retry of a NACKed access, parked on the scheduler (DESIGN.md
  /// section 12). At most one per core: the requester is suspended on it.
  struct StallPoll final : ParkedPoll {
    ThreadContext* tc = nullptr;
    MemAwaiter* aw = nullptr;
    std::coroutine_handle<> h;
    bool tx = false;     // the stalled access is transactional
    bool exact = false;  // the holder's exact sets hold the line
    void on_nack() override;
    void on_repoll() override;
  };

  /// Count one NACKed poll of the stalled access: its stall cycles.
  void add_stall_cycles(bool tx);

  CoreId core_;
  const SimConfig& cfg_;
  Scheduler& sched_;
  mem::MemorySystem& mem_;
  htm::HtmSystem& htm_;
  Breakdown& breakdown_;
  AttemptAccount attempt_;
  Rng rng_;
  check::Checker* checker_;  // nullptr unless correctness checking is on
  obs::Recorder* obs_;       // nullptr unless tracing/metrics is on
  const RemotePort* port_;   // nullptr unless the machine is sharded
  /// Non-transactional fast path: a core executing straight-line
  /// non-transactional L1 hits (and short compute) runs up to this many
  /// cycles ahead of the scheduler before synchronizing back through it.
  static constexpr Cycle kFastpathQuantum = 64;
  /// Fast-path run-ahead: cycles this core has consumed beyond the
  /// scheduler clock without a queue round trip. Bounded by
  /// kFastpathQuantum; folded into the next scheduled delay at every
  /// synchronization point (miss, stall, txn boundary, backoff, barrier).
  Cycle skew_ = 0;
  StallPoll stall_;
  /// Stall polls may go virtual: off with observability hooks (the sampler
  /// counts dispatched events) and under DynTM (a lazy holder's hit rule
  /// changes at commit, which no wake trigger sees; lazy requesters exist
  /// only there too).
  bool may_park_;
};

}  // namespace suvtm::sim
