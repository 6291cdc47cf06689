#include "sim/thread_context.hpp"

#include <algorithm>
#include <cassert>

#include "check/check.hpp"
#include "htm/htm_system.hpp"
#include "obs/recorder.hpp"
#include "sim/scheduler.hpp"
#include "sim/shard.hpp"

namespace suvtm::sim {

ThreadContext::ThreadContext(CoreId core, const SimConfig& cfg,
                             Scheduler& sched, mem::MemorySystem& mem,
                             htm::HtmSystem& htm, Breakdown& breakdown,
                             std::uint64_t rng_seed, check::Checker* checker,
                             obs::Recorder* obs, const RemotePort* port)
    : core_(core), cfg_(cfg), sched_(sched), mem_(mem), htm_(htm),
      breakdown_(breakdown), rng_(rng_seed), checker_(checker), obs_(obs),
      port_(port),
      may_park_(obs == nullptr && cfg.scheme != Scheme::kDynTm &&
                cfg.scheme != Scheme::kDynTmSuv) {
  stall_.tc = this;
}

void ThreadContext::add_stall_cycles(bool tx) {
  const Cycle w = cfg_.htm.stall_retry_interval;
  if (tx) attempt_.add_stalled(w);
  else breakdown_.add(Bucket::kNoTrans, w);
}

void ThreadContext::StallPoll::on_nack() {
  tc->htm_.conflicts().count_nack(exact);
  tc->add_stall_cycles(tx);
}

void ThreadContext::StallPoll::on_repoll() {
  // The coroutine is suspended on the poll, so a fast-path completion
  // resumes it directly.
  if (!tc->issue_mem(*aw, h)) h.resume();
}

htm::Txn& ThreadContext::txn() { return htm_.txn(core_); }

bool ThreadContext::in_tx() const {
  return const_cast<ThreadContext*>(this)->txn().state ==
         htm::TxnState::kRunning;
}

void ThreadContext::start_abort(bool* aborted, std::coroutine_handle<> h) {
  htm::Txn& t = txn();
  assert(t.active());
  t.state = htm::TxnState::kAborting;
  // Undoomed paths reaching here are the nested-rollback fallback (partial
  // abort unsupported): tag them so the abort-cause attribution stays total.
  if (!t.doomed) t.doom_cause = htm::AbortCause::kNestingFallback;
  // An aborting transaction is not waiting on anyone: drop its wait-for
  // edge now so rollback time cannot fabricate phantom deadlock cycles.
  htm_.conflicts().clear_wait(core_);
  const Cycle cost = htm_.vm().abort_cost(t);
  breakdown_.add(Bucket::kAborting, cost);
  attempt_.settle_abort(breakdown_);
  ++htm_.stats().aborts;
  SUVTM_OBS_HOOK(obs_,
                 on_abort_window(core_, sched_.now(), cost, t.doom_cause));
  sched_.after(cost, [this, aborted, h] {
    htm::Txn& t2 = txn();
    if (t2.overflowed) ++htm_.stats().overflowed_attempts;
    htm_.vm().on_abort_done(t2);
    SUVTM_CHECK_HOOK(checker_, on_abort_done(core_));
    SUVTM_OBS_HOOK(obs_, on_txn_abort(core_, sched_.now()));
    htm_.conflicts().clear_wait(core_);
    t2.reset_attempt();  // timestamp survives: progress guarantee
    htm_.conflicts().set_isolation(core_, false);
    *aborted = true;
    h.resume();
  });
}

bool ThreadContext::issue_remote(MemAwaiter& aw, std::coroutine_handle<> h,
                                 std::uint32_t owner) {
  // The sharded-machine purity contract (sim/config.hpp PdesParams):
  // transactions, stores and RMWs stay shard-local; only non-transactional
  // loads may cross shards. Violations throw unconditionally -- a workload
  // declared for a sharded machine that breaks the contract would otherwise
  // silently read/write the wrong domain's memory image.
  if (in_tx() || aw.is_store || aw.rmw) {
    throw check::CheckFailure(
        "sharded-machine purity violation: only non-transactional loads may "
        "cross shards (core accessed a foreign shard's address from a "
        "transaction, store, or RMW)");
  }
  // The request leaves at the core's logical clock (scheduler time plus any
  // fast-path run-ahead); a cross-shard miss is a synchronization point.
  RemoteMsg m{core_, aw.addr, sched_.now() + skew_, h, &aw};
  skew_ = 0;
  port_->boxes->post(port_->shard, owner, m);
  return true;
}

bool ThreadContext::issue_mem(MemAwaiter& aw, std::coroutine_handle<> h) {
  if (port_ != nullptr) [[unlikely]] {
    const std::uint32_t owner = port_->map->shard_of_addr(aw.addr);
    if (owner != port_->shard) return issue_remote(aw, h, owner);
  }

  htm::Txn& t = txn();
  const bool tx = t.state == htm::TxnState::kRunning;

  if (tx && t.doomed) {
    start_abort(&aw.aborted, h);
    return true;
  }

  const LineAddr line = line_of(aw.addr);
  const bool lazy = tx && t.lazy;
  const bool exclusive = aw.is_store || aw.rmw;
  auto dec = htm_.conflicts().check(core_, line, exclusive, lazy,
                                    htm_.txn_view());
  if (dec.victim != kNoCore && dec.victim != core_) {
    htm_.doom(dec.victim, dec.victim_cause);
  }
  for (CoreId reader : dec.invalidated_lazy_readers) {
    htm_.doom(reader, htm::AbortCause::kLazyInvalidated);
  }
  if (dec.action == htm::ConflictManager::Action::kAbortSelf) {
    htm_.doom(core_, dec.victim_cause);
    start_abort(&aw.aborted, h);
    return true;
  }
  if (dec.action == htm::ConflictManager::Action::kStall) {
    const Cycle w = cfg_.htm.stall_retry_interval;
    add_stall_cycles(tx);
    SUVTM_OBS_HOOK(obs_, on_stall(core_, sched_.now(), dec.holder, line, w));
    // A stall is a synchronization point: flush any fast-path run-ahead
    // into the first retry. Later polls stay virtual while the conflict
    // manager watches for an event that could change the verdict; an
    // unwatched stall is woken at once, so every poll re-issues the access.
    stall_.aw = &aw;
    stall_.h = h;
    stall_.tx = tx;
    stall_.exact = dec.exact;
    sched_.park(stall_, sched_.now() + skew_ + w, w);
    skew_ = 0;
    if (!may_park_ ||
        !htm_.conflicts().watch(core_, line, exclusive, dec.holder, stall_)) {
      stall_.wake();
    }
    return true;
  }

  // Access granted: version-management bookkeeping, then the timed access.
  SUVTM_CHECK_HOOK(checker_,
                   on_access_granted(core_, line, exclusive, lazy));
  SUVTM_OBS_HOOK(obs_, on_access_granted(core_, sched_.now()));
  [[maybe_unused]] const Addr word =
      aw.addr & ~static_cast<Addr>(kWordBytes - 1);
  auto& vm = htm_.vm();
  Cycle extra = 0;
  Cycle extra_if_l1_hit = 0;
  Addr target = aw.addr;
  bool buffered_store = false;

  if (tx) {
    if (aw.is_store) {
      // The version manager sees the store *before* the write-set update so
      // it can distinguish the first store to a line (FasTM's old-line
      // writeback, SUV's entry allocation).
      const htm::StoreAction act = vm.on_tx_store(t, aw.addr);
      t.write_sig.add(line);
      if (t.write_lines.insert(line)) {
        htm_.conflicts().note_write(core_, line);
      }
      target = act.target;
      extra = act.extra;
      extra_if_l1_hit = act.extra_if_l1_hit;
      buffered_store = act.buffered;
    } else {
      t.read_sig.add(line);
      if (t.read_lines.insert(line)) {
        htm_.conflicts().note_read(core_, line);
      }
      if (aw.rmw) {
        // Claim exclusive ownership now; the upcoming store to this line
        // will not need a second coherence round or an upgrade.
        t.write_sig.add(line);
        if (t.write_lines.insert(line)) {
          htm_.conflicts().note_write(core_, line);
        }
      }
      // In-place schemes resolve every load to the identity action; skip
      // the virtual dispatch on this per-access path.
      if (!vm.loads_in_place()) {
        const htm::LoadAction act = vm.resolve_load(core_, &t, aw.addr);
        if (act.buffered) {
          // Served from the lazy redo buffer: an L1-speed private access.
          aw.value = *act.buffered;
          SUVTM_CHECK_HOOK(checker_,
                           on_read(core_, true, word, aw.value, sched_.now()));
          const Cycle lat = cfg_.mem.l1_latency + act.extra;
          attempt_.add_trans(lat);
          sched_.resume_after(lat, h);
          return true;
        }
        target = act.target;
        extra = act.extra;
        extra_if_l1_hit = act.extra_if_l1_hit;
      }
    }
  } else if (!vm.loads_in_place()) {
    const htm::LoadAction act = aw.is_store
                                    ? vm.resolve_nontx_store(core_, aw.addr)
                                    : vm.resolve_load(core_, nullptr, aw.addr);
    target = act.target;
    extra = act.extra;
    extra_if_l1_hit = act.extra_if_l1_hit;
  }

  if (buffered_store) {
    t.redo[aw.addr] = aw.store_value;
    SUVTM_CHECK_HOOK(
        checker_, on_write(core_, true, word, aw.store_value, sched_.now()));
    const Cycle lat = cfg_.mem.l1_latency + extra;
    attempt_.add_trans(lat);
    sched_.resume_after(lat, h);
    return true;
  }

  const mem::AccessOutcome out =
      mem_.access(core_, target, aw.is_store || aw.rmw);
  if (out.evicted_speculative && t.active()) {
    t.overflowed = true;
    vm.on_spec_eviction(t, out.evicted_line);
  }

  if (aw.is_store) {
    mem_.store_word(target, aw.store_value);
    if (tx) mem_.mark_speculative(core_, line_of(target));
    SUVTM_CHECK_HOOK(
        checker_, on_write(core_, tx, word, aw.store_value, sched_.now()));
  } else {
    aw.value = mem_.load_word(target);
    SUVTM_CHECK_HOOK(checker_,
                     on_read(core_, tx, word, aw.value, sched_.now()));
  }

  // Table-probe cycles ride the coherence request on a data-cache miss
  // (SUV piggybacks redirection resolution); they only cost time on a hit.
  const Cycle lat = out.latency + extra + (out.l1_hit ? extra_if_l1_hit : 0);
  if (tx) {
    attempt_.add_trans(lat);
    sched_.resume_after(lat, h);
    return true;
  }
  breakdown_.add(Bucket::kNoTrans, lat);

  // Non-transactional fast path: a straight-line L1 hit holds no one up --
  // no coherence traffic, no conflict, no eviction -- so completing it
  // inline (await_suspend returns false) skips the scheduler round trip
  // entirely. The core runs up to kFastpathQuantum cycles ahead (skew_);
  // every other path through this file flushes the skew back into its next
  // scheduled delay, so dispatch stays deterministic.
  if (out.l1_hit && !out.evicted_speculative &&
      skew_ + lat <= kFastpathQuantum) {
    skew_ += lat;
    sched_.count_inline_event();
    return false;
  }
  sched_.resume_after(skew_ + lat, h);
  skew_ = 0;
  return true;
}

void ThreadContext::issue_begin(BeginAwaiter& aw, std::coroutine_handle<> h) {
  htm::Txn& t = txn();
  if (t.state == htm::TxnState::kRunning) {
    // Closed nesting: push a frame recording current transactional extent.
    ++t.depth;
    t.frames.push_back({t.undo.size(), t.read_sig.adds(), t.write_sig.adds(),
                        htm_.vm().nest_mark(t)});
    SUVTM_CHECK_HOOK(checker_, on_frame_push(core_));
    ++htm_.stats().nested_begins;
    attempt_.add_trans(cfg_.htm.checkpoint_latency);
    sched_.resume_after(cfg_.htm.checkpoint_latency, h);
    return;
  }
  assert(t.state == htm::TxnState::kIdle);
  t.state = htm::TxnState::kRunning;
  htm_.conflicts().set_isolation(core_, true);
  t.depth = 1;
  t.site = aw.site;
  if (!t.has_timestamp) {
    t.timestamp = (sched_.now() << 5) | core_;
    t.has_timestamp = true;
  }
  ++t.attempts;
  ++htm_.stats().begins;
  SUVTM_CHECK_HOOK(checker_, on_begin(core_, sched_.now()));
  SUVTM_OBS_HOOK(obs_, on_txn_begin(core_, sched_.now(), t.site, t.attempts));
  const Cycle cost = cfg_.htm.checkpoint_latency + htm_.vm().on_begin(t);
  attempt_.add_trans(cost);
  // Transaction boundaries synchronize the fast path: fold any run-ahead
  // into the begin latency so the body starts at the logically right cycle.
  sched_.resume_after(skew_ + cost, h);
  skew_ = 0;
}

void ThreadContext::issue_commit(CommitAwaiter& aw, std::coroutine_handle<> h) {
  htm::Txn& t = txn();
  assert(t.state == htm::TxnState::kRunning && "commit outside a transaction");

  if (t.doomed) {
    start_abort(&aw.aborted, h);
    return;
  }
  if (t.depth > 1) {
    // Closed-nested commit: merge into the parent (keep signatures/log).
    --t.depth;
    t.frames.pop_back();
    SUVTM_CHECK_HOOK(checker_, on_frame_pop(core_));
    attempt_.add_trans(1);
    sched_.resume_after(1, h);
    return;
  }
  if (t.lazy && !htm_.acquire_commit_token(core_)) {
    // Commit arbitration: one lazy committer at a time.
    const Cycle w = cfg_.htm.stall_retry_interval;
    breakdown_.add(Bucket::kCommitting, w);
    sched_.after(w, [this, &aw, h] { issue_commit(aw, h); });
    return;
  }
  if (!htm_.vm().commit_ready(t)) {
    // Lazy committer waiting out eager owners of its write set.
    if (t.lazy) htm_.release_commit_token(core_);
    const Cycle w = cfg_.htm.stall_retry_interval;
    breakdown_.add(Bucket::kCommitting, w);
    sched_.after(w, [this, &aw, h] { issue_commit(aw, h); });
    return;
  }

  t.state = htm::TxnState::kCommitting;
  htm_.conflicts().clear_wait(core_);  // a committer waits on no one
  SUVTM_CHECK_HOOK(checker_, on_commit_start(core_, sched_.now()));
  const Cycle cost = htm_.vm().commit_cost(t);
  breakdown_.add(Bucket::kCommitting, cost);
  SUVTM_OBS_HOOK(obs_, on_commit_window(core_, sched_.now(), cost));
  sched_.after(cost, [this, h] {
    htm::Txn& t2 = txn();
    if (t2.overflowed) ++htm_.stats().overflowed_attempts;
    htm_.vm().on_commit_done(t2);
    SUVTM_CHECK_HOOK(checker_,
                     on_commit_done(core_, sched_.now(), t2.lazy));
    SUVTM_OBS_HOOK(obs_,
                   on_txn_commit(core_, sched_.now(), t2.write_lines.size()));
    if (t2.lazy) htm_.release_commit_token(core_);
    htm_.conflicts().clear_wait(core_);
    attempt_.settle_commit(breakdown_);
    t2.reset_committed();
    htm_.conflicts().set_isolation(core_, false);
    ++htm_.stats().commits;
    h.resume();
  });
}

void ThreadContext::issue_rollback_inner(RollbackInnerAwaiter& aw,
                                         std::coroutine_handle<> h) {
  htm::Txn& t = txn();
  assert(t.state == htm::TxnState::kRunning && t.depth > 1 &&
         "tx_rollback_inner requires an open nested frame");
  if (t.doomed || !htm_.vm().supports_partial_abort(t)) {
    // Fall back to a full abort; the outer retry loop re-executes.
    start_abort(&aw.aborted, h);
    return;
  }
  const htm::NestFrame frame = t.frames.back();
  t.frames.pop_back();
  --t.depth;
  const Cycle cost = htm_.vm().partial_abort(t, frame.vm_mark);
  SUVTM_CHECK_HOOK(checker_, on_frame_rollback(core_));
  // The frame's work was wasted; the partial rollback holds isolation.
  breakdown_.add(Bucket::kAborting, cost);
  aw.rolled_back = true;
  sched_.resume_after(cost, h);
}

bool ThreadContext::issue_compute(ComputeAwaiter& aw,
                                  std::coroutine_handle<> h) {
  if (in_tx()) {
    attempt_.add_trans(aw.cycles);
    sched_.resume_after(aw.cycles, h);
    return true;
  }
  breakdown_.add(Bucket::kNoTrans, aw.cycles);
  // Short non-transactional compute joins the fast path: it touches no
  // shared state at all, so there is nothing to synchronize with.
  if (skew_ + aw.cycles <= kFastpathQuantum) {
    skew_ += aw.cycles;
    sched_.count_inline_event();
    return false;
  }
  sched_.resume_after(skew_ + aw.cycles, h);
  skew_ = 0;
  return true;
}

void ThreadContext::issue_backoff(BackoffAwaiter&, std::coroutine_handle<> h) {
  const htm::Txn& t = txn();
  const auto& p = cfg_.htm;
  const unsigned shift =
      static_cast<unsigned>(std::min<std::uint64_t>(t.attempts, 10));
  const Cycle ceiling = std::min<Cycle>(p.backoff_cap, p.backoff_base << shift);
  const Cycle wait = rng_.range(p.backoff_base, std::max<Cycle>(p.backoff_base, ceiling));
  breakdown_.add(Bucket::kBackoff, wait);
  SUVTM_OBS_HOOK(obs_, on_backoff(core_, sched_.now(), wait));
  sched_.resume_after(skew_ + wait, h);
  skew_ = 0;
}

}  // namespace suvtm::sim
