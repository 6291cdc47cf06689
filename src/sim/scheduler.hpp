// Deterministic discrete-event scheduler.
//
// Single-threaded by design: determinism and reproducibility matter more for
// an architecture simulator than host-level parallelism, and it keeps the
// entire coherence/HTM state machine free of host synchronization. Ties are
// broken by insertion order. (Host-level parallelism lives one layer up: the
// runner fans independent Simulator instances across cores, see
// runner/parallel.hpp.)
//
// Hot-path notes: the event queue is a calendar queue -- a wheel of
// kWheelSize per-cycle buckets covering the window [window_start_,
// window_start_ + kWheelSize). Nearly every event in this simulator is an
// `after(small delay)` (cache hits, NoC hops, stall retries, coroutine
// resumes), so push and pop are O(1) appends/drains on a flat vector
// instead of O(log n) heap sifts. Far-future events (deep backoff, the
// wheel-edge spill as `now_` approaches the window end) park in a small
// binary-heap overflow level keyed by (cycle, seq) and are re-bucketed in
// key order when the window jumps forward, which preserves the global
// (cycle, insertion-seq) dispatch order bit-exactly: overflow events always
// carry smaller seqs than any event bucketed directly after the jump, so
// FIFO order within a bucket *is* seq order.
//
// Events are one 64-bit payload each: an even value is a raw coroutine
// handle (the dominant resume_after case -- no SmallFn construction, no
// type-erased call), (slot << 2) | 1 indexes a free-listed SmallFn slot
// pool for general callbacks, and a ParkedPoll address | 3 is a stall poll
// that runs as a real event.
//
// Parked stall polls (DESIGN.md section 12): a NACKed request re-polls every
// `every` cycles. While nothing can change its verdict, each poll is
// *virtual*: it waits on a per-cycle list beside its bucket, not in it, and
// a visit after the bucket's real events counts it (events_processed(),
// the owner's NACK counters) and moves it `every` cycles on. That is the
// FIFO slot the retry event would hold -- behind every real event of its
// cycle -- for as long as no event is pushed into that cycle after it. The
// one push rule keeps it exact: before a push lands in a bucket, the
// bucket's virtual polls become real events at its tail, in list order. A
// wake (the verdict may have changed) makes a poll real the same way, with
// the virtual polls ahead of it; a real poll runs the owner's full access.
//
// run() dispatches per *bucket*, not per event: `now_` advances once per
// simulated cycle, and the observability cycle-cache/sampler update is one
// batched call per non-empty cycle instead of one per event.
#pragma once

#include <bit>
#include <cassert>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "obs/obs.hpp"
#include "sim/small_fn.hpp"

namespace suvtm::sim {

class Scheduler;

/// A stall poll the scheduler can keep out of its queue (see the header
/// comment and DESIGN.md section 12). The poller derives from it and owns
/// the storage; the scheduler owns the fields below while it is parked.
class ParkedPoll {
 public:
  /// One poll re-confirmed the NACK without re-issuing the access: count it
  /// exactly as the NACKed poll it stands for. Must not touch the queue.
  virtual void on_nack() = 0;
  /// A woken poll: re-issue the full access (its verdict may have changed).
  virtual void on_repoll() = 0;

  bool parked() const { return state_ != State::kIdle; }
  /// The verdict may have changed: the pending poll becomes a real event
  /// that re-issues the access. No-op unless parked.
  inline void wake();

 protected:
  ParkedPoll() = default;
  ParkedPoll(const ParkedPoll&) = delete;
  ParkedPoll& operator=(const ParkedPoll&) = delete;
  ~ParkedPoll() = default;

 private:
  friend class Scheduler;
  enum class State : std::uint8_t { kIdle, kVirtual, kQueued };

  Scheduler* sched_ = nullptr;
  ParkedPoll* vnext_ = nullptr;  // next virtual poll of the same cycle
  Cycle next_ = 0;               // cycle of the pending poll
  Cycle every_ = 0;              // poll interval
  State state_ = State::kIdle;
  bool woken_ = false;
};

class Scheduler {
 public:
  /// Wheel geometry: one bucket per cycle, covering a sliding window of
  /// kWheelSize cycles. Sized so every common latency in the model (L1/L2,
  /// directory, memory at 150, mesh hops, stall retries) lands in a bucket
  /// directly; only deep exponential backoff and the window-edge transit
  /// take the overflow heap.
  static constexpr std::uint32_t kWheelBits = 11;
  static constexpr std::uint32_t kWheelSize = 1u << kWheelBits;  // 2048 cycles
  static constexpr Cycle kWheelMask = kWheelSize - 1;

  /// Quiescent-point trim thresholds (see trim_quiescent()).
  static constexpr std::size_t kSlotPoolTrim = 1024;
  static constexpr std::size_t kBucketCapacityTrim = 64;

  Scheduler() : wheel_(kWheelSize), vlists_(kWheelSize) {}

  /// Current simulated time.
  Cycle now() const { return now_; }

  /// Run `fn` at absolute cycle `t` (>= now). Inline together with push()
  /// below: one schedule + one dispatch per simulated event makes these the
  /// hottest non-model code in the simulator.
  void at(Cycle t, SmallFn fn) {
    check_not_past(t);
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.push_back(std::move(fn));
      // Keep the free list's capacity at least the pool size so the
      // bucket-drain loop's push_back never allocates.
      free_slots_.reserve(slots_.capacity());
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot] = std::move(fn);
    }
    push(t, (static_cast<std::uint64_t>(slot) << 2) | 1u);
  }

  /// Run `fn` `delay` cycles from now.
  void after(Cycle delay, SmallFn fn) { at(now_ + delay, std::move(fn)); }

  /// Resume a coroutine at absolute cycle `t`. Dedicated fast slot: the
  /// handle rides in the event payload itself -- no SmallFn type erasure,
  /// no slot-pool traffic.
  void resume_at(Cycle t, std::coroutine_handle<> h) {
    check_not_past(t);
    const auto payload = reinterpret_cast<std::uintptr_t>(h.address());
    assert((payload & 1u) == 0 && "coroutine frames are at least 2-aligned");
    push(t, static_cast<std::uint64_t>(payload));
  }

  /// Resume a coroutine `delay` cycles from now.
  void resume_after(Cycle delay, std::coroutine_handle<> h) {
    resume_at(now_ + delay, h);
  }

  /// Park `p` (not already parked): it polls at `first`, then every `every`
  /// (> 0) cycles, each poll virtual until p.wake(). Its owner has already
  /// counted the NACK that parked it.
  void park(ParkedPoll& p, Cycle first, Cycle every) {
    check_not_past(first);
    assert(!p.parked() && every > 0);
    p.sched_ = this;
    p.every_ = every;
    p.woken_ = false;
    link(p, first);
  }

  /// Process events until the queue is empty or `limit` cycles elapse.
  /// Returns false if the limit was hit with events still pending. Throws
  /// std::runtime_error if only virtual polls remain: nothing is left that
  /// could wake them, so they would re-poll forever.
  bool run(Cycle limit);

  /// Account for a simulated event completed inline by the fast path
  /// (thread_context.cpp) without a queue round trip: it still counts
  /// toward events_processed() and the observability sampler deadline.
  void count_inline_event() {
    ++events_;
#if defined(SUVTM_OBS_ENABLED) && SUVTM_OBS_ENABLED
    if (obs_) obs_inline_event();
#endif
  }

  /// Pending events, virtual polls included.
  std::size_t pending() const { return pending_ + virtual_pending_; }
  /// Processed events, virtual polls included: the count is the same as if
  /// every poll had been a queued event.
  std::uint64_t events_processed() const { return events_; }
  /// How many of events_processed() were virtual polls.
  std::uint64_t virtual_events() const { return virtual_events_; }

  /// Observability: the run loop advances the recorder's cycle cache and
  /// drives its periodic occupancy sampler (nullptr = off).
  void set_obs(obs::Recorder* r) { obs_ = r; }

  // ---- introspection for tests and diagnostics -----------------------------
  std::size_t slot_pool_capacity() const { return slots_.size(); }
  std::size_t overflow_size() const { return overflow_.size(); }

 private:
  /// Overflow key: full (t, seq) order so re-bucketing replays insertion
  /// order exactly. Payload encoding matches the buckets.
  struct Key {
    Cycle t;
    std::uint64_t seq;
    std::uint64_t payload;

    bool before(const Key& o) const {
      return t != o.t ? t < o.t : seq < o.seq;
    }
  };
  static_assert(sizeof(Key) <= 24, "overflow keys must stay small PODs");

  using Bucket = std::vector<std::uint64_t>;

  /// The schedule-into-the-past guard. The binary heap merely mis-ordered a
  /// past-time event; the wheel would silently mis-bucket it a whole window
  /// late, so SUVTM_CHECK builds promote the assert to a thrown
  /// check::CheckFailure that fires in release mode too.
  void check_not_past(Cycle t) const {
    // The throw must precede the assert: this repo keeps asserts enabled in
    // every build type, and the thrown CheckFailure is the testable,
    // catchable form of the same guard (see scheduler_property_test).
#if defined(SUVTM_CHECK_ENABLED) && SUVTM_CHECK_ENABLED
    if (t < now_) throw_scheduled_into_past(t);
#endif
    assert(t >= now_ && "cannot schedule into the past");
    (void)t;
  }
  [[noreturn]] void throw_scheduled_into_past(Cycle t) const;

  /// Out-of-line sampler tick for inline events (keeps this header free of
  /// the full Recorder definition).
  void obs_inline_event();

  void push(Cycle t, std::uint64_t payload) {
    ++seq_;
    ++pending_;
    // Invariant outside run(): window_start_ <= now_ <= t, so the unsigned
    // difference below is exact.
    if (t - window_start_ < kWheelSize) {
      const std::uint32_t idx = static_cast<std::uint32_t>(t & kWheelMask);
      // The push rule: virtual polls of cycle t were pushed before this
      // event would be, so they take their FIFO slots first.
      if (vlists_[idx].head != nullptr) [[unlikely]] {
        materialize(idx, nullptr);
      }
      wheel_[idx].push_back(payload);
      mark_occupied(idx);
      ++window_count_;
      // Events may be (re)scheduled at cycles the scan cursor already
      // passed without dispatching (e.g. at(now()) between run() calls).
      if (t < scan_t_) scan_t_ = t;
    } else {
      overflow_.emplace_back();  // reserve the hole; sift_up fills it
      sift_up(overflow_.size() - 1, Key{t, seq_, payload});
    }
  }

  friend class ParkedPoll;

  /// See ParkedPoll::wake(): `p` is parked.
  void wake(ParkedPoll& p) {
    p.woken_ = true;
    if (p.state_ == ParkedPoll::State::kVirtual) {
      materialize(static_cast<std::uint32_t>(p.next_ & kWheelMask), &p);
    }
  }

  /// Queue `p`'s next poll at `t`: virtual inside the window, a real event
  /// (overflow heap) beyond it.
  void link(ParkedPoll& p, Cycle t) {
    p.vnext_ = nullptr;
    if (t - window_start_ < kWheelSize) {
      const std::uint32_t idx = static_cast<std::uint32_t>(t & kWheelMask);
      VList& l = vlists_[idx];
      p.state_ = ParkedPoll::State::kVirtual;
      p.next_ = t;
      (l.head == nullptr ? l.head : l.tail->vnext_) = &p;
      l.tail = &p;
      mark_occupied(idx);
      ++window_count_;
      ++virtual_pending_;
      if (t < scan_t_) scan_t_ = t;
    } else {
      p.state_ = ParkedPoll::State::kQueued;
      push(t, reinterpret_cast<std::uintptr_t>(&p) | 3u);
    }
  }

  /// Turn bucket `idx`'s virtual polls into real events at its tail, in list
  /// order, up to and including `upto` (all of them when nullptr).
  void materialize(std::uint32_t idx, const ParkedPoll* upto);

  /// After bucket `idx`'s real events: run its virtual polls (count them,
  /// move each one interval on).
  void run_virtual(std::uint32_t idx);

  /// Dispatch a real stall poll.
  void fire(ParkedPoll& p);

  [[noreturn]] void throw_virtual_only() const;

  // ---- occupancy bitmap ----------------------------------------------------
  // One bit per bucket plus a one-word summary (bit w set iff occ_[w] != 0),
  // so the run loop finds the next populated cycle with two bit-scans
  // instead of walking empty buckets -- the real simulator's schedule is
  // sparse in time (memory latencies spread events ~150 cycles apart).
  static constexpr std::uint32_t kOccWords = kWheelSize / 64;
  static_assert(kOccWords <= 64, "summary must fit one word");

  void mark_occupied(std::uint32_t idx) {
    occ_[idx >> 6] |= 1ull << (idx & 63u);
    occ_summary_ |= 1ull << (idx >> 6);
  }

  void clear_occupied(std::uint32_t idx) {
    occ_[idx >> 6] &= ~(1ull << (idx & 63u));
    if (occ_[idx >> 6] == 0) occ_summary_ &= ~(1ull << (idx >> 6));
  }

  /// Index of the first occupied bucket at or (circularly) after `from`.
  /// Requires window_count_ > 0.
  std::uint32_t next_occupied(std::uint32_t from) const {
    const std::uint32_t w0 = from >> 6;
    const std::uint64_t head = occ_[w0] & (~0ull << (from & 63u));
    if (head != 0) {
      return (w0 << 6) | static_cast<std::uint32_t>(std::countr_zero(head));
    }
    // First non-empty word strictly after w0, wrapping to the lowest
    // non-empty word (which may be w0 itself, carrying wrapped events).
    const std::uint64_t above = occ_summary_ & (~0ull << (w0 + 1));
    const std::uint32_t w = static_cast<std::uint32_t>(
        std::countr_zero(above != 0 ? above : occ_summary_));
    return (w << 6) |
           static_cast<std::uint32_t>(std::countr_zero(occ_[w]));
  }

  /// Move every overflow event inside the (re-positioned) window into its
  /// bucket. Heap pops come out in (t, seq) order, and every event bucketed
  /// directly afterwards has a larger seq, so buckets stay FIFO == seq.
  void refill_window() {
    while (!overflow_.empty() &&
           overflow_.front().t - window_start_ < kWheelSize) {
      const Key k = pop_min();
      const std::uint32_t idx = static_cast<std::uint32_t>(k.t & kWheelMask);
      // Amortized wheel-edge transit; bucket capacity is retained across
      // windows (clear() keeps it).  // lint: allow(growth-in-loop)
      wheel_[idx].push_back(k.payload);
      mark_occupied(idx);
      ++window_count_;
    }
  }

  /// Release bursty high-water storage once the queue is quiescent
  /// (pending_ == 0): barrier-release storms and deep retry storms grow the
  /// slot pool and bucket capacities, and nothing ever shrank them before.
  void trim_quiescent();

  /// Place `k` into the overflow heap starting the upward search at hole
  /// `i` (the freshly appended last element).
  void sift_up(std::size_t i, Key k) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!k.before(overflow_[parent])) break;
      overflow_[i] = overflow_[parent];
      i = parent;
    }
    overflow_[i] = k;
  }

  /// Pop the minimum overflow key (overflow_ must be non-empty).
  Key pop_min() {
    const Key min = overflow_.front();
    const Key last = overflow_.back();
    overflow_.pop_back();
    const std::size_t n = overflow_.size();
    if (n > 0) {
      // Sift the former last key down from the root, pulling the smaller
      // child up through the hole.
      std::size_t i = 0;
      for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n) break;
        if (child + 1 < n && overflow_[child + 1].before(overflow_[child]))
          ++child;
        if (!overflow_[child].before(last)) break;
        overflow_[i] = overflow_[child];
        i = child;
      }
      overflow_[i] = last;
    }
    return min;
  }

  Cycle now_ = 0;
  Cycle window_start_ = 0;  // wheel covers [window_start_, +kWheelSize)
  Cycle scan_t_ = 0;        // next cycle run() inspects (>= now_)
  std::uint64_t seq_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t virtual_events_ = 0;
  std::size_t pending_ = 0;          // bucketed + overflow events
  std::size_t virtual_pending_ = 0;  // virtual polls
  std::size_t window_count_ = 0;     // bucketed events + virtual polls
  obs::Recorder* obs_ = nullptr;
  std::vector<Bucket> wheel_;     // kWheelSize per-cycle FIFO buckets
  std::uint64_t occ_[kOccWords] = {};  // bit per non-empty bucket
  std::uint64_t occ_summary_ = 0;      // bit w set iff occ_[w] != 0
  std::vector<Key> overflow_;     // binary min-heap by (t, seq)
  std::vector<SmallFn> slots_;    // parked callbacks, indexed by payload>>2
  std::vector<std::uint32_t> free_slots_;
  /// Per-bucket FIFO list of virtual polls, linked through vnext_.
  struct VList {
    ParkedPoll* head = nullptr;
    ParkedPoll* tail = nullptr;
  };
  std::vector<VList> vlists_;  // kWheelSize, beside wheel_
};

inline void ParkedPoll::wake() {
  if (state_ != State::kIdle) sched_->wake(*this);
}

}  // namespace suvtm::sim
