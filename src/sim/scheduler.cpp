#include "sim/scheduler.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "check/check.hpp"
#include "obs/recorder.hpp"

namespace suvtm::sim {

void Scheduler::throw_scheduled_into_past(Cycle t) const {
  throw check::CheckFailure(
      "scheduler: event scheduled into the past (t=" + std::to_string(t) +
      " < now=" + std::to_string(now_) +
      "); the calendar queue would mis-bucket it a full window late");
}

void Scheduler::throw_virtual_only() const {
  throw std::runtime_error(
      "scheduler: only parked stall polls remain at cycle " +
      std::to_string(now_) + " (" + std::to_string(virtual_pending_) +
      " of them); no event is left that could wake them, so they would "
      "re-poll forever");
}

void Scheduler::obs_inline_event() { obs_->on_inline_event(); }

void Scheduler::materialize(std::uint32_t idx, const ParkedPoll* upto) {
  VList& l = vlists_[idx];
  Bucket& b = wheel_[idx];
  while (l.head != nullptr) {
    ParkedPoll* p = l.head;
    l.head = p->vnext_;
    p->vnext_ = nullptr;
    p->state_ = ParkedPoll::State::kQueued;
    // Same bucket, so window_count_ and the occupancy bit stay as they are.
    // Bucket capacity is retained across laps.
    // lint: allow(growth-in-loop)
    b.push_back(reinterpret_cast<std::uintptr_t>(p) | 3u);
    ++seq_;
    ++pending_;
    --virtual_pending_;
    if (p == upto) break;
  }
  if (l.head == nullptr) l.tail = nullptr;
}

void Scheduler::run_virtual(std::uint32_t idx) {
  VList& l = vlists_[idx];
  ParkedPoll* p = l.head;
  l.head = l.tail = nullptr;
  while (p != nullptr) {
    ParkedPoll* next = p->vnext_;
    --window_count_;
    --virtual_pending_;
    ++events_;
    ++virtual_events_;
    p->on_nack();
    link(*p, now_ + p->every_);
    p = next;
  }
}

void Scheduler::fire(ParkedPoll& p) {
  if (p.woken_) {
    p.state_ = ParkedPoll::State::kIdle;
    p.woken_ = false;
    p.on_repoll();
  } else {
    // Real only to hold its FIFO slot (or beyond the wheel window): the
    // verdict is unchanged.
    p.on_nack();
    link(p, now_ + p.every_);
  }
}

bool Scheduler::run(Cycle limit) {
  while (pending_ > 0) {
    if (window_count_ == 0) {
      // Everything pending lives in the overflow level, beyond the window:
      // jump the window to the earliest overflow event and re-bucket. The
      // limit check comes first so an early return never leaves
      // window_start_ ahead of now_ (push() relies on that invariant).
      const Cycle t0 = overflow_.front().t;
      if (t0 > limit) return false;
      window_start_ = t0;
      scan_t_ = t0;
      refill_window();
    }
    // Find the next populated cycle via the occupancy bitmap.
    // window_count_ > 0 guarantees a non-empty bucket at some t in
    // [scan_t_, window_start_ + kWheelSize); that range spans at most one
    // lap of the wheel, so circular bit order from scan_t_'s index is time
    // order and the index delta recovers the absolute cycle.
    const std::uint32_t idx0 = static_cast<std::uint32_t>(scan_t_ & kWheelMask);
    const std::uint32_t idx = next_occupied(idx0);
    scan_t_ += (idx - idx0) & kWheelMask;
    if (scan_t_ > limit) return false;
    Bucket* b = &wheel_[idx];

    // Batched same-cycle dispatch: drain the whole bucket. now_ advances
    // once, and the index loop picks up events appended *during* the drain
    // (an after(0) lands in this same bucket with a higher seq, exactly the
    // heap's tie-break). Callbacks may grow other buckets/overflow freely;
    // this bucket only ever grows at the tail.
    now_ = scan_t_;
    std::size_t i = 0;
    while (i < b->size()) {
      const std::uint64_t payload = (*b)[i++];
      if ((payload & 3u) == 3u) {
        fire(*reinterpret_cast<ParkedPoll*>(
            static_cast<std::uintptr_t>(payload & ~std::uint64_t{3})));
      } else if (payload & 1u) {
        const auto slot = static_cast<std::uint32_t>(payload >> 2);
        // Move the callback out before running it: fn may schedule new
        // events, which may reuse (and reassign) the freed slot.
        SmallFn fn = std::move(slots_[slot]);
        // lint: allow(growth-in-loop) -- capacity pre-reserved in at().
        free_slots_.push_back(slot);
        fn();
      } else {
        std::coroutine_handle<>::from_address(
            reinterpret_cast<void*>(static_cast<std::uintptr_t>(payload)))
            .resume();
      }
    }
    const std::uint64_t batch = i;
    b->clear();  // keeps capacity for the next lap of the wheel
    events_ += batch;
    pending_ -= batch;
    window_count_ -= batch;
    SUVTM_OBS_HOOK(obs_, on_batch(now_, batch));
    // Virtual polls run after every real event of their cycle: a push
    // into this bucket would have made them real first.
    if (vlists_[idx].head != nullptr) run_virtual(idx);
    clear_occupied(idx);
    ++scan_t_;
  }
  if (virtual_pending_ != 0) throw_virtual_only();
  trim_quiescent();
  return true;
}

void Scheduler::trim_quiescent() {
  // pending_ == 0 here: every slot is free and every bucket is empty, so
  // dropping storage cannot reorder anything. Without this, one barrier
  // release storm or retry burst pins its high-water allocation for the
  // rest of the process (long sweeps reuse the embedding process).
  if (slots_.size() > kSlotPoolTrim) {
    slots_.resize(kSlotPoolTrim);
    slots_.shrink_to_fit();
    free_slots_.clear();
    free_slots_.reserve(slots_.capacity());
    for (std::uint32_t s = static_cast<std::uint32_t>(slots_.size()); s > 0;)
      free_slots_.push_back(--s);
  }
  for (Bucket& b : wheel_) {
    if (b.capacity() > kBucketCapacityTrim) Bucket().swap(b);
  }
  if (overflow_.capacity() > kSlotPoolTrim) overflow_.shrink_to_fit();
}

}  // namespace suvtm::sim
