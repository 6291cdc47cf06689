// Randomized property tests for the calendar-queue scheduler: the dispatch
// order of sim::Scheduler must be bit-identical to a reference model built
// on std::multimap (whose iteration order IS the (cycle, insertion) contract
// -- equivalent keys preserve insertion order). The workload is adversarial
// on purpose: same-cycle tie storms, delays past the wheel window (overflow
// heap + re-bucketing on the window jump), events scheduling events, and
// interleaved run(limit) segments with injections between them.
//
// The parked-poll differential test drives the same kind of workload plus
// stall polls that park (ParkedPoll) and get woken at random, against a
// reference that queues every poll as an event.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "sim/scheduler.hpp"

namespace suvtm::sim {
namespace {

/// Reference scheduler: one ordered multimap, one event popped at a time.
/// Deliberately naive -- its correctness is obvious from the container's
/// guarantees, which is the whole point of a model-based test.
class ReferenceScheduler {
 public:
  Cycle now() const { return now_; }

  void at(Cycle t, std::function<void()> fn) { q_.emplace(t, std::move(fn)); }

  void after(Cycle delay, std::function<void()> fn) {
    at(now_ + delay, std::move(fn));
  }

  bool run(Cycle limit) {
    while (!q_.empty()) {
      const auto it = q_.begin();
      if (it->first > limit) return false;
      now_ = it->first;
      std::function<void()> fn = std::move(it->second);
      q_.erase(it);
      ++dispatched_;
      fn();
    }
    return true;
  }

  std::uint64_t dispatched() const { return dispatched_; }
  std::size_t pending() const { return q_.size(); }

 private:
  Cycle now_ = 0;
  std::uint64_t dispatched_ = 0;
  std::multimap<Cycle, std::function<void()>> q_;
};

using Trace = std::vector<std::pair<Cycle, int>>;

/// Self-rescheduling handler whose RNG stream decides the next delay:
/// 1-in-8 a same-cycle tie (after(0)), 1-in-8 a jump past the wheel window
/// (overflow heap), otherwise a short in-window delay; 1-in-16 it also
/// fans out a sibling at the same cycle. Identical seeds produce identical
/// decision streams in both schedulers, so the traces must match exactly.
template <class Sched>
struct Chain {
  Sched* s;
  Trace* trace;
  std::uint64_t* budget;
  std::uint64_t x;
  int id;

  void operator()() {
    trace->emplace_back(s->now(), id);
    if (*budget == 0) return;
    --*budget;
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t r = x >> 40;
    Cycle delay;
    switch (r % 8) {
      case 0:
        delay = 0;  // same-cycle: lands in the bucket being drained
        break;
      case 1:
        // Past the wheel window (2048 cycles): overflow heap, re-bucketed
        // when the window jumps.
        delay = Scheduler::kWheelSize + 1 + (r % 5000);
        break;
      default:
        delay = 1 + (r % 64);
        break;
    }
    s->after(delay, Chain{*this});
    if (r % 16 == 0) {
      s->after(delay, Chain{s, trace, budget, x ^ 0x243f6a8885a308d3ull,
                            id + 1000});
    }
  }
};

template <class Sched>
Trace run_workload(std::uint64_t seed) {
  Sched s;
  Trace trace;
  std::uint64_t budget = 4000;
  for (int i = 0; i < 8; ++i) {
    s.after(static_cast<Cycle>(i % 3),
            Chain<Sched>{&s, &trace, &budget,
                         seed + static_cast<std::uint64_t>(i) * 1013, i});
  }
  // Interleaved run(limit) segments: between segments, inject from outside
  // at absolute times derived only from the (deterministic) segment limit,
  // so both schedulers see identical injections.
  Cycle limit = 400;
  std::uint64_t y = seed ^ 0x9e3779b97f4a7c15ull;
  while (!s.run(limit)) {
    y = y * 6364136223846793005ull + 1442695040888963407ull;
    const int inj_id = -static_cast<int>((y >> 50) & 0xff) - 1;
    s.at(limit + 1 + ((y >> 30) % 97),
         Chain<Sched>{&s, &trace, &budget, y, inj_id});
    limit += 400;
  }
  return trace;
}

TEST(SchedulerPropertyTest, MatchesReferenceModelAcrossSeeds) {
  for (std::uint64_t seed : {0x1ull, 0xdeadbeefull, 0x0123456789abcdefull,
                             0x5555aaaa5555aaaaull}) {
    const Trace got = run_workload<Scheduler>(seed);
    const Trace want = run_workload<ReferenceScheduler>(seed);
    ASSERT_GT(want.size(), 4000u) << "workload must actually churn";
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i])
          << "divergence at event " << i << " of seed " << seed << ": got ("
          << got[i].first << "," << got[i].second << ") want ("
          << want[i].first << "," << want[i].second << ")";
    }
  }
}

TEST(SchedulerPropertyTest, TieStormPreservesFifoAcrossOverflowSpill) {
  // All events at one far-future cycle: they enter via the overflow heap,
  // get re-bucketed on the window jump, and must still dispatch in
  // insertion order (the heap key carries seq for exactly this).
  Scheduler s;
  std::vector<int> order;
  const Cycle t = Scheduler::kWheelSize * 3 + 17;
  for (int i = 0; i < 500; ++i) {
    s.at(t, [&order, i] { order.push_back(i); });
  }
  EXPECT_TRUE(s.run(t + 1));
  ASSERT_EQ(order.size(), 500u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(order[i], i);
}

TEST(SchedulerPropertyTest, TrimReleasesSlotPoolAfterBurst) {
  // A burst far above the trim threshold grows the slot pool; once the
  // queue drains (quiescent point), the pool must shrink back to the cap
  // -- long parameter sweeps reuse one process and must not pin the
  // high-water allocation forever.
  Scheduler s;
  std::uint64_t hits = 0;
  const std::size_t kBurst = Scheduler::kSlotPoolTrim * 4;
  for (std::size_t i = 0; i < kBurst; ++i) {
    s.at(static_cast<Cycle>(i % 7), [&hits] { ++hits; });
  }
  EXPECT_GE(s.slot_pool_capacity(), kBurst);
  EXPECT_TRUE(s.run(100));
  EXPECT_EQ(hits, kBurst);
  EXPECT_LE(s.slot_pool_capacity(), Scheduler::kSlotPoolTrim);

  // The trimmed scheduler must still be fully functional: the free list
  // was rebuilt, so scheduling after the trim reuses pooled slots in order.
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    s.after(static_cast<Cycle>(i % 5), [&order, i] { order.push_back(i); });
  }
  EXPECT_TRUE(s.run(s.now() + 10));
  ASSERT_EQ(order.size(), 64u);
  std::vector<int> by_cycle[5];
  for (int i = 0; i < 64; ++i) by_cycle[i % 5].push_back(i);
  std::vector<int> want;
  for (auto& v : by_cycle) want.insert(want.end(), v.begin(), v.end());
  EXPECT_EQ(order, want);
}

TEST(SchedulerPropertyTest, SchedulingIntoPastThrowsInCheckBuilds) {
  // The binary heap merely mis-ordered a past-time event; the wheel would
  // mis-bucket it a full window late. SUVTM_CHECK builds promote the debug
  // assert to a release-mode throw -- mutation-test it here.
  if constexpr (!check::kHooksCompiled) {
    GTEST_SKIP() << "check hooks not compiled into this build";
  }
  Scheduler s;
  s.at(50, [] {});
  EXPECT_TRUE(s.run(100));
  EXPECT_EQ(s.now(), 50u);
  EXPECT_THROW(s.at(10, [] {}), check::CheckFailure);
  // Same guard on the coroutine path (the payload fast lane bypasses the
  // slot pool but not the past-schedule check).
  EXPECT_THROW(s.resume_at(10, std::coroutine_handle<>{}),
               check::CheckFailure);
}

// ---- parked stall polls ---------------------------------------------------

/// One dispatch as the test sees it: (cycle, id, kind). Kinds: 'E' a real
/// event, 'N' a poll that re-confirmed its NACK (virtual or not), 'R' a
/// woken poll re-issuing its access.
using PollTrace = std::vector<std::tuple<Cycle, int, char>>;

std::uint64_t lcg(std::uint64_t x) {
  return x * 6364136223846793005ull + 1442695040888963407ull;
}

constexpr int kPollers = 6;

/// Poll intervals: tiny ones collide on shared grid cycles (same-cycle
/// ordering), 20 is the model's default, 2500 exceeds the wheel window.
constexpr Cycle kEvery[kPollers] = {1, 2, 3, 5, 20, 2500};

/// The workload, written once against a world that knows how to park and
/// wake a poll. World::Sched is the scheduler; World provides
/// park(i, first), wake(i), parked(i).
template <class World>
struct PollChain {
  World* w;
  std::uint64_t x;
  int id;

  void operator()() {
    w->trace.emplace_back(w->s.now(), id, 'E');
    if (w->budget == 0) {
      for (int i = 0; i < kPollers; ++i) w->wake(i);
      return;
    }
    --w->budget;
    x = lcg(x);
    const std::uint64_t r = x >> 33;
    w->act(r);
    Cycle delay;
    switch (r % 8) {
      case 0:
        delay = 0;
        break;
      case 1:
        delay = Scheduler::kWheelSize + 1 + (r % 3000);
        break;
      default:
        delay = 1 + ((r >> 3) % 24);
        break;
    }
    w->s.after(delay, PollChain{*this});
    if ((r >> 7) % 16 == 0) {
      w->s.after(delay, PollChain{w, x ^ 0x243f6a8885a308d3ull, id + 1000});
    }
  }
};

/// What a real event or an injection does to the pollers: park an idle
/// one (first poll 0-4 cycles of run-ahead past one interval), wake one,
/// or both at once (an unwatched stall is woken right after parking).
template <class World>
void poll_action(World& w, std::uint64_t r) {
  const int i = static_cast<int>((r >> 11) % kPollers);
  switch ((r >> 14) % 4) {
    case 0:
      if (!w.parked(i)) w.park(i, w.s.now() + (r >> 16) % 5 + kEvery[i]);
      break;
    case 1:
      w.wake(i);
      break;
    case 2:
      if (!w.parked(i)) {
        w.park(i, w.s.now() + kEvery[i]);
        w.wake(i);
      }
      break;
    default:
      break;
  }
}

/// A woken poll re-issues its access: 1-in-2 it is NACKed again (parks one
/// interval on), otherwise it proceeds and resumes work as a real event.
template <class World>
void repoll(World& w, int i) {
  w.trace.emplace_back(w.s.now(), i, 'R');
  w.px[i] = lcg(w.px[i]);
  const std::uint64_t r = w.px[i] >> 33;
  if (w.budget != 0 && r % 2 == 0) {
    w.park(i, w.s.now() + kEvery[i]);
  } else if (r % 4 == 1) {
    w.s.after((r >> 2) % 3, PollChain<World>{&w, w.px[i], 100 + i});
  }
}

/// Implementation world: the real Scheduler and ParkedPoll.
struct ImplWorld {
  struct Poller final : ParkedPoll {
    ImplWorld* w = nullptr;
    int i = 0;
    void on_nack() override {
      w->trace.emplace_back(w->s.now(), i, 'N');
    }
    void on_repoll() override { repoll(*w, i); }
  };

  Scheduler s;
  PollTrace trace;
  std::uint64_t budget = 3000;
  std::uint64_t px[kPollers] = {};
  Poller p[kPollers];

  ImplWorld() {
    for (int i = 0; i < kPollers; ++i) {
      p[i].w = this;
      p[i].i = i;
    }
  }
  void act(std::uint64_t r) { poll_action(*this, r); }
  bool parked(int i) const { return p[i].parked(); }
  void park(int i, Cycle first) { s.park(p[i], first, kEvery[i]); }
  void wake(int i) { p[i].wake(); }
  std::uint64_t events() const { return s.events_processed(); }
  std::size_t pending() const { return s.pending(); }
  std::uint64_t virtual_events() const { return s.virtual_events(); }
};

/// Reference world: the multimap scheduler, every poll a queued event.
struct RefWorld {
  ReferenceScheduler s;
  PollTrace trace;
  std::uint64_t budget = 3000;
  std::uint64_t px[kPollers] = {};
  bool is_parked[kPollers] = {};
  bool woken[kPollers] = {};

  void act(std::uint64_t r) { poll_action(*this, r); }
  bool parked(int i) const { return is_parked[i]; }
  void park(int i, Cycle first) {
    is_parked[i] = true;
    woken[i] = false;
    s.at(first, [this, i] { poll(i); });
  }
  void poll(int i) {
    if (woken[i]) {
      is_parked[i] = woken[i] = false;
      repoll(*this, i);
      return;
    }
    trace.emplace_back(s.now(), i, 'N');
    s.after(kEvery[i], [this, i] { poll(i); });
  }
  void wake(int i) {
    if (is_parked[i]) woken[i] = true;
  }
  std::uint64_t events() const { return s.dispatched(); }
  std::size_t pending() const { return s.pending(); }
  std::uint64_t virtual_events() const { return 0; }
};

struct PollRun {
  PollTrace trace;
  /// (events_processed(), pending()) at every segment end.
  std::vector<std::pair<std::uint64_t, std::size_t>> marks;
  std::uint64_t virtual_events = 0;
};

/// Drive a world through interleaved run(limit) segments. Between
/// segments, inject from outside: a real event at now() + d (d small, so
/// it may land at or before the last limit), another past the limit, and
/// a park or wake.
template <class World>
PollRun run_poll_workload(std::uint64_t seed) {
  auto w = std::make_unique<World>();
  for (int i = 0; i < kPollers; ++i) w->px[i] = seed * 31 + static_cast<std::uint64_t>(i);
  for (int i = 0; i < 6; ++i) {
    w->s.after(static_cast<Cycle>(i % 3),
               PollChain<World>{w.get(), seed + static_cast<std::uint64_t>(i) * 1013, i});
  }
  std::vector<std::pair<std::uint64_t, std::size_t>> marks;
  Cycle limit = 150;
  std::uint64_t y = seed ^ 0x9e3779b97f4a7c15ull;
  while (!w->s.run(limit)) {
    marks.emplace_back(w->events(), w->pending());
    y = lcg(y);
    const std::uint64_t r = y >> 20;
    w->s.at(w->s.now() + r % 7, PollChain<World>{w.get(), y, -1});
    w->s.at(limit + 1 + (r >> 4) % 23, PollChain<World>{w.get(), y ^ 1, -2});
    poll_action(*w, r >> 9);
    limit += 90 + (r >> 12) % 200;
  }
  marks.emplace_back(w->events(), w->pending());
  return {std::move(w->trace), std::move(marks), w->virtual_events()};
}

TEST(SchedulerPropertyTest, ParkedPollsMatchPerPollReference) {
  std::uint64_t virtual_seen = 0;
  for (std::uint64_t seed : {0x1ull, 0x2ull, 0xdeadbeefull,
                             0x0123456789abcdefull, 0x5555aaaa5555aaaaull,
                             0x77ull}) {
    const PollRun got = run_poll_workload<ImplWorld>(seed);
    const PollRun want = run_poll_workload<RefWorld>(seed);
    ASSERT_GT(want.trace.size(), 3000u) << "workload must actually churn";
    const std::size_t n = std::min(got.trace.size(), want.trace.size());
    for (std::size_t i = 0; i < n; ++i) {
      const auto& [gt, gi, gk] = got.trace[i];
      const auto& [wt, wi, wk] = want.trace[i];
      ASSERT_EQ(got.trace[i], want.trace[i])
          << "divergence at dispatch " << i << " of seed " << seed
          << ": got (" << gt << "," << gi << "," << gk << ") want (" << wt
          << "," << wi << "," << wk << ")";
    }
    ASSERT_EQ(got.trace.size(), want.trace.size()) << "seed " << seed;
    EXPECT_EQ(got.marks, want.marks)
        << "events_processed()/pending() at segment ends, seed " << seed;
    virtual_seen += got.virtual_events;
  }
  EXPECT_GT(virtual_seen, 2000u) << "polls must actually go virtual";
}

TEST(SchedulerPropertyTest, OnlyVirtualPollsLeftThrows) {
  struct Idle final : ParkedPoll {
    int nacks = 0;
    void on_nack() override { ++nacks; }
    void on_repoll() override {}
  } p;
  Scheduler s;
  s.at(5, [] {});
  s.park(p, 3, 20);
  EXPECT_EQ(s.pending(), 2u);
  // Nothing real is left after cycle 5 that could ever wake the poll.
  EXPECT_THROW(s.run(1000), std::runtime_error);
  EXPECT_EQ(p.nacks, 1);  // the poll at cycle 3
  EXPECT_EQ(s.virtual_events(), 1u);
  EXPECT_EQ(s.events_processed(), 2u);
}

}  // namespace
}  // namespace suvtm::sim
