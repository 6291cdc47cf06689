// Event tracer: a bounded, append-only log of POD events recorded in
// deterministic simulation order. One Tracer lives inside each Simulator's
// Recorder, so parallel experiment runs never share trace state; the runner
// merges per-run TraceData in submission order, which keeps the exported
// JSON byte-identical across --jobs settings.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace suvtm::obs {

enum class EventKind : std::uint8_t {
  kTxnSpan,       ///< complete txn attempt: a=site, b=attempt#, cause=outcome
  kCommitWindow,  ///< commit isolation window (merge pathology when long)
  kAbortWindow,   ///< rollback window (repair pathology), cause set
  kStallSpan,     ///< contiguous NACK-retry stretch: a=holder core, addr=line
  kBackoffSpan,   ///< post-abort randomized backoff
  kAbortEdge,     ///< instant: core=aborter, a=victim, b=victim site, cause
  kSuspend,       ///< instant: txn descheduled from core
  kResume,        ///< instant: txn rescheduled onto core
  kSpecEviction,  ///< instant: speculative line left the L1 (overflow)
  kDegeneration,  ///< instant: FasTM fell back to LogTM-SE behaviour
  kTableSpill,    ///< instant: SUV redirect entry evicted L2 -> memory
  kPoolPage,      ///< instant: preserved pool grabbed a fresh page
};

const char* event_kind_name(EventKind k);

/// One trace record. POD, value-comparable; `cause` is an htm::AbortCause
/// for txn/abort events and 0 elsewhere. Instants have dur == 0.
struct TraceEvent {
  Cycle ts = 0;
  Cycle dur = 0;
  LineAddr addr = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  EventKind kind = EventKind::kTxnSpan;
  std::uint8_t cause = 0;
  CoreId core = 0;

  bool operator==(const TraceEvent&) const = default;
};

/// The harvested trace of one run: the event log plus how many events the
/// cap discarded (the cap keeps long runs bounded and deterministic).
struct TraceData {
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;

  bool operator==(const TraceData&) const = default;
};

class Tracer {
 public:
  explicit Tracer(std::uint64_t max_events) : max_(max_events) {}

  void emit(const TraceEvent& e) {
    if (data_.events.size() >= max_) {
      ++data_.dropped;
      return;
    }
    data_.events.push_back(e);
  }

  const TraceData& data() const { return data_; }
  TraceData take() { return std::move(data_); }

 private:
  std::uint64_t max_ = 0;
  TraceData data_;
};

}  // namespace suvtm::obs
