#include "obs/trace.hpp"

namespace suvtm::obs {

const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kTxnSpan: return "txn";
    case EventKind::kCommitWindow: return "commit";
    case EventKind::kAbortWindow: return "abort";
    case EventKind::kStallSpan: return "stall";
    case EventKind::kBackoffSpan: return "backoff";
    case EventKind::kAbortEdge: return "abort-edge";
    case EventKind::kSuspend: return "suspend";
    case EventKind::kResume: return "resume";
    case EventKind::kSpecEviction: return "spec-eviction";
    case EventKind::kDegeneration: return "degeneration";
    case EventKind::kTableSpill: return "table-spill";
    case EventKind::kPoolPage: return "pool-page";
    default: return "?";
  }
}

}  // namespace suvtm::obs
