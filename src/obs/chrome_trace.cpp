#include "obs/chrome_trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "htm/abort_cause.hpp"

namespace suvtm::obs {

namespace {

// tid used for events that belong to a shared structure, not a core.
constexpr std::uint32_t kStructTid = 9999;

void append_u64(std::string& s, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  s += buf;
}

void append_hex(std::string& s, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%" PRIx64, v);
  s += buf;
}

void append_kv(std::string& s, const char* k, std::uint64_t v, bool& first) {
  if (!first) s += ',';
  first = false;
  s += '"';
  s += k;
  s += "\":";
  append_u64(s, v);
}

void append_kv_str(std::string& s, const char* k, const char* v,
                   bool& first) {
  if (!first) s += ',';
  first = false;
  s += '"';
  s += k;
  s += "\":\"";
  s += v;  // controlled ASCII: kind/cause names never need escaping
  s += '"';
}

void append_kv_hex(std::string& s, const char* k, std::uint64_t v,
                   bool& first) {
  if (!first) s += ',';
  first = false;
  s += '"';
  s += k;
  s += "\":\"";
  append_hex(s, v);
  s += '"';
}

std::uint32_t tid_of(const TraceEvent& e) {
  switch (e.kind) {
    case EventKind::kTableSpill:
    case EventKind::kPoolPage:
      return e.core == kNoCore ? kStructTid : e.core;
    default:
      return e.core;
  }
}

const char* cat_of(EventKind k) {
  switch (k) {
    case EventKind::kTxnSpan:
    case EventKind::kCommitWindow:
    case EventKind::kAbortWindow:
    case EventKind::kBackoffSpan:
    case EventKind::kSuspend:
    case EventKind::kResume:
      return "txn";
    case EventKind::kStallSpan:
    case EventKind::kAbortEdge:
      return "conflict";
    case EventKind::kSpecEviction:
      return "mem";
    default:
      return "vm";
  }
}

bool is_span(EventKind k) {
  switch (k) {
    case EventKind::kTxnSpan:
    case EventKind::kCommitWindow:
    case EventKind::kAbortWindow:
    case EventKind::kStallSpan:
    case EventKind::kBackoffSpan:
      return true;
    default:
      return false;
  }
}

void append_event(std::string& out, std::size_t pid, const TraceEvent& e,
                  bool& first_event) {
  if (!first_event) out += ",\n";
  first_event = false;
  out += "{\"name\":\"";
  if (e.kind == EventKind::kTxnSpan) {
    out += "txn@";
    append_u64(out, e.a);
  } else {
    out += event_kind_name(e.kind);
  }
  out += "\",\"cat\":\"";
  out += cat_of(e.kind);
  out += "\",\"ph\":\"";
  out += is_span(e.kind) ? 'X' : 'i';
  out += '"';
  if (!is_span(e.kind)) out += ",\"s\":\"t\"";
  out += ",\"pid\":";
  append_u64(out, pid);
  out += ",\"tid\":";
  append_u64(out, tid_of(e));
  out += ",\"ts\":";
  append_u64(out, e.ts);
  if (is_span(e.kind)) {
    out += ",\"dur\":";
    append_u64(out, e.dur);
  }
  out += ",\"args\":{";
  bool first = true;
  const auto cause = static_cast<htm::AbortCause>(e.cause);
  switch (e.kind) {
    case EventKind::kTxnSpan:
      append_kv(out, "site", e.a, first);
      append_kv(out, "attempt", e.b, first);
      append_kv_str(out, "outcome",
                    cause == htm::AbortCause::kNone ? "commit" : "abort",
                    first);
      if (cause != htm::AbortCause::kNone) {
        append_kv_str(out, "cause", abort_cause_name(cause), first);
      }
      break;
    case EventKind::kAbortWindow:
      append_kv_str(out, "cause", abort_cause_name(cause), first);
      break;
    case EventKind::kStallSpan:
      append_kv(out, "holder", e.a, first);
      append_kv_hex(out, "line", e.addr, first);
      break;
    case EventKind::kAbortEdge:
      append_kv(out, "aborter", e.core, first);
      append_kv(out, "victim", e.a, first);
      append_kv(out, "victim_site", e.b, first);
      append_kv_hex(out, "line", e.addr, first);
      append_kv_str(out, "cause", abort_cause_name(cause), first);
      break;
    case EventKind::kSpecEviction:
    case EventKind::kTableSpill:
      append_kv_hex(out, "line", e.addr, first);
      break;
    default:
      break;
  }
  out += "}}";
}

void append_metadata(std::string& out, std::size_t pid, const char* what,
                     std::uint32_t tid, bool with_tid, const std::string& name,
                     bool& first_event) {
  if (!first_event) out += ",\n";
  first_event = false;
  out += "{\"name\":\"";
  out += what;
  out += "\",\"ph\":\"M\",\"pid\":";
  append_u64(out, pid);
  if (with_tid) {
    out += ",\"tid\":";
    append_u64(out, tid);
  }
  out += ",\"args\":{\"name\":\"";
  out += name;
  out += "\"}}";
}

}  // namespace

std::string chrome_trace_json(const std::vector<NamedTrace>& runs) {
  std::string out;
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first_event = true;
  for (std::size_t pid = 0; pid < runs.size(); ++pid) {
    const NamedTrace& run = runs[pid];
    append_metadata(out, pid, "process_name", 0, false, run.name,
                    first_event);
    if (run.data == nullptr) continue;
    // Name every tid that appears, in ascending order.
    std::vector<std::uint32_t> tids;
    for (const TraceEvent& e : run.data->events) tids.push_back(tid_of(e));
    std::sort(tids.begin(), tids.end());
    tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
    for (std::uint32_t tid : tids) {
      std::string name;
      if (tid == kStructTid) {
        name = "structures";
      } else {
        name = "core ";
        append_u64(name, tid);
      }
      append_metadata(out, pid, "thread_name", tid, true, name, first_event);
    }
    for (const TraceEvent& e : run.data->events) {
      append_event(out, pid, e, first_event);
    }
  }
  out += "\n]}\n";
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<NamedTrace>& runs) {
  const std::string json = chrome_trace_json(runs);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace suvtm::obs
