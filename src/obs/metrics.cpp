#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>

namespace suvtm::obs {

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kConflictEdges: return "conflict_edges";
    case Counter::kStallRetries: return "stall_retries";
    case Counter::kSuspends: return "suspends";
    case Counter::kResumes: return "resumes";
    case Counter::kL1Evictions: return "mem.l1_evictions";
    case Counter::kL2Evictions: return "mem.l2_evictions";
    case Counter::kDirEntriesDropped: return "mem.dir_entries_dropped";
    case Counter::kUndoWalks: return "logtm.undo_walks";
    case Counter::kSummaryAdds: return "suv.summary_adds";
    case Counter::kSummaryRemoves: return "suv.summary_removes";
    case Counter::kSummaryStaleRemoves: return "suv.summary_stale_removes";
    case Counter::kPoolPages: return "suv.pool_pages";
    case Counter::kSuvFlashCommits: return "suv.flash_commits";
    case Counter::kSuvFlashAborts: return "suv.flash_aborts";
    default: return "?";
  }
}

const char* histogram_name(Histogram h) {
  switch (h) {
    case Histogram::kAbortCause: return "abort_cause";
    case Histogram::kMissLatency: return "miss_latency_cycles";
    case Histogram::kStallCycles: return "stall_cycles";
    case Histogram::kBackoffCycles: return "backoff_cycles";
    case Histogram::kCommittedTxnCycles: return "committed_txn_cycles";
    case Histogram::kAbortedTxnCycles: return "aborted_txn_cycles";
    case Histogram::kUndoEntriesAtAbort: return "undo_entries_at_abort";
    case Histogram::kLinesPerCommit: return "lines_per_commit";
    default: return "?";
  }
}

bool histogram_is_linear(Histogram h) {
  return h == Histogram::kAbortCause;
}

const char* series_name(Series s) {
  switch (s) {
    case Series::kRedirectEntries: return "suv.redirect_entries";
    case Series::kPoolLines: return "suv.pool_lines";
    case Series::kSuspendedTxns: return "suspended_txns";
    case Series::kDirTracked: return "mem.dir_tracked";
    default: return "?";
  }
}

void HistogramData::observe(std::uint64_t v, bool linear) {
  const std::size_t b =
      linear ? static_cast<std::size_t>(v)
             : static_cast<std::size_t>(std::bit_width(v));  // log2 + 1
  buckets[std::min(b, kHistogramBuckets - 1)] += 1;
  ++count;
  sum += v;
  if (v > max) max = v;
}

void MetricsSnapshot::set(std::string_view name, double v) {
  auto it = std::lower_bound(
      scalars.begin(), scalars.end(), name,
      [](const auto& p, std::string_view n) { return p.first < n; });
  if (it != scalars.end() && it->first == name) {
    it->second = v;
  } else {
    scalars.insert(it, {std::string(name), v});
  }
}

double MetricsSnapshot::get(std::string_view name, double missing) const {
  auto it = std::lower_bound(
      scalars.begin(), scalars.end(), name,
      [](const auto& p, std::string_view n) { return p.first < n; });
  return it != scalars.end() && it->first == name ? it->second : missing;
}

MetricsSnapshot snapshot(const Metrics& m) {
  MetricsSnapshot out;
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(Counter::kCount);
       ++i) {
    const auto c = static_cast<Counter>(i);
    if (m.counter(c) != 0) {
      out.set(std::string("obs.") + counter_name(c),
              static_cast<double>(m.counter(c)));
    }
  }
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(Histogram::kCount);
       ++i) {
    const auto h = static_cast<Histogram>(i);
    if (m.histogram(h).count != 0) {
      out.histograms.push_back(
          {histogram_name(h), m.histogram(h), histogram_is_linear(h)});
    }
  }
  for (std::uint32_t i = 0; i < static_cast<std::uint32_t>(Series::kCount);
       ++i) {
    const auto s = static_cast<Series>(i);
    if (!m.series(s).empty()) {
      out.series.push_back({series_name(s), m.series(s)});
    }
  }
  return out;
}

void merge(MetricsSnapshot& a, const MetricsSnapshot& b) {
  // lint: allow(float-accum-order): the reduction order is pinned by the
  // callers -- shard snapshots merge in ascending shard index and run
  // snapshots in submission order (DESIGN.md section 15) -- so the
  // non-commuting double additions happen in one canonical order
  for (const auto& [name, v] : b.scalars) a.set(name, a.get(name) + v);
  for (const auto& h : b.histograms) {
    auto it = std::find_if(a.histograms.begin(), a.histograms.end(),
                           [&](const auto& x) { return x.name == h.name; });
    if (it == a.histograms.end()) {
      a.histograms.push_back(h);
      continue;
    }
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      it->data.buckets[i] += h.data.buckets[i];
    }
    it->data.count += h.data.count;
    it->data.sum += h.data.sum;
    it->data.max = std::max(it->data.max, h.data.max);
  }
  // Series intentionally not merged.
}

}  // namespace suvtm::obs
