// Directory state for the MESI protocol (paper Table III: bit-vector of
// sharers held at the L2, 6-cycle access).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/flat_hash.hpp"
#include "common/types.hpp"

namespace suvtm::mem {

/// Per-line directory entry: either one owner in M/E, or a set of sharers
/// in S, or neither (line only in L2/memory).
struct DirEntry {
  std::uint32_t sharers = 0;   // bit per core, S copies
  CoreId owner = kNoCore;      // core holding M/E, or kNoCore
};

/// Largest machine the sharer mask can describe: core c sets bit c, so a
/// core >= 32 would shift past the word. sim::Simulator rejects larger
/// machines up front.
inline constexpr std::uint32_t kMaxCores = 32;
static_assert(sizeof(DirEntry::sharers) * 8 == kMaxCores);

/// Flat open-addressing line -> entry map. References returned by entry()
/// are invalidated by any later entry() that inserts (rehash) or by
/// remove_core() (backshift erase); callers obtain their reference, use it,
/// and drop it before the next directory mutation.
class Directory {
 public:
  /// Entry for `l`, creating it on demand.
  DirEntry& entry(LineAddr l) { return map_[l]; }

  /// Entry if tracked, else nullptr.
  const DirEntry* find(LineAddr l) const {
    auto it = map_.find(l);
    return it == map_.end() ? nullptr : &it->second;
  }

  /// Drop a core from the line's sharer/owner info (L1 eviction). Returns
  /// true when this left the entry empty and it was erased from the map.
  bool remove_core(LineAddr l, CoreId c);

  std::size_t tracked_lines() const { return map_.size(); }

  /// Visit every tracked (line, entry) pair in ascending line order
  /// (structural audits). Sorted drain on purpose: audit violations are
  /// reported under a cap, so hash-order visitation would decide *which*
  /// violations a run reports by hash/capacity policy rather than by
  /// simulated state (suvlint: nondet-iteration). Audit-only path; the
  /// per-access protocol never iterates.
  template <class Fn>
  void for_each(Fn&& fn) const {
    std::vector<LineAddr> lines;
    lines.reserve(map_.size());
    // lint: allow(nondet-iteration): order laundered by the sort below
    for (const auto& kv : map_) lines.push_back(kv.first);
    std::sort(lines.begin(), lines.end());
    for (LineAddr l : lines) fn(l, map_.find(l)->second);
  }

  /// Hash-order visitation for callers that launder the order themselves
  /// (audit_coherence sorts its collected violations before returning, so
  /// the walk order never reaches a report). Skips for_each's sort and
  /// per-line re-probe -- the audit runs every sampling period, and on a
  /// big footprint the sort dominated the whole audit.
  template <class Fn>
  void for_each_unordered(Fn&& fn) const {
    // lint: allow(nondet-iteration): callers sort whatever they emit
    for (const auto& kv : map_) fn(kv.first, kv.second);
  }

 private:
  FlatMap<LineAddr, DirEntry> map_;
};

}  // namespace suvtm::mem
