#include "suv/redirect_table.hpp"

#include <algorithm>
#include <cassert>

#include "obs/recorder.hpp"

namespace suvtm::suv {

RedirectTable::RedirectTable(const sim::SuvParams& p, std::uint32_t num_cores)
    : params_(p) {
  l1_.resize(num_cores);
  l2_sets_.resize(p.l2_table_entries / p.l2_table_assoc);
  summary_.reserve(num_cores);
  for (std::uint32_t c = 0; c < num_cores; ++c) {
    summary_.emplace_back(p.summary_signature_bits, p.summary_signature_hashes);
  }
}

RedirectEntry* RedirectTable::find(LineAddr original) {
  auto it = entries_.find(original);
  return it == entries_.end() ? nullptr : &it->second;
}

const RedirectEntry* RedirectTable::find(LineAddr original) const {
  auto it = entries_.find(original);
  return it == entries_.end() ? nullptr : &it->second;
}

bool RedirectTable::l2_contains(LineAddr l) const {
  const L2Set& s = l2_set(l);
  return std::any_of(s.ways.begin(), s.ways.end(),
                     [l](const auto& w) { return w.first == l; });
}

void RedirectTable::l2_erase(LineAddr l) {
  L2Set& s = l2_set(l);
  std::erase_if(s.ways, [l](const auto& w) { return w.first == l; });
}

void RedirectTable::l2_install(LineAddr l) {
  L2Set& s = l2_set(l);
  for (auto& w : s.ways) {
    if (w.first == l) {
      w.second = ++tick_;
      return;
    }
  }
  if (s.ways.size() >= params_.l2_table_assoc) {
    // Swap the LRU entry out to the memory table (it remains in entries_).
    auto lru = std::min_element(
        s.ways.begin(), s.ways.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    ++stats_.l2_evictions;
    SUVTM_OBS_HOOK(obs_, on_table_spill(lru->first, entry_owner(lru->first)));
    s.ways.erase(lru);
  }
  s.ways.emplace_back(l, ++tick_);
}

void RedirectTable::l1_install(CoreId core, LineAddr l) {
  L1Table& t = l1_[core];
  if (t.pinned.count(l)) return;
  auto it = t.cached.find(l);
  if (it != t.cached.end()) {
    it->second = ++tick_;
    return;
  }
  if (t.pinned.size() + t.cached.size() >= params_.l1_table_entries &&
      !t.cached.empty()) {
    // Evict the LRU non-pinned entry down to the shared second level.
    auto lru = std::min_element(
        t.cached.begin(), t.cached.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    l2_install(lru->first);
    t.cached.erase(lru);
  }
  if (t.pinned.size() + t.cached.size() < params_.l1_table_entries) {
    t.cached.emplace(l, ++tick_);
  }
}

void RedirectTable::drop_from_caches(LineAddr l) {
  for (auto& t : l1_) {
    t.cached.erase(l);
    t.pinned.erase(l);
  }
  l2_erase(l);
}

RedirectTable::Lookup RedirectTable::lookup(CoreId core, LineAddr original) {
  ++stats_.lookups;
  if (!summary_[core].test(original)) {
    ++stats_.summary_filtered;
    return {};  // definitely not redirected, zero cost
  }

  Lookup out;
  L1Table& t = l1_[core];
  if (t.pinned.count(original) || t.cached.count(original)) {
    ++stats_.l1_hits;
    auto it = t.cached.find(original);
    if (it != t.cached.end()) it->second = ++tick_;
    out.probe = params_.l1_table_latency;
    out.entry = find(original);
    assert(out.entry && "first-level table caches only live entries");
    return out;
  }
  ++stats_.l1_misses;

  if (l2_contains(original)) {
    ++stats_.l2_hits;
    out.probe = params_.l2_table_latency;
    l1_install(core, original);
    out.entry = find(original);
    assert(out.entry && "second-level table caches only live entries");
    return out;
  }

  // Both hardware levels missed. The core speculates with the original
  // address while the software memory-table search proceeds in the
  // background (paper Section IV-A), so a summary false positive costs
  // nothing on the critical path; only a real swapped-out entry forces a
  // squash and a redone access.
  const RedirectEntry* e = find(original);
  if (e) {
    ++stats_.mem_hits;
    ++stats_.misspeculations;
    out.squash = params_.misspeculation_penalty;
    l1_install(core, original);
    out.entry = e;
  } else {
    ++stats_.false_filter_hits;
  }
  return out;
}

Cycle RedirectTable::insert_transient(const RedirectEntry& e) {
  assert(e.transient());
  assert(!entries_.count(e.original));
  entries_.emplace(e.original, e);
  summary_[e.owner].add(e.original);
  SUVTM_OBS_HOOK(obs_, on_summary_add());

  L1Table& t = l1_[e.owner];
  t.cached.erase(e.original);
  if (t.pinned.size() < params_.l1_table_entries) {
    t.pinned.insert(e.original);
    return params_.l1_table_latency;
  }
  // First-level overflow: the transient entry lives in the shared table.
  ++stats_.l1_overflow_entries;
  l2_install(e.original);
  return params_.l2_table_latency;
}

Cycle RedirectTable::pin_transient(CoreId owner, LineAddr original) {
  assert(entries_.count(original));
  L1Table& t = l1_[owner];
  t.cached.erase(original);
  if (t.pinned.size() < params_.l1_table_entries) {
    t.pinned.insert(original);
    return params_.l1_table_latency;
  }
  ++stats_.l1_overflow_entries;
  l2_install(original);
  return params_.l2_table_latency;
}

RedirectTable::FlipOutcome RedirectTable::commit_entry(LineAddr original) {
  RedirectEntry* e = find(original);
  assert(e && e->transient());
  FlipOutcome out{false, e->target};
  const CoreId owner = e->owner;
  e->state = commit_flip(e->state);
  if (e->state == EntryState::kGlobalRedirect) {
    // Publish: visible to every core's summary filter from now on, and
    // written to the shared second-level table so other cores' first-level
    // tables can fill from it instead of faulting to the memory table.
    for (std::size_t c = 0; c < summary_.size(); ++c) {
      if (static_cast<CoreId>(c) != owner) {
        summary_[c].add(original);
        SUVTM_OBS_HOOK(obs_, on_summary_add());
      }
    }
    e->owner = kNoCore;
    L1Table& t = l1_[owner];
    if (t.pinned.erase(original)) t.cached.emplace(original, ++tick_);
    l2_install(original);
  } else {
    // g1v0 -> g0v0: the redirection collapsed back to the original address.
    assert(e->state == EntryState::kInvalid);
    out.deleted = true;
    for (auto& s : summary_) {
      [[maybe_unused]] const bool stale = s.remove(original);
      SUVTM_OBS_HOOK(obs_, on_summary_remove(stale));
    }
    drop_from_caches(original);
    entries_.erase(original);
  }
  return out;
}

RedirectTable::FlipOutcome RedirectTable::abort_entry(LineAddr original) {
  RedirectEntry* e = find(original);
  assert(e && e->transient());
  FlipOutcome out{false, e->target};
  const CoreId owner = e->owner;
  e->state = abort_flip(e->state);
  if (e->state == EntryState::kInvalid) {
    out.deleted = true;
    [[maybe_unused]] const bool stale = summary_[owner].remove(original);
    SUVTM_OBS_HOOK(obs_, on_summary_remove(stale));
    drop_from_caches(original);
    entries_.erase(original);
  } else {
    // g1v0 -> g1v1: the pre-existing global redirection is restored.
    assert(e->state == EntryState::kGlobalRedirect);
    e->owner = kNoCore;
    L1Table& t = l1_[owner];
    if (t.pinned.erase(original)) t.cached.emplace(original, ++tick_);
  }
  return out;
}

}  // namespace suvtm::suv
