// Generic set-associative tag array with true-LRU replacement.
//
// Tag-only: data lives in the BackingStore. Used for the per-core L1s, the
// shared banked L2, and reused (with a different payload meaning) by the SUV
// second-level redirect table.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <memory>

#include "common/types.hpp"

namespace suvtm::mem {

/// Per-line coherence state as seen by the local cache (MESI).
enum class CohState : std::uint8_t { kInvalid, kShared, kExclusive, kModified };

const char* coh_state_name(CohState s);

class Cache {
 public:
  /// Trivially default-constructible on purpose: a simulator run holds
  /// megabytes of L2 lines, and all-zero bytes ARE the invalid state
  /// (kInvalid == 0), so the array comes zeroed from calloc with no
  /// per-element constructor loop. Aggregate-initialize when building a
  /// real line.
  struct Line {
    LineAddr tag;            // full line address (simpler than tag bits)
    CohState state;          // kInvalid (== 0) when the way is empty
    std::uint64_t lru;
    bool speculative;        // FasTM SM bit
  };
  static_assert(static_cast<int>(CohState::kInvalid) == 0,
                "zero-initialized lines must read as invalid");

  struct Victim {
    bool valid = false;      // an eviction happened
    LineAddr line = 0;
    CohState state = CohState::kInvalid;
    bool speculative = false;
  };

  Cache(std::uint32_t total_bytes, std::uint32_t assoc);

  std::uint32_t num_sets() const { return num_sets_; }
  std::uint32_t assoc() const { return assoc_; }
  std::uint32_t set_index(LineAddr l) const {
    return static_cast<std::uint32_t>(l & (num_sets_ - 1));
  }

  /// Returns the line's entry if present (any valid state), else nullptr.
  /// Inline: this is the single most-called function in the memory system.
  Line* find(LineAddr l) {
    Line* set = set_of(l);
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      Line& ln = set[w];
      if (ln.tag == l && ln.state != CohState::kInvalid) return &ln;
    }
    return nullptr;
  }
  const Line* find(LineAddr l) const {
    const Line* set = set_of(l);
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      const Line& ln = set[w];
      if (ln.tag == l && ln.state != CohState::kInvalid) return &ln;
    }
    return nullptr;
  }

  /// Touch for LRU (call on every hit).
  void touch(Line& ln) { ln.lru = ++tick_; }

  /// Insert `l` with `st`, evicting the LRU way if the set is full.
  /// Lines with `speculative` set are never chosen as victims while a
  /// non-speculative victim exists (FasTM tries to keep SM lines resident).
  Victim insert(LineAddr l, CohState st);

  /// Remove the line if present (invalidation).
  void invalidate(LineAddr l);

  /// Invoke `fn` for every valid line (e.g. flash-clear of SM bits).
  /// Templated (not std::function) so the L1 walks done on every
  /// commit/abort inline the callback instead of an indirect call. One
  /// linear sweep over the contiguous line array, set-major.
  template <class Fn>
  void for_each(Fn&& fn) {
    Line* const end = lines_.get() + line_count_;
    for (Line* ln = lines_.get(); ln != end; ++ln) {
      if (ln->state != CohState::kInvalid) fn(*ln);
    }
  }
  template <class Fn>
  void for_each(Fn&& fn) const {
    const Line* const end = lines_.get() + line_count_;
    for (const Line* ln = lines_.get(); ln != end; ++ln) {
      if (ln->state != CohState::kInvalid) fn(*ln);
    }
  }

  /// Number of valid lines currently in `l`'s set.
  std::uint32_t set_occupancy(LineAddr l) const;

 private:
  // All sets in one contiguous array, stride = assoc_: set s occupies
  // [s*assoc_, (s+1)*assoc_). One allocation, no per-set vector headers,
  // and a whole 4-way set of 24-byte lines spans at most two cache lines.
  Line* set_of(LineAddr l) { return lines_.get() + std::size_t{set_index(l)} * assoc_; }
  const Line* set_of(LineAddr l) const {
    return lines_.get() + std::size_t{set_index(l)} * assoc_;
  }

  struct FreeDeleter {
    void operator()(void* p) const { std::free(p); }
  };

  std::uint32_t num_sets_;
  std::uint32_t assoc_;
  std::uint64_t tick_ = 0;
  std::size_t line_count_ = 0;
  // calloc-backed (Line is an implicit-lifetime type and all-zero == all
  // invalid). When glibc serves the multi-megabyte L2 array from fresh
  // pages (a newly extended heap top or a new mapping), calloc skips the
  // zeroing and a run that touches a fraction of the array never faults in
  // the rest. When it recycles a freed chunk instead, calloc zeroes the
  // whole array, so construction cost depends on the allocator's heap
  // state, not only on the cache size.
  std::unique_ptr<Line[], FreeDeleter> lines_;
};

}  // namespace suvtm::mem
