// Preserved redirect pool (paper Section III): a reserved memory region per
// core from which redirected target lines are allocated, page at a time.
//
// Deviation from the paper, documented in DESIGN.md: the paper notes that
// the original address of a globally redirected line becomes reclaimable for
// later redirections. We do not hand those lines out as redirect targets,
// because a later toggle-delete of the entry that freed them would clobber
// the tenant. The pool instead grows monotonically
// and recycles only its own freed lines, which is safe and changes only the
// pool-footprint statistic.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "obs/obs.hpp"

namespace suvtm::suv {

/// Base of the reserved pool region: far above any workload allocation
/// (shared constant: the memory system uses it to skip TLB walks, since a
/// redirect entry carries its target's physical page pointer).
inline constexpr Addr kPoolRegionBase = kRedirectPoolBase;
inline constexpr Addr kPoolRegionPerCore = 1ull << 34;  // 16 GiB per core

class PreservedPool {
 public:
  explicit PreservedPool(CoreId core);

  /// Allocate a pool line to serve as a redirect target.
  LineAddr allocate();

  /// Return a pool line (its redirect entry was deleted or aborted).
  void release(LineAddr l);

  /// True if `l` lies inside any core's pool region.
  static bool in_pool_region(LineAddr l) {
    return addr_of_line(l) >= kPoolRegionBase;
  }

  /// The core whose region contains pool line `l`. Lines must be released
  /// to their owning pool (a toggling transaction on another core frees a
  /// line it never allocated).
  static CoreId owner_of(LineAddr l) {
    return static_cast<CoreId>((l - line_of(kPoolRegionBase)) /
                               line_of(kPoolRegionPerCore));
  }

  std::uint64_t lines_in_use() const { return in_use_; }

  /// Observability wiring (forwarded from SuvVm::set_obs).
  void set_obs(obs::Recorder* r) { obs_ = r; }

 private:
  CoreId core_ = 0;
  LineAddr base_line_;
  std::uint64_t next_index_ = 0;
  std::vector<LineAddr> free_list_;
  std::uint64_t in_use_ = 0;
  obs::Recorder* obs_ = nullptr;
};

}  // namespace suvtm::suv
