#include "suv/pool.hpp"

#include "obs/recorder.hpp"

namespace suvtm::suv {

PreservedPool::PreservedPool(CoreId core)
    : core_(core),
      base_line_(line_of(kPoolRegionBase) +
                 static_cast<LineAddr>(core) * line_of(kPoolRegionPerCore)) {}

LineAddr PreservedPool::allocate() {
  ++in_use_;
  if (!free_list_.empty()) {
    LineAddr l = free_list_.back();
    free_list_.pop_back();
    return l;
  }
  // Scatter pool lines across the cache index space with a bijective
  // multiplicative hash (odd multiplier mod a power of two): the OS hands
  // the pool physically scattered pages, and the redirect entry carries the
  // page pointer, so contiguity buys nothing while alignment would pile
  // every core's hot pool lines into the same few cache sets.
  if (next_index_ % kLinesPerPage == 0) {
    SUVTM_OBS_HOOK(obs_, on_pool_page(core_));
  }
  const std::uint64_t span = line_of(kPoolRegionPerCore);  // power of two
  // Mix the core id in: different cores' k-th lines must not share a set.
  const LineAddr scattered =
      ((next_index_ * 16 + core_ + 1) * 0x9E3779B1ull) & (span - 1);
  ++next_index_;
  return base_line_ + scattered;
}

void PreservedPool::release(LineAddr l) {
  free_list_.push_back(l);
  if (in_use_ > 0) --in_use_;
}

}  // namespace suvtm::suv
