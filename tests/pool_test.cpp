#include <gtest/gtest.h>

#include <unordered_set>

#include "suv/pool.hpp"

namespace suvtm::suv {
namespace {

TEST(PoolTest, LinesAreInPoolRegion) {
  PreservedPool p(0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(PreservedPool::in_pool_region(p.allocate()));
  }
}

TEST(PoolTest, LinesAreUnique) {
  PreservedPool p(3);
  std::unordered_set<LineAddr> seen;
  for (int i = 0; i < 10000; ++i) {
    EXPECT_TRUE(seen.insert(p.allocate()).second);
  }
}

TEST(PoolTest, CoresGetDisjointRegions) {
  PreservedPool a(0), b(1);
  std::unordered_set<LineAddr> seen;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(seen.insert(a.allocate()).second);
    EXPECT_TRUE(seen.insert(b.allocate()).second);
  }
}

TEST(PoolTest, ReleaseRecycles) {
  PreservedPool p(0);
  const LineAddr l = p.allocate();
  EXPECT_EQ(p.lines_in_use(), 1u);
  p.release(l);
  EXPECT_EQ(p.lines_in_use(), 0u);
  EXPECT_EQ(p.allocate(), l);  // recycled, LIFO free list
  EXPECT_EQ(p.lines_in_use(), 1u);
}

TEST(PoolTest, InUseTracksHandouts) {
  PreservedPool p(0);
  for (int i = 0; i < 5; ++i) p.allocate();
  EXPECT_EQ(p.lines_in_use(), 5u);
}

TEST(PoolTest, WorkloadAddressesAreOutsideThePool) {
  EXPECT_FALSE(PreservedPool::in_pool_region(line_of(0x10000)));
  EXPECT_FALSE(PreservedPool::in_pool_region(line_of(0xffffffff)));
}

TEST(PoolTest, ScatterSpreadsCacheSets) {
  // Regression test for the set-collision pathology: consecutive
  // allocations must not pile into a handful of L1/L2 cache sets, and two
  // cores' k-th allocations must not always share a set.
  PreservedPool a(0), b(1);
  std::unordered_set<std::uint64_t> sets_a, cross_collisions;
  int cross = 0;
  for (int i = 0; i < 256; ++i) {
    const LineAddr la = a.allocate();
    const LineAddr lb = b.allocate();
    sets_a.insert(la & 16383);  // L2 set index (16384 sets)
    if ((la & 16383) == (lb & 16383)) ++cross;
  }
  EXPECT_GT(sets_a.size(), 200u);  // near-unique set indices
  EXPECT_LT(cross, 8);             // k-th lines rarely collide across cores
}

}  // namespace
}  // namespace suvtm::suv
