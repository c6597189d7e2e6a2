#include "sim/cache.hpp"

#include <gtest/gtest.h>

#include <cstddef>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace coloc::sim {
namespace {

CacheConfig small_cache(std::size_t lines, std::size_t assoc) {
  CacheConfig c;
  c.name = "test";
  c.line_bytes = 64;
  c.size_bytes = lines * 64;
  c.associativity = assoc;
  return c;
}

TEST(CacheTest, FirstAccessMissesSecondHits) {
  Cache cache(small_cache(64, 4));
  EXPECT_FALSE(cache.access(42));
  EXPECT_TRUE(cache.access(42));
  EXPECT_EQ(cache.stats().accesses, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CacheTest, LruEvictsOldest) {
  // Fully-associative 4-line cache (1 set x 4 ways).
  Cache cache(small_cache(4, 4));
  cache.access(0);
  cache.access(1);
  cache.access(2);
  cache.access(3);
  cache.access(4);  // evicts 0
  EXPECT_FALSE(cache.contains(0));
  EXPECT_TRUE(cache.contains(1));
  EXPECT_FALSE(cache.access(0));  // 0 must miss now
}

TEST(CacheTest, AccessRefreshesLru) {
  Cache cache(small_cache(4, 4));
  cache.access(0);
  cache.access(1);
  cache.access(2);
  cache.access(3);
  cache.access(0);  // refresh 0; LRU is now 1
  cache.access(4);  // evicts 1
  EXPECT_TRUE(cache.contains(0));
  EXPECT_FALSE(cache.contains(1));
}

TEST(CacheTest, SetMappingSeparatesConflicts) {
  // 8 lines, 2-way: 4 sets. Lines 0 and 4 share set 0; 1 maps to set 1.
  Cache cache(small_cache(8, 2));
  cache.access(0);
  cache.access(4);
  cache.access(8);  // third line in set 0: evicts 0
  EXPECT_FALSE(cache.contains(0));
  cache.access(1);
  EXPECT_TRUE(cache.contains(1));  // set 1 untouched by the conflict
}

TEST(CacheTest, ContainsDoesNotTouchState) {
  Cache cache(small_cache(4, 4));
  cache.access(0);
  cache.access(1);
  cache.access(2);
  cache.access(3);
  // Probing 0 via contains must NOT refresh it.
  EXPECT_TRUE(cache.contains(0));
  cache.access(4);  // still evicts 0 (oldest by true access order)
  EXPECT_FALSE(cache.contains(0));
}

TEST(CacheTest, FlushEmptiesCache) {
  Cache cache(small_cache(16, 4));
  cache.access(5);
  cache.flush();
  EXPECT_FALSE(cache.contains(5));
}

TEST(CacheTest, ResetStatsKeepsContents) {
  Cache cache(small_cache(16, 4));
  cache.access(5);
  cache.reset_stats();
  EXPECT_EQ(cache.stats().accesses, 0u);
  EXPECT_TRUE(cache.contains(5));
}

TEST(CacheTest, NonPowerOfTwoSetCount) {
  // 12 sets x 4 ways = 48 lines (mirrors real sliced LLC geometry).
  Cache cache(small_cache(48, 4));
  for (LineAddress a = 0; a < 48; ++a) cache.access(a);
  std::size_t resident = 0;
  for (LineAddress a = 0; a < 48; ++a) resident += cache.contains(a);
  EXPECT_EQ(resident, 48u);
}

TEST(CacheTest, MissRatioComputed) {
  Cache cache(small_cache(16, 4));
  cache.access(1);
  cache.access(1);
  cache.access(2);
  cache.access(2);
  EXPECT_DOUBLE_EQ(cache.stats().miss_ratio(), 0.5);
}

TEST(CacheTest, InvalidGeometryRejected) {
  CacheConfig c = small_cache(10, 4);  // 10 lines not divisible by 4 ways
  EXPECT_THROW(Cache{c}, coloc::runtime_error);
  CacheConfig zero;
  zero.line_bytes = 0;
  EXPECT_THROW(Cache{zero}, coloc::runtime_error);
}

TEST(CacheProperty, LargerCacheNeverMissesMore) {
  // LRU inclusion property on a fully-associative pair of caches.
  coloc::Rng rng(1);
  Cache small(small_cache(32, 32));
  Cache large(small_cache(64, 64));
  for (int i = 0; i < 20000; ++i) {
    const LineAddress a = rng.zipf(256, 0.8);
    small.access(a);
    large.access(a);
  }
  EXPECT_LE(large.stats().misses, small.stats().misses);
}

TEST(HierarchyTest, UpperHitShieldsLower) {
  CacheHierarchy h({small_cache(16, 4), small_cache(64, 4)});
  h.access(3);                       // miss everywhere
  EXPECT_EQ(h.access(3), 0u);        // L1 hit
  EXPECT_EQ(h.level(1).stats().accesses, 1u);  // only the initial miss
}

TEST(HierarchyTest, MissReturnsLevelCount) {
  CacheHierarchy h({small_cache(16, 4), small_cache(64, 4)});
  EXPECT_EQ(h.access(99), 2u);  // missed both -> DRAM
}

TEST(HierarchyTest, LlcCountersTrackLastLevel) {
  CacheHierarchy h({small_cache(4, 4), small_cache(64, 4)});
  // 8 distinct lines: all miss L1 and L2 (cold).
  for (LineAddress a = 0; a < 8; ++a) h.access(a);
  EXPECT_EQ(h.llc_accesses(), 8u);
  EXPECT_EQ(h.llc_misses(), 8u);
  // Lines 4..7 are still in L1 (4 lines) — re-access hits L1, LLC silent.
  h.access(7);
  EXPECT_EQ(h.llc_accesses(), 8u);
  // Line 0 fell out of L1 but sits in L2: LLC access + hit.
  h.access(0);
  EXPECT_EQ(h.llc_accesses(), 9u);
  EXPECT_EQ(h.llc_misses(), 8u);
}

TEST(HierarchyTest, ResetStatsClearsAllLevels) {
  CacheHierarchy h({small_cache(16, 4), small_cache(64, 4)});
  h.access(1);
  h.reset_stats();
  EXPECT_EQ(h.level(0).stats().accesses, 0u);
  EXPECT_EQ(h.level(1).stats().accesses, 0u);
}

TEST(HierarchyTest, EmptyRejected) {
  EXPECT_THROW(CacheHierarchy{{}}, coloc::runtime_error);
}

}  // namespace
}  // namespace coloc::sim
