// Slab-arena unit tests: recycle/reuse behavior, pointer stability, and the DramCache
// payload path (fault-in, eviction write-back, reinsert) that replaced per-fault heap
// allocation for `store_data` replay.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "src/blade/dram_cache.h"
#include "src/common/slab_arena.h"

namespace mind {
namespace {

TEST(SlabArena, RecyclesFreedObjectsLifoBeforeGrowing) {
  SlabArena<PageData, 4> arena;
  PageData* a = arena.Alloc();
  PageData* b = arena.Alloc();
  EXPECT_EQ(arena.slab_count(), 1u);
  EXPECT_EQ(arena.recycled(), 0u);
  arena.Free(a);
  arena.Free(b);
  EXPECT_EQ(arena.live(), 0u);
  EXPECT_EQ(arena.free_count(), 2u);
  // LIFO reuse: the most recently freed object comes back first, no new slab.
  EXPECT_EQ(arena.Alloc(), b);
  EXPECT_EQ(arena.Alloc(), a);
  EXPECT_EQ(arena.recycled(), 2u);
  EXPECT_EQ(arena.slab_count(), 1u);
}

TEST(SlabArena, GrowsByWholeSlabsAndNeverMovesLiveObjects) {
  SlabArena<PageData, 4> arena;
  std::vector<PageData*> pages;
  for (int i = 0; i < 9; ++i) {
    pages.push_back(arena.Alloc());
    (*pages.back())[0] = static_cast<uint8_t>(i);
  }
  EXPECT_EQ(arena.slab_count(), 3u);  // ceil(9 / 4).
  // All distinct, all still holding their bytes (no relocation on growth).
  std::set<PageData*> unique(pages.begin(), pages.end());
  EXPECT_EQ(unique.size(), pages.size());
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ((*pages[i])[0], static_cast<uint8_t>(i));
  }
}

TEST(SlabArena, SteadyStateChurnsWithoutNewSlabs) {
  SlabArena<PageData, 8> arena;
  std::vector<PageData*> live;
  for (int i = 0; i < 8; ++i) {
    live.push_back(arena.Alloc());
  }
  const size_t slabs = arena.slab_count();
  // A replay-like churn: evict one payload, fault another in, thousands of times.
  for (int i = 0; i < 5000; ++i) {
    arena.Free(live.back());
    live.pop_back();
    live.push_back(arena.Alloc());
  }
  EXPECT_EQ(arena.slab_count(), slabs);  // Zero growth at steady state.
  EXPECT_EQ(arena.recycled(), 5000u);
}

TEST(SlabArena, UniquePtrFlavorReturnsToArenaOnDrop) {
  SlabArena<PageData, 4> arena;
  PageData* raw = nullptr;
  {
    auto p = arena.AllocPtr();
    raw = p.get();
    EXPECT_EQ(arena.live(), 1u);
  }
  EXPECT_EQ(arena.live(), 0u);
  EXPECT_EQ(arena.Alloc(), raw);  // The dropped payload was recycled.
}

TEST(SlabArena, ReserveSlabsPrefaultsWithoutCountingAsChurn) {
  SlabArena<PageData, 4> arena;
  arena.ReserveSlabs(3);
  EXPECT_EQ(arena.slab_count(), 3u);
  EXPECT_EQ(arena.frees(), 0u);
  EXPECT_EQ(arena.free_count(), 12u);
  for (int i = 0; i < 12; ++i) {
    arena.Alloc();
  }
  EXPECT_EQ(arena.slab_count(), 3u);  // Reserved capacity absorbed all 12 allocs.
}

TEST(DramCachePayloads, FaultEvictReinsertRecyclesThroughBladeArena) {
  DramCache cache(/*capacity_frames=*/2, /*store_data=*/true);
  PageData bytes{};
  bytes[7] = 0x5A;
  (void)cache.Insert(1, /*writable=*/true, &bytes);
  (void)cache.Insert(2, /*writable=*/true, &bytes);
  EXPECT_EQ(cache.payload_pool().live(), 2u);

  // Capacity eviction hands the payload out as an owning pointer...
  auto ev = cache.Insert(3, /*writable=*/true, &bytes);
  ASSERT_TRUE(ev.has_value());
  ASSERT_NE(ev->data, nullptr);
  EXPECT_EQ((*ev->data)[7], 0x5A);
  EXPECT_EQ(cache.payload_pool().live(), 3u);  // 2 resident + 1 in flight.
  // ...and dropping it (after write-back) recycles the slot into this blade's arena.
  ev.reset();
  EXPECT_EQ(cache.payload_pool().live(), 2u);

  // The next fault reuses the recycled slot and must see fresh content, not stale bytes.
  const uint64_t recycled_before = cache.payload_pool().recycled();
  auto ev2 = cache.Insert(4, /*writable=*/false, /*bytes=*/nullptr);
  ASSERT_TRUE(ev2.has_value());
  EXPECT_GT(cache.payload_pool().recycled(), recycled_before);
  const DramCache::Frame* f = cache.Peek(4);
  ASSERT_NE(f, nullptr);
  ASSERT_NE(f->data, nullptr);
  for (size_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ((*f->data)[i], 0u) << "recycled payload leaked stale byte " << i;
  }
}

TEST(DramCachePayloads, RangeInvalidationFlushesRecycleOnDrop) {
  DramCache cache(/*capacity_frames=*/8, /*store_data=*/true);
  for (uint64_t p = 0; p < 4; ++p) {
    (void)cache.Insert(p, /*writable=*/true, nullptr);
    cache.MarkDirty(p);
  }
  EXPECT_EQ(cache.payload_pool().live(), 4u);
  std::vector<DramCache::Eviction> flushed;
  (void)cache.InvalidateRange(0, 4, &flushed);
  EXPECT_EQ(flushed.size(), 4u);
  EXPECT_EQ(cache.payload_pool().live(), 4u);  // In flight to write-back.
  flushed.clear();
  EXPECT_EQ(cache.payload_pool().live(), 0u);  // All recycled after the flush.
  // Discarded flushes (null buffer) recycle at once.
  for (uint64_t p = 0; p < 4; ++p) {
    (void)cache.Insert(p, /*writable=*/true, nullptr);
    cache.MarkDirty(p);
  }
  EXPECT_EQ(cache.InvalidateRange(0, 4, /*flushed=*/nullptr), 0u);
  EXPECT_EQ(cache.payload_pool().live(), 0u);
}

TEST(DramCachePayloads, MetadataOnlyModeAllocatesNothing) {
  DramCache cache(/*capacity_frames=*/4, /*store_data=*/false);
  for (uint64_t p = 0; p < 16; ++p) {
    (void)cache.Insert(p, false, nullptr);
  }
  EXPECT_EQ(cache.payload_pool().allocs(), 0u);
  EXPECT_EQ(cache.payload_pool().slab_count(), 0u);
}

}  // namespace
}  // namespace mind
