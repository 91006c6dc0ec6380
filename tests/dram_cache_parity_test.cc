// LRU-order parity test for the flat-hash DramCache: a reference model built exactly the
// way the seed implementation was (ordered std::map of frames + std::list recency list) is
// driven in lockstep with the real cache through randomized insert/lookup/upgrade/dirty/
// invalidate/downgrade sequences. Eviction order, the dirty write-back set, range
// invalidation results and occupancy must be identical at every step — the refactor must
// be observationally indistinguishable from the seed semantics.
//
// Speculative installs (DramCache::InsertPrefetched) are modelled the naive way: walk
// `depth` entries up from the cold end of the std::list and link the page there. The real
// cache reaches the same position through its cold-segment cursor in amortized O(1), so
// the lockstep below is the bit-identity guard for that cursor.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <list>
#include <map>
#include <vector>

#include "src/blade/dram_cache.h"
#include "src/common/rng.h"

namespace mind {
namespace {

// Reference model mirroring the seed DramCache exactly.
class RefCache {
 public:
  explicit RefCache(uint64_t capacity) : capacity_(capacity) {}

  struct Frame {
    bool dirty = false;
    bool writable = false;
    bool prefetched = false;
    ProtDomainId pdid = 0;
    std::list<uint64_t>::iterator lru_it;
  };

  Frame* Lookup(uint64_t page) {
    auto it = frames_.find(page);
    if (it == frames_.end()) {
      return nullptr;
    }
    Touch(page, it->second);
    return &it->second;
  }

  struct Evicted {
    uint64_t page;
    bool dirty;
  };
  std::optional<Evicted> Insert(uint64_t page, bool writable, ProtDomainId pdid) {
    if (auto it = frames_.find(page); it != frames_.end()) {
      it->second.writable = it->second.writable || writable;
      it->second.prefetched = false;
      it->second.pdid = pdid;
      Touch(page, it->second);
      return std::nullopt;
    }
    std::optional<Evicted> ev = EvictIfFull();
    Frame f;
    f.writable = writable;
    f.pdid = pdid;
    lru_.push_front(page);
    f.lru_it = lru_.begin();
    frames_.emplace(page, f);
    return ev;
  }

  [[nodiscard]] bool Contains(uint64_t page) const { return frames_.count(page) != 0; }

  // Speculative install of an uncached page: it enters with exactly min(depth, size)
  // pages colder than it, found by walking up from the LRU end.
  std::optional<Evicted> InsertPrefetched(uint64_t page, bool writable, ProtDomainId pdid,
                                          uint32_t depth) {
    std::optional<Evicted> ev = EvictIfFull();
    auto pos = lru_.end();
    for (uint32_t d = 0; d < depth && pos != lru_.begin(); ++d) {
      --pos;
    }
    Frame f;
    f.writable = writable;
    f.prefetched = true;
    f.pdid = pdid;
    f.lru_it = lru_.insert(pos, page);
    frames_.emplace(page, f);
    return ev;
  }

  void MakeWritable(uint64_t page) {
    if (auto it = frames_.find(page); it != frames_.end()) {
      it->second.writable = true;
    }
  }
  void MarkDirty(uint64_t page) {
    if (auto it = frames_.find(page); it != frames_.end()) {
      it->second.dirty = true;
    }
  }

  struct RangeResult {
    std::vector<uint64_t> flushed;  // Ascending page order.
    uint64_t dropped_clean = 0;
  };
  RangeResult InvalidateRange(uint64_t begin, uint64_t end) {
    RangeResult r;
    auto it = frames_.lower_bound(begin);
    while (it != frames_.end() && it->first < end) {
      if (it->second.dirty) {
        r.flushed.push_back(it->first);
      } else {
        ++r.dropped_clean;
      }
      lru_.erase(it->second.lru_it);
      it = frames_.erase(it);
    }
    return r;
  }

  RangeResult DowngradeRange(uint64_t begin, uint64_t end) {
    RangeResult r;
    for (auto it = frames_.lower_bound(begin); it != frames_.end() && it->first < end; ++it) {
      if (it->second.dirty) {
        r.flushed.push_back(it->first);
        it->second.dirty = false;
      }
      it->second.writable = false;
    }
    return r;
  }

  uint64_t CountRange(uint64_t begin, uint64_t end) const {
    uint64_t n = 0;
    for (auto it = frames_.lower_bound(begin); it != frames_.end() && it->first < end; ++it) {
      ++n;
    }
    return n;
  }

  [[nodiscard]] uint64_t size() const { return frames_.size(); }
  [[nodiscard]] const std::list<uint64_t>& lru() const { return lru_; }

 private:
  std::optional<Evicted> EvictIfFull() {
    if (frames_.size() < capacity_ || capacity_ == 0) {
      return std::nullopt;
    }
    const uint64_t victim = lru_.back();
    lru_.pop_back();
    Evicted ev{victim, frames_[victim].dirty};
    frames_.erase(victim);
    return ev;
  }

  void Touch(uint64_t page, Frame& f) {
    lru_.erase(f.lru_it);
    lru_.push_front(page);
    f.lru_it = lru_.begin();
  }

  uint64_t capacity_;
  std::map<uint64_t, Frame> frames_;
  std::list<uint64_t> lru_;
};

// The cache's range invalidation collected into the reference's result shape.
struct CacheInvalidation {
  std::vector<DramCache::Eviction> flushed;
  uint64_t dropped_clean = 0;
};
CacheInvalidation InvalidateInto(DramCache& cache, uint64_t begin, uint64_t end) {
  CacheInvalidation r;
  r.dropped_clean = cache.InvalidateRange(begin, end, &r.flushed);
  return r;
}

class DramCacheParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DramCacheParityTest, FlatCacheMatchesSeedSemantics) {
  constexpr uint64_t kCapacity = 48;
  constexpr uint64_t kPageSpace = 1400;  // Spans three 512-page regions.
  DramCache cache(kCapacity, /*store_data=*/false);
  RefCache ref(kCapacity);
  Rng rng(GetParam());

  for (int step = 0; step < 6000; ++step) {
    const double roll = rng.NextDouble();
    const uint64_t page = rng.NextBelow(kPageSpace);
    if (roll < 0.45) {
      const bool writable = rng.NextBelow(2) == 0;
      const ProtDomainId pdid = static_cast<ProtDomainId>(rng.NextBelow(3));
      auto got = cache.Insert(page, writable, nullptr, pdid);
      auto want = ref.Insert(page, writable, pdid);
      ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
      if (got.has_value()) {
        ASSERT_EQ(got->page, want->page) << "eviction order diverged at step " << step;
        ASSERT_EQ(got->dirty, want->dirty) << "write-back set diverged at step " << step;
      }
    } else if (roll < 0.65) {
      DramCache::Frame* got = cache.Lookup(page);
      RefCache::Frame* want = ref.Lookup(page);
      ASSERT_EQ(got != nullptr, want != nullptr) << "step " << step;
      if (got != nullptr) {
        ASSERT_EQ(got->writable, want->writable);
        ASSERT_EQ(got->dirty, want->dirty);
        ASSERT_EQ(got->pdid, want->pdid);
        ASSERT_EQ(got->page, page);
      }
    } else if (roll < 0.75) {
      cache.MakeWritable(page);
      ref.MakeWritable(page);
      cache.MarkDirty(page);
      ref.MarkDirty(page);
    } else if (roll < 0.85) {
      const uint64_t span = 1 + rng.NextBelow(600);  // Crosses region boundaries.
      const uint64_t begin = rng.NextBelow(kPageSpace);
      auto got = InvalidateInto(cache, begin, begin + span);
      auto want = ref.InvalidateRange(begin, begin + span);
      ASSERT_EQ(got.dropped_clean, want.dropped_clean) << "step " << step;
      ASSERT_EQ(got.flushed.size(), want.flushed.size()) << "step " << step;
      for (size_t i = 0; i < got.flushed.size(); ++i) {
        ASSERT_EQ(got.flushed[i].page, want.flushed[i]) << "flush order at step " << step;
        ASSERT_TRUE(got.flushed[i].dirty);
      }
    } else if (roll < 0.92) {
      const uint64_t span = 1 + rng.NextBelow(600);
      const uint64_t begin = rng.NextBelow(kPageSpace);
      auto got = cache.DowngradeRange(begin, begin + span);
      auto want = ref.DowngradeRange(begin, begin + span);
      ASSERT_EQ(got.flushed.size(), want.flushed.size()) << "step " << step;
      for (size_t i = 0; i < got.flushed.size(); ++i) {
        ASSERT_EQ(got.flushed[i].page, want.flushed[i]);
      }
    } else {
      const uint64_t span = 1 + rng.NextBelow(600);
      const uint64_t begin = rng.NextBelow(kPageSpace);
      ASSERT_EQ(cache.CountRange(begin, begin + span), ref.CountRange(begin, begin + span));
    }

    ASSERT_EQ(cache.size(), ref.size()) << "step " << step;

    if (step % 1500 == 1499) {
      // Drain through pure capacity eviction: inserting fresh sentinel pages forces every
      // resident page out oldest-first, so the two caches must emit identical eviction
      // sequences — the strongest whole-list LRU-parity statement available.
      const uint64_t resident = cache.size();
      uint64_t sentinel = kPageSpace + static_cast<uint64_t>(step) * kCapacity;
      for (uint64_t i = 0; i < resident; ++i, ++sentinel) {
        auto got = cache.Insert(sentinel, false, nullptr, 0);
        auto want = ref.Insert(sentinel, false, 0);
        ASSERT_EQ(got.has_value(), want.has_value());
        if (got.has_value()) {
          ASSERT_EQ(got->page, want->page) << "drain order diverged at " << i;
          ASSERT_EQ(got->dirty, want->dirty);
        }
      }
      // Clear the sentinels so the next phase starts from the common working set.
      (void)InvalidateInto(cache, 0, sentinel + 1);
      (void)ref.InvalidateRange(0, sentinel + 1);
      ASSERT_EQ(cache.size(), ref.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DramCacheParityTest, ::testing::Values(3u, 17u, 29u));

// Drains both caches through capacity eviction with fresh MRU sentinels: every resident
// page leaves oldest-first, so equal eviction sequences mean equal full recency orders.
void ExpectSameRecencyOrder(DramCache& cache, RefCache& ref, uint64_t first_sentinel) {
  ASSERT_EQ(cache.size(), ref.size());
  const uint64_t resident = cache.size();
  for (uint64_t i = 0; i < resident; ++i) {
    auto got = cache.Insert(first_sentinel + i, false, nullptr, 0);
    auto want = ref.Insert(first_sentinel + i, false, 0);
    ASSERT_EQ(got.has_value(), want.has_value()) << "drain step " << i;
    if (got.has_value()) {
      ASSERT_EQ(got->page, want->page) << "recency order diverged at drain step " << i;
      ASSERT_EQ(got->dirty, want->dirty);
    }
  }
}

class DramCachePrefetchParityTest : public ::testing::TestWithParam<uint64_t> {};

// Speculative installs at random and adaptive depths, interleaved with every other
// recency-changing operation: the victim of each step and the final recency order must
// match the walk-at-depth reference exactly.
TEST_P(DramCachePrefetchParityTest, ColdInsertsMatchWalkAtDepth) {
  Rng rng(GetParam());
  const uint64_t capacity = 16 + rng.NextBelow(49);  // 16..64 frames.
  const uint64_t page_space = 1400;                  // Spans three 512-page regions.
  DramCache cache(capacity, /*store_data=*/false);
  RefCache ref(capacity);
  // Mirrors BladePrefetchState's adaptive depth: +8 on a useful touch, halved on an
  // evicted-unused event; its range straddles the cache size.
  uint32_t adaptive = 8;

  for (int step = 0; step < 20000; ++step) {
    const double roll = rng.NextDouble();
    const uint64_t page = rng.NextBelow(page_space);
    if (roll < 0.40) {
      uint32_t depth = adaptive;
      const double pick = rng.NextDouble();
      if (pick < 0.15) {
        depth = 0;
      } else if (pick < 0.30) {
        depth = static_cast<uint32_t>(capacity + rng.NextBelow(2 * capacity));
      }
      const bool writable = rng.NextBelow(2) == 0;
      if (ref.Contains(page)) {
        // Speculative installs require an uncached page; every caller skips cached ones.
        ASSERT_NE(cache.Find(page), nullptr) << "step " << step;
        continue;
      }
      auto got = cache.InsertPrefetched(page, writable, nullptr, 0, depth);
      auto want = ref.InsertPrefetched(page, writable, 0, depth);
      ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
      if (got.has_value()) {
        ASSERT_EQ(got->page, want->page) << "victim diverged at step " << step;
        ASSERT_EQ(got->dirty, want->dirty) << "step " << step;
      }
    } else if (roll < 0.55) {
      const bool writable = rng.NextBelow(2) == 0;
      auto got = cache.Insert(page, writable, nullptr, 0);
      auto want = ref.Insert(page, writable, 0);
      ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
      if (got.has_value()) {
        ASSERT_EQ(got->page, want->page) << "victim diverged at step " << step;
        ASSERT_EQ(got->dirty, want->dirty) << "step " << step;
      }
    } else if (roll < 0.80) {
      DramCache::Frame* got = cache.Lookup(page);
      RefCache::Frame* want = ref.Lookup(page);
      ASSERT_EQ(got != nullptr, want != nullptr) << "step " << step;
      if (got != nullptr) {
        ASSERT_EQ(got->prefetched, want->prefetched) << "step " << step;
        ASSERT_EQ(got->writable, want->writable) << "step " << step;
        if (rng.NextBelow(2) == 0) {
          got->dirty = want->dirty = true;  // A store through the memoized frame.
        }
      }
    } else if (roll < 0.85) {
      const uint64_t span = 1 + rng.NextBelow(64);
      auto got = InvalidateInto(cache, page, page + span);
      auto want = ref.InvalidateRange(page, page + span);
      ASSERT_EQ(got.dropped_clean, want.dropped_clean) << "step " << step;
      ASSERT_EQ(got.flushed.size(), want.flushed.size()) << "step " << step;
    } else if (roll < 0.90) {
      const uint64_t span = 1 + rng.NextBelow(600);
      auto got = cache.DowngradeRange(page, page + span);
      auto want = ref.DowngradeRange(page, page + span);
      ASSERT_EQ(got.flushed.size(), want.flushed.size()) << "step " << step;
    } else if (roll < 0.95) {
      adaptive = std::min<uint32_t>(adaptive + 8, static_cast<uint32_t>(2 * capacity));
    } else {
      adaptive /= 2;
    }
    ASSERT_EQ(cache.size(), ref.size()) << "step " << step;
  }
  ExpectSameRecencyOrder(cache, ref, page_space);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DramCachePrefetchParityTest,
                         ::testing::Values(1u, 5u, 9u, 31u, 77u, 101u, 2024u, 65537u));

// Applies the same range invalidation to both caches and checks the flush set (ascending
// page order), the clean-drop count and occupancy.
void ExpectSameInvalidation(DramCache& cache, RefCache& ref, uint64_t begin, uint64_t end) {
  auto got = InvalidateInto(cache, begin, end);
  auto want = ref.InvalidateRange(begin, end);
  ASSERT_EQ(got.dropped_clean, want.dropped_clean);
  ASSERT_EQ(got.flushed.size(), want.flushed.size());
  for (size_t i = 0; i < got.flushed.size(); ++i) {
    ASSERT_EQ(got.flushed[i].page, want.flushed[i]) << "flush order at " << i;
    ASSERT_TRUE(got.flushed[i].dirty);
  }
  ASSERT_EQ(cache.size(), ref.size());
}

// A ping-ponged region: every page of it leaves (by invalidation and by LRU eviction),
// then it fills again. Membership, flush order and recency must stay exact across each
// empty/refill cycle, and the region's version must keep rising.
TEST(DramCacheRegions, RegionThatEmptiesAndRefillsStaysExact) {
  constexpr uint64_t kCapacity = 64;
  constexpr uint64_t kRegion = 5;
  const uint64_t base = kRegion * DramCache::kRegionPages;
  DramCache cache(kCapacity, /*store_data=*/false);
  RefCache ref(kCapacity);
  Rng rng(41);
  uint64_t last_version = 0;
  for (int cycle = 0; cycle < 40; ++cycle) {
    SCOPED_TRACE(cycle);
    const uint64_t pages = 1 + rng.NextBelow(kCapacity);
    for (uint64_t i = 0; i < pages; ++i) {
      const uint64_t page = base + rng.NextBelow(DramCache::kRegionPages);
      (void)cache.Insert(page, /*writable=*/true, nullptr, 0);
      (void)ref.Insert(page, true, 0);
      if (rng.NextBelow(2) == 0) {
        cache.MarkDirty(page);
        ref.MarkDirty(page);
      }
    }
    ASSERT_EQ(cache.CountRange(base, base + DramCache::kRegionPages),
              ref.CountRange(base, base + DramCache::kRegionPages));
    ASSERT_GT(cache.region_version(kRegion), last_version);
    last_version = cache.region_version(kRegion);
    if (cycle % 3 == 2) {
      // Empty the region through capacity eviction: fresh pages of another region push
      // every frame of this one out.
      for (uint64_t i = 0; i < kCapacity; ++i) {
        const uint64_t sentinel = 100 * DramCache::kRegionPages + i;
        auto got = cache.Insert(sentinel, false, nullptr, 0);
        auto want = ref.Insert(sentinel, false, 0);
        ASSERT_EQ(got.has_value(), want.has_value()) << "sentinel " << i;
        if (got.has_value()) {
          ASSERT_EQ(got->page, want->page) << "eviction order diverged at sentinel " << i;
          ASSERT_EQ(got->dirty, want->dirty);
        }
      }
      ExpectSameInvalidation(cache, ref, 100 * DramCache::kRegionPages,
                             101 * DramCache::kRegionPages);
    } else {
      // Empty it through invalidation, sometimes in two halves.
      const uint64_t split = base + rng.NextBelow(DramCache::kRegionPages);
      ExpectSameInvalidation(cache, ref, split, base + DramCache::kRegionPages);
      ExpectSameInvalidation(cache, ref, base, split);
    }
    ASSERT_EQ(cache.CountRange(base, base + DramCache::kRegionPages), 0u);
    ASSERT_EQ(cache.size(), 0u);
  }
}

// A shoot-down whose span covers far more regions than hold pages takes the sparse
// live-region walk. Regions that emptied earlier must not be visited out of order or
// resurrected, and the flush order must stay ascending across the whole span.
TEST(DramCacheRegions, SparseShootDownSpanningMoreRegionsThanAreLive) {
  constexpr uint64_t kCapacity = 256;
  DramCache cache(kCapacity, /*store_data=*/false);
  RefCache ref(kCapacity);
  Rng rng(7);
  // Scattered regions, inserted in descending region order so neither the insertion nor
  // any hash order matches the ascending visit order.
  const uint64_t regions[] = {90'000, 70'001, 4'096, 513, 77, 3, 1};
  for (const uint64_t r : regions) {
    for (int i = 0; i < 12; ++i) {
      const uint64_t page =
          r * DramCache::kRegionPages + rng.NextBelow(DramCache::kRegionPages);
      (void)cache.Insert(page, /*writable=*/true, nullptr, 0);
      (void)ref.Insert(page, true, 0);
      if (rng.NextBelow(3) != 0) {
        cache.MarkDirty(page);
        ref.MarkDirty(page);
      }
    }
  }
  // Empty three of them, so fewer regions are live than were ever populated.
  for (const uint64_t r : {70'001ull, 513ull, 3ull}) {
    ExpectSameInvalidation(cache, ref, r * DramCache::kRegionPages,
                           (r + 1) * DramCache::kRegionPages);
  }
  // Sparse spans over part of the address space, then all of it.
  ExpectSameInvalidation(cache, ref, 2 * DramCache::kRegionPages,
                         80'000 * DramCache::kRegionPages);
  ASSERT_EQ(cache.CountRange(0, 100'000 * DramCache::kRegionPages),
            ref.CountRange(0, 100'000 * DramCache::kRegionPages));
  ExpectSameInvalidation(cache, ref, 0, 100'000 * DramCache::kRegionPages);
  ASSERT_EQ(cache.size(), 0u);
  // The emptied regions fill again and a second sparse sweep sees exactly them.
  for (const uint64_t r : {513ull, 90'000ull}) {
    const uint64_t page = r * DramCache::kRegionPages + 9;
    (void)cache.Insert(page, true, nullptr, 0);
    (void)ref.Insert(page, true, 0);
    cache.MarkDirty(page);
    ref.MarkDirty(page);
  }
  ExpectSameInvalidation(cache, ref, 0, 100'000 * DramCache::kRegionPages);
}

// Direct LRU-order check without the reference: recency must follow Lookup/Insert/Touch.
TEST(DramCacheLru, EvictionFollowsRecency) {
  DramCache c(3, false);
  (void)c.Insert(1, false);
  (void)c.Insert(2, false);
  (void)c.Insert(3, false);
  (void)c.Lookup(1);            // Order (MRU..LRU): 1, 3, 2.
  c.Touch(c.Find(2));           // Order: 2, 1, 3.
  auto ev = c.Insert(4, false); // Evicts 3.
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->page, 3u);
  ev = c.Insert(5, false);      // Evicts 1 (2 was touched after it).
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->page, 1u);
  ev = c.Insert(6, false);      // Evicts 2.
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->page, 2u);
}

}  // namespace
}  // namespace mind
