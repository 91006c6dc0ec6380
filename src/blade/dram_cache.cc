#include "src/blade/dram_cache.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace mind {

void DramCache::LruUnlink(Frame& frame) {
  if (frame.lru_prev != kNilFrame) {
    FrameAt(frame.lru_prev).lru_next = frame.lru_next;
  } else {
    lru_head_ = frame.lru_next;
  }
  if (frame.lru_next != kNilFrame) {
    FrameAt(frame.lru_next).lru_prev = frame.lru_prev;
  } else {
    lru_tail_ = frame.lru_prev;
  }
}

void DramCache::LruPushFront(Frame& frame) {
  frame.lru_prev = kNilFrame;
  frame.lru_next = lru_head_;
  if (lru_head_ != kNilFrame) {
    FrameAt(lru_head_).lru_prev = frame.self;
  } else {
    lru_tail_ = frame.self;
  }
  lru_head_ = frame.self;
}

inline void DramCache::MoveToFront(Frame& frame) {
  if (lru_head_ == frame.self) {
    return;  // Already most recent.
  }
  if (frame.cold) [[unlikely]] {
    LeaveColdSegment(frame);
  }
  LruUnlink(frame);
  LruPushFront(frame);
}

void DramCache::LeaveColdSegment(Frame& frame) {
  if (cold_cursor_ == frame.self) {
    cold_cursor_ = frame.lru_next;  // The next-warmest cold frame (kNilFrame if none).
  }
  frame.cold = false;
  --cold_count_;
}

void DramCache::LruInsertAtDepth(Frame& frame, uint32_t depth) {
  // Resize the cold segment to the target depth from where the last speculative install
  // left it: one cursor step per frame the segment gained or lost in between.
  const auto target = static_cast<uint32_t>(std::min<uint64_t>(depth, index_.size()));
  while (cold_count_ < target) {
    cold_cursor_ = cold_cursor_ == kNilFrame ? lru_tail_ : FrameAt(cold_cursor_).lru_prev;
    FrameAt(cold_cursor_).cold = true;
    ++cold_count_;
  }
  while (cold_count_ > target) {
    Frame& warmest = FrameAt(cold_cursor_);
    warmest.cold = false;
    cold_cursor_ = warmest.lru_next;
    --cold_count_;
  }
  // The new frame links between the segment (stays colder) and the rest (stays warmer).
  const uint32_t colder = cold_cursor_;  // Becomes frame.lru_next.
  const uint32_t warmer = colder == kNilFrame ? lru_tail_ : FrameAt(colder).lru_prev;
  frame.lru_next = colder;
  frame.lru_prev = warmer;
  if (colder != kNilFrame) {
    FrameAt(colder).lru_prev = frame.self;
  } else {
    lru_tail_ = frame.self;
  }
  if (warmer != kNilFrame) {
    FrameAt(warmer).lru_next = frame.self;
  } else {
    lru_head_ = frame.self;
  }
}

void DramCache::IndexSetPage(uint64_t page) {
  const uint64_t number = page / kRegionPages;
  const uint32_t* slot = region_slots_.Find(number);
  if (slot == nullptr) {
    const auto fresh = static_cast<uint32_t>(regions_.size());
    regions_.push_back(Region{{}, number, 0});
    slot = region_slots_.Upsert(number, fresh).first;
  }
  Region& region = regions_[*slot];
  const uint64_t bit = page % kRegionPages;
  region.bits[bit >> 6] |= uint64_t{1} << (bit & 63);
  if (region.count++ == 0) {
    ++live_regions_;
  }
}

void DramCache::IndexClearPage(uint64_t page) {
  const uint32_t* slot = region_slots_.Find(page / kRegionPages);
  assert(slot != nullptr);
  Region& region = regions_[*slot];
  const uint64_t bit = page % kRegionPages;
  region.bits[bit >> 6] &= ~(uint64_t{1} << (bit & 63));
  if (--region.count == 0) {
    --live_regions_;  // The region stays indexed, empty, for its next page.
  }
}

DramCache::Frame* DramCache::Lookup(uint64_t page) {
  const uint32_t* idxp = index_.Find(page);
  if (idxp == nullptr) {
    return nullptr;
  }
  Frame& frame = FrameAt(*idxp);
  MoveToFront(frame);
  return &frame;
}

DramCache::Frame* DramCache::Find(uint64_t page) {
  const uint32_t* idxp = index_.Find(page);
  return idxp == nullptr ? nullptr : &FrameAt(*idxp);
}

const DramCache::Frame* DramCache::Peek(uint64_t page) const {
  const uint32_t* idxp = index_.Find(page);
  return idxp == nullptr ? nullptr : &FrameAt(*idxp);
}

void DramCache::Touch(Frame* frame) { MoveToFront(*frame); }

DramCache::Eviction DramCache::RemoveFrame(uint32_t idx) {
  Frame& frame = FrameAt(idx);
  BumpRegion(frame.page);
  Eviction ev{frame.page, frame.dirty, std::move(frame.data)};
  if (frame.cold) {
    LeaveColdSegment(frame);
  }
  LruUnlink(frame);
  index_.Erase(frame.page);
  IndexClearPage(frame.page);
  arena_.Free(idx);
  return ev;
}

PagePtr DramCache::MakePayload(const PageData* bytes) {
  PagePtr data = pool_.AllocPtr();
  if (bytes != nullptr) {
    *data = *bytes;
  } else {
    data->fill(0);  // Recycled slots keep stale bytes; fresh pages read as zero.
  }
  return data;
}

std::optional<DramCache::Eviction> DramCache::EmplaceNewFrame(uint64_t page, bool writable,
                                                              const PageData* bytes,
                                                              ProtDomainId pdid,
                                                              bool prefetched,
                                                              uint32_t lru_depth) {
  std::optional<Eviction> evicted;
  if (index_.size() >= capacity_ && capacity_ > 0) {
    // A full cache churns at exactly capacity_ pages from here on; caches that never
    // fill keep the index at its insert-driven size.
    index_.ReserveForChurn(capacity_);
    assert(lru_tail_ != kNilFrame);
    evicted = RemoveFrame(lru_tail_);
  }
  const uint32_t idx = arena_.Alloc();
  Frame& frame = FrameAt(idx);
  frame.writable = writable;
  frame.dirty = false;
  frame.prefetched = prefetched;  // Arena slots recycle: always written explicitly.
  frame.cold = false;
  frame.pdid = pdid;
  frame.page = page;
  frame.self = idx;
  frame.data = store_data_ ? MakePayload(bytes) : nullptr;
  if (lru_depth == kMruDepth) {
    LruPushFront(frame);
  } else {
    LruInsertAtDepth(frame, lru_depth);
  }
  index_.Upsert(page, idx);
  IndexSetPage(page);
  return evicted;
}

std::optional<DramCache::Eviction> DramCache::Insert(uint64_t page, bool writable,
                                                     const PageData* bytes,
                                                     ProtDomainId pdid) {
  BumpRegion(page);  // Membership or permissions may change on either path below.
  if (Frame* existing = Find(page); existing != nullptr) {
    // Re-insert: permission upgrade and/or fresh data. A demand re-insert counts as the
    // page's first real use, so it sheds any prefetched marking.
    existing->writable = existing->writable || writable;
    existing->prefetched = false;
    existing->pdid = pdid;
    if (store_data_ && bytes != nullptr) {
      if (existing->data == nullptr) {
        existing->data = pool_.AllocPtr();
      }
      *existing->data = *bytes;
    }
    Touch(existing);
    return std::nullopt;
  }
  return EmplaceNewFrame(page, writable, bytes, pdid, /*prefetched=*/false, kMruDepth);
}

std::optional<DramCache::Eviction> DramCache::InsertPrefetched(uint64_t page, bool writable,
                                                               const PageData* bytes,
                                                               ProtDomainId pdid,
                                                               uint32_t lru_depth) {
  assert(Find(page) == nullptr && "speculative install of a cached page");
  BumpRegion(page);
  return EmplaceNewFrame(page, writable, bytes, pdid, /*prefetched=*/true, lru_depth);
}

void DramCache::MakeWritable(uint64_t page) {
  if (Frame* frame = Find(page); frame != nullptr) {
    frame->writable = true;
    BumpRegion(page);
  }
}

void DramCache::MarkDirty(uint64_t page) {
  if (Frame* frame = Find(page); frame != nullptr) {
    frame->dirty = true;
  }
}

template <bool kMutates, typename Fn>
void DramCache::ForEachPageInRange(uint64_t page_begin, uint64_t page_end, Fn&& fn) const {
  if (page_begin >= page_end || live_regions_ == 0) {
    return;
  }
  const uint64_t region_begin = page_begin / kRegionPages;
  const uint64_t region_last = (page_end - 1) / kRegionPages;

  auto process_region = [&](uint64_t r) {
    const uint32_t* slot = region_slots_.Find(r);
    if (slot == nullptr) {
      return;
    }
    // fn removes pages at most, never indexes a new region, so the reference is stable.
    const Region& region = regions_[*slot];
    for (uint64_t w = 0; w < kRegionPages / 64; ++w) {
      if (region.count == 0) {
        break;  // Empty (or emptied by fn): nothing left to visit.
      }
      const uint64_t word_base = r * kRegionPages + w * 64;
      if (word_base >= page_end) {
        break;
      }
      if (word_base + 64 <= page_begin) {
        continue;
      }
      // Snapshot the word with the range boundaries masked off, then visit set bits
      // ascending; fn may mutate the region (kMutates) without disturbing the snapshot.
      uint64_t bits = region.bits[w];
      if (page_begin > word_base) {
        bits &= ~uint64_t{0} << (page_begin - word_base);
      }
      if (page_end < word_base + 64) {
        bits &= (uint64_t{1} << (page_end - word_base)) - 1;
      }
      while (bits != 0) {
        fn(word_base + static_cast<uint64_t>(std::countr_zero(bits)));
        bits &= bits - 1;
      }
    }
  };

  if (region_last - region_begin >= live_regions_) {
    // Sparse range (e.g. a whole-VMA shoot-down over a huge mapping): visiting the live
    // regions that intersect it beats probing every region number in the span.
    std::vector<uint64_t> keys;
    keys.reserve(live_regions_);
    for (const Region& region : regions_) {
      if (region.count != 0 && region.number >= region_begin &&
          region.number <= region_last) {
        keys.push_back(region.number);
      }
    }
    std::sort(keys.begin(), keys.end());  // fn must still see ascending page order.
    for (uint64_t r : keys) {
      process_region(r);
    }
  } else {
    for (uint64_t r = region_begin; r <= region_last; ++r) {
      process_region(r);
    }
  }
}

uint64_t DramCache::InvalidateRange(uint64_t page_begin, uint64_t page_end,
                                   std::vector<Eviction>* flushed) {
  if (flushed != nullptr) {
    flushed->clear();
  }
  uint64_t dropped_clean = 0;
  if (page_begin < page_end) {
    // Stamp the invalidation even over pages the cache does not hold: an in-flight
    // prefetch for this range must observe the wave and discard its (stale) install.
    const uint64_t first = RegionOf(page_begin);
    const uint64_t last = RegionOf(page_end - 1);
    if (last - first >= kWideInvalRegions) {
      wide_inval_version_ = ++version_;  // Whole-VMA shoot-down: one wide epoch.
    } else {
      for (uint64_t r = first; r <= last; ++r) {
        region_inval_versions_.Upsert(r, ++version_);
      }
    }
  }
  ForEachPageInRange<true>(page_begin, page_end, [&](uint64_t page) {
    Eviction ev = RemoveFrame(*index_.Find(page));
    if (!ev.dirty) {
      ++dropped_clean;
    } else if (flushed != nullptr) {
      flushed->push_back(std::move(ev));
    }
  });
  return dropped_clean;
}

DramCache::RangeInvalidation DramCache::DowngradeRange(uint64_t page_begin,
                                                       uint64_t page_end) {
  RangeInvalidation result;
  ForEachPageInRange<false>(page_begin, page_end, [&](uint64_t page) {
    BumpRegion(page);  // Writability changes below; per-region so other runs survive.
    Frame& frame = FrameAt(*index_.Find(page));
    if (frame.dirty) {
      // Flush a copy; the page stays cached read-only.
      Eviction flushed{page, true, nullptr};
      if (frame.data != nullptr) {
        flushed.data = MakePayload(frame.data.get());
      }
      result.flushed.push_back(std::move(flushed));
      frame.dirty = false;
    }
    frame.writable = false;
  });
  return result;
}

uint64_t DramCache::CountRange(uint64_t page_begin, uint64_t page_end) const {
  uint64_t count = 0;
  ForEachPageInRange<false>(page_begin, page_end, [&](uint64_t) { ++count; });
  return count;
}

}  // namespace mind
