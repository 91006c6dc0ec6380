// In-network cache directory (§4.3, §6.3).
//
// The directory tracks *variable-sized regions* — not pages — so the whole thing fits in the
// switch ASIC's SRAM slot budget (30k entries in the paper's deployment). Each entry carries
// the MSI state, the owner, the sharer bitmap, and the epoch counters the bounded-splitting
// algorithm (§5) consumes. Entries are created lazily at the configured initial region size
// when a region is first cached, split/merged by the control plane between epochs, and
// evicted (with a forced invalidation, performed by the caller) under capacity pressure.
//
// Lookup is the per-access hot path and models one match-action stage: an active-size-class
// bitmap names the region sizes currently present; for each live class (bit-scan, cheapest
// first) the address is aligned down to that class and probed in a flat open-addressed hash
// keyed by region base. Regions never overlap, so at most one class can contain the address
// and the first containing probe wins — O(popcount(active classes)) probes, no tree descent.
// Entries live in a chunked arena so pointers stay stable across create/remove/rehash. An
// ordered side-index (base -> arena slot) is maintained off the hot path for ForEach, the
// Create overlap check and buddy merges; the CLOCK eviction sweep resumes by arena slot and
// skips dead slots with a word-level bit-scan of the live bitmap, so sparse arenas cost
// O(words) per sweep rather than a linear slot walk.
#ifndef MIND_SRC_DATAPLANE_DIRECTORY_H_
#define MIND_SRC_DATAPLANE_DIRECTORY_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/bitops.h"
#include "src/common/chunked_arena.h"
#include "src/common/flat_map.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/dataplane/sram.h"
#include "src/dataplane/stt.h"

namespace mind {

struct DirectoryEntry {
  VirtAddr base = 0;
  uint32_t size_log2 = 0;
  MsiState state = MsiState::kInvalid;
  ComputeBladeId owner = kInvalidComputeBlade;
  SharerMask sharers = 0;

  // Region lock: while a transition with invalidations is in flight the region is "busy";
  // conflicting requests queue behind this horizon (transient-state blocking).
  SimTime busy_until = 0;
  SimTime last_active = 0;

  // Epoch-scoped counters for bounded splitting (§5).
  uint64_t epoch_false_invalidations = 0;
  uint64_t epoch_invalidations = 0;
  uint64_t epoch_accesses = 0;
  // Consecutive epochs with zero false invalidations; merge hysteresis uses this so a
  // momentarily-quiet hot region is not merged back just to re-split next epoch.
  uint32_t quiet_epochs = 0;

  [[nodiscard]] uint64_t size() const { return uint64_t{1} << size_log2; }
  [[nodiscard]] VirtAddr end() const { return base + size(); }
  [[nodiscard]] bool Contains(VirtAddr va) const { return va >= base && va < end(); }

  [[nodiscard]] bool OwnerHeld() const {
    return state == MsiState::kModified || state == MsiState::kExclusive;
  }

  [[nodiscard]] RequestorRole RoleOf(ComputeBladeId blade) const {
    if (OwnerHeld() && owner == blade) {
      return RequestorRole::kOwner;
    }
    if ((sharers & BladeBit(blade)) != 0) {
      return RequestorRole::kSharer;
    }
    return RequestorRole::kNone;
  }

  void ResetEpochCounters() {
    epoch_false_invalidations = 0;
    epoch_invalidations = 0;
    epoch_accesses = 0;
  }
};

class CacheDirectory {
 public:
  explicit CacheDirectory(uint32_t capacity_slots) : slots_(capacity_slots) {}

  // Returns the entry whose region contains `va`, or nullptr if none exists (region is in
  // the implicit I state). Entry pointers are stable until the entry is removed or merged.
  [[nodiscard]] DirectoryEntry* Lookup(VirtAddr va) {
    uint64_t mask = active_classes_;
    while (mask != 0) {
      const uint32_t log2 = LowestSetBit(mask);
      mask &= mask - 1;
      const VirtAddr base = va & ~((uint64_t{1} << log2) - 1);
      if (const uint32_t* idx = by_base_.Find(base); idx != nullptr) {
        DirectoryEntry& e = EntryAt(*idx);
        if (e.Contains(va)) {
          return &e;
        }
      }
    }
    return nullptr;
  }
  [[nodiscard]] const DirectoryEntry* Lookup(VirtAddr va) const {
    return const_cast<CacheDirectory*>(this)->Lookup(va);
  }

  // Creates an entry for the aligned region [base, base + 2^size_log2). Fails with
  // kResourceExhausted when no SRAM slot is free (caller should evict) and kExists when the
  // region would overlap an existing entry.
  Result<DirectoryEntry*> Create(VirtAddr base, uint32_t size_log2);

  // Removes the entry at `base`, freeing its SRAM slot.
  Status Remove(VirtAddr base);

  // Splits the region at `base` into two buddies; the upper half takes a fresh SRAM slot.
  // Children inherit state/owner/sharers/busy horizon conservatively. Fails when the region
  // is already at the 4 KB floor or when no slot is free.
  Status Split(VirtAddr base);

  // Merges the region at `base` with its buddy if the buddy exists, both are the same size,
  // their union is aligned, the merged size would not exceed `max_size_log2`, and their
  // coherence states are compatible (no conflicting owners). Frees the upper buddy's slot.
  Status MergeWithBuddy(VirtAddr base, uint32_t max_size_log2);

  // True if the two entries' states can be merged conservatively.
  [[nodiscard]] static bool StatesCompatible(const DirectoryEntry& a, const DirectoryEntry& b);

  // Picks a victim entry for capacity eviction: a CLOCK-style cursor sweep that prefers the
  // stalest entry among the next `scan_limit` entries that are not busy at `now`. Returns
  // nullopt when every scanned entry is busy. The cursor is an arena slot, so resuming is
  // O(1) and a removed cursor entry is skipped naturally instead of derailing the sweep.
  [[nodiscard]] std::optional<VirtAddr> FindEvictionVictim(SimTime now, int scan_limit = 64);

  // Iteration for the control plane, in ascending region-base order via the ordered
  // side-index. Walks that mutate the directory afterwards in visit order must use this:
  // MigrateRange and Munmap collect bases here and Remove them in that order, and the
  // order of Removes decides which freed arena slot the next Create reuses.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (auto& [base, idx] : ordered_) {
      fn(EntryAt(idx));
    }
  }

  // Iteration in arena-slot order: a word-level bit-scan of the live bitmap, with no
  // pointer chasing through the ordered side-index. The order follows the history of slot
  // reuse, not region bases, so this is only for walks whose outcome cannot depend on it:
  // order-free reductions (sums), updates that touch only the visited entry, and read-only
  // collection passes whose results the caller sorts before acting on them — the three
  // passes of a bounded-splitting epoch (BoundedSplitting::RunEpoch). `fn` must not
  // create, remove, split or merge entries.
  template <typename Fn>
  void ForEachUnordered(Fn&& fn) {
    for (size_t w = 0; w < live_.size(); ++w) {
      uint64_t word = live_[w];
      while (word != 0) {
        fn(EntryAt(static_cast<uint32_t>(w * 64 + LowestSetBit(word))));
        word &= word - 1;
      }
    }
  }

  // Monotonic mutation counter: bumped by every Create/Remove/Split/Merge. The rack's
  // fused pipeline cache snapshots this to detect stale memoized directory entries.
  [[nodiscard]] uint64_t version() const { return version_; }

  [[nodiscard]] uint64_t entry_count() const { return by_base_.size(); }
  [[nodiscard]] uint64_t capacity() const { return slots_.total(); }
  [[nodiscard]] double utilization() const { return slots_.utilization(); }
  [[nodiscard]] uint64_t high_water() const { return slots_.high_water(); }
  [[nodiscard]] const SramSlotStore& slots() const { return slots_; }

 private:
  [[nodiscard]] DirectoryEntry& EntryAt(uint32_t idx) { return arena_.At(idx); }
  [[nodiscard]] bool LiveAt(uint32_t idx) const {
    return (live_[idx >> 6] & (uint64_t{1} << (idx & 63))) != 0;
  }

  uint32_t AllocIndex();
  void FreeIndex(uint32_t idx);
  void AddToClass(uint32_t size_log2);
  void RemoveFromClass(uint32_t size_log2);

  // Hot-path index: region base -> arena slot, probed per active size class.
  FlatMap64<uint32_t> by_base_;
  uint64_t active_classes_ = 0;             // Bit i set <=> a live entry has size_log2 == i.
  std::array<uint32_t, 64> class_counts_{};

  // Stable entry storage; `live_` marks occupied slots for the CLOCK sweep.
  ChunkedArena<DirectoryEntry, /*kChunkShift=*/10> arena_;
  std::vector<uint64_t> live_;

  // Ordered side-index (base -> arena slot), maintained off the hot path.
  std::map<VirtAddr, uint32_t> ordered_;

  SramSlotStore slots_;
  uint32_t clock_idx_ = 0;   // Arena slot where the next eviction sweep resumes.
  uint64_t version_ = 0;
};

}  // namespace mind

#endif  // MIND_SRC_DATAPLANE_DIRECTORY_H_
