#include "src/controlplane/bounded_splitting.h"

#include <algorithm>

namespace mind {

void BoundedSplitting::RunEpoch(SimTime now) {
  ++stats_.epochs;

  // The three directory passes walk the arena's live bitmap (ForEachUnordered), not the
  // base-ordered side-index, and still reproduce an ordered walk exactly: pass 1 is an
  // integer sum, pass 2 only reads state (the directory is not mutated until its
  // candidate lists are sorted by base, which is the order an ordered walk appends in),
  // and pass 3 updates each entry from that entry's own counters.

  // Pass 1: gather epoch totals.
  uint64_t total_false = 0;
  directory_->ForEachUnordered([&](DirectoryEntry& e) {
    total_false += e.epoch_false_invalidations;
  });
  stats_.last_epoch_false_invalidations = total_false;

  const uint64_t n = std::max<uint64_t>(base_region_count_, 1);
  // Threshold t = Σf / (c · N). With no false invalidations anywhere, t is 0 and nothing
  // splits; merging still proceeds (under capacity pressure) to reclaim slots.
  const double t = static_cast<double>(total_false) / (c_ * static_cast<double>(n));
  stats_.last_threshold = t;

  const uint32_t min_log2 = Log2Floor(config_.min_region_size);
  const uint32_t max_log2 = Log2Floor(config_.base_region_size);

  // Pass 2: choose splits (each qualifying region splits once per epoch) and merges.
  // Collect bases first — Split/Merge mutate the map under iteration otherwise. A buddy
  // pair merges only when the *combined* count stays well below t and slots are scarce.
  const bool merging_active = directory_->utilization() > config_.merge_low_water;
  std::vector<VirtAddr> split_candidates;
  std::vector<VirtAddr> merge_candidates;
  directory_->ForEachUnordered([&](DirectoryEntry& e) {
    const auto f = static_cast<double>(e.epoch_false_invalidations);
    if (f > t && f >= 1.0 && e.size_log2 > min_log2) {
      split_candidates.push_back(e.base);
      return;
    }
    if (!merging_active || e.size_log2 >= max_log2) {
      return;
    }
    const VirtAddr buddy_base = e.base ^ e.size();
    if (buddy_base < e.base) {
      return;  // Only the lower buddy proposes, avoiding double consideration.
    }
    const DirectoryEntry* buddy = directory_->Lookup(buddy_base);
    if (buddy == nullptr || buddy->base != buddy_base || buddy->size_log2 != e.size_log2) {
      return;
    }
    if (e.quiet_epochs < config_.merge_quiet_epochs ||
        buddy->quiet_epochs < config_.merge_quiet_epochs) {
      return;  // Hysteresis: only persistently-cold pairs merge.
    }
    const double combined =
        f + static_cast<double>(buddy->epoch_false_invalidations);
    if (combined <= std::max(config_.merge_fraction * t, 0.0)) {
      merge_candidates.push_back(e.base);
    }
  });
  std::sort(split_candidates.begin(), split_candidates.end());
  std::sort(merge_candidates.begin(), merge_candidates.end());

  // Merges run first so the slots they free are available to this epoch's splits.
  // MergeWithBuddy re-checks existence, buddy size equality and state compatibility.
  for (VirtAddr base : merge_candidates) {
    if (directory_->MergeWithBuddy(base, max_log2).ok()) {
      ++stats_.merges;
      if (trace_ != nullptr) [[unlikely]] {
        TraceEvent ev;
        ev.kind = TraceEventKind::kDirectoryMerge;
        ev.clock = now;  // The epoch boundary this decision belongs to.
        ev.a = base;
        const DirectoryEntry* merged = directory_->Lookup(base);
        ev.b = merged != nullptr ? merged->size_log2 : 0;
        trace_->Emit(ev);
      }
    }
  }

  for (VirtAddr base : split_candidates) {
    if (directory_->utilization() >= config_.target_utilization) {
      ++stats_.split_failures;
      continue;  // Capacity-gated; AdjustC below will shrink c and raise t.
    }
    const DirectoryEntry* pre = trace_ != nullptr ? directory_->Lookup(base) : nullptr;
    const uint64_t pre_log2 = pre != nullptr ? pre->size_log2 : 0;
    if (directory_->Split(base).ok()) {
      ++stats_.splits;
      if (trace_ != nullptr) [[unlikely]] {
        TraceEvent ev;
        ev.kind = TraceEventKind::kDirectorySplit;
        ev.clock = now;
        ev.a = base;
        ev.b = pre_log2;
        trace_->Emit(ev);
      }
    } else {
      ++stats_.split_failures;
    }
  }

  // Pass 3: update quiet streaks, then reset epoch counters for the next window.
  directory_->ForEachUnordered([&](DirectoryEntry& e) {
    e.quiet_epochs = e.epoch_false_invalidations == 0 ? e.quiet_epochs + 1 : 0;
    e.ResetEpochCounters();
  });

  AdjustC();
  stats_.current_c = c_;
}

void BoundedSplitting::AdjustC() {
  // Larger c => lower threshold => more splits and more entries. Shrink it when the SRAM
  // nears capacity; grow it when there is headroom to split further.
  const double util = directory_->utilization();
  if (util >= config_.target_utilization) {
    c_ = std::max(c_ / 2.0, config_.min_c);
  } else if (util < config_.low_utilization) {
    c_ = std::min(c_ * 2.0, config_.max_c);
  }
}

}  // namespace mind
