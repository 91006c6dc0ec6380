// Pattern-aware far-memory prefetching (the swap-path optimization MIND's miss latency
// motivates; Leap [Al Maruf & Chowdhury, ATC'20] style).
//
// The data plane resolves hits in O(1) and replays them in batched channel runs, so on
// miss-heavy workloads the remote fault is the dominant remaining cost. A PrefetchEngine
// per (thread, blade) watches the thread's *fault stream* — exactly what a kernel swap
// prefetcher sees — and speculatively fetches ahead of it:
//
//   * kNextN          — sequential readahead: on a fault at page p, fetch p+1..p+W.
//   * kMajorityStride — Leap's majority-vote stride detection: the majority delta of the
//                       recent access history (Boyer-Moore vote + verification count)
//                       becomes the prefetch stride; no majority, no speculation. The
//                       prefetch window W grows on useful prefetches and shrinks on
//                       late/stale ones, bounded by [min_window, max_window].
//
// Touches of prefetched pages are fed back into the history (the analog of the minor
// faults Leap observes on pages the prefetcher already brought in), so a fully covered
// sequential stream keeps looking stride-1 to the detector instead of degenerating into
// window-sized jumps.
//
// Prefetches are speculative and asynchronous: they are issued after the triggering
// demand fault completes, traverse the same simulated fabric as demand fetches, and land
// in a bounded per-engine in-flight queue. A blade installs arrived prefetches at its
// next serialized access; an invalidation wave that hits the page's 2 MB cache region
// between issue and arrival makes the fetched copy stale, and the install is discarded
// (DramCache::region_inval_version). Accounting distinguishes issued / useful (demand hit
// after arrival) / late (demand arrived while still in flight) / evicted-unused /
// discarded-stale, from which reports derive coverage and accuracy.
//
// Thread safety mirrors the AccessChannel phase discipline: all state here is owned by
// one blade (BladePrefetchState) or one (thread, blade) engine, mutated only on the
// serialized drain or in same-blade channel commits — never concurrently.
#ifndef MIND_SRC_PREFETCH_PREFETCH_H_
#define MIND_SRC_PREFETCH_PREFETCH_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/phase_guard.h"
#include "src/common/types.h"

// detlint: mailbox(stats_)  -- PrefetchEngine::stats_ is per-(thread, blade) engine
// state, folded into the system report only at serialized points (MergeEngineStats);
// mutations reached from channel/group commits are scratch writes, not global counters.

namespace mind {

enum class PrefetchPolicy : uint8_t {
  kNone = 0,        // No speculation (the default; replay stays bit-identical to pre-PR).
  kNextN,           // Sequential readahead.
  kMajorityStride,  // Leap-style majority-vote stride detection.
};

[[nodiscard]] constexpr const char* ToString(PrefetchPolicy p) {
  switch (p) {
    case PrefetchPolicy::kNone:
      return "none";
    case PrefetchPolicy::kNextN:
      return "nextn";
    case PrefetchPolicy::kMajorityStride:
      return "stride";
  }
  return "?";
}

// Accepts the ToString spellings (used by --prefetch= flags and MIND_PREFETCH).
[[nodiscard]] std::optional<PrefetchPolicy> ParsePrefetchPolicy(std::string_view s);

struct PrefetchConfig {
  PrefetchPolicy policy = PrefetchPolicy::kNone;
  uint32_t history = 32;         // Access-history ring capacity (fault-granularity).
  uint32_t min_window = 4;       // Adaptive prefetch-degree floor...
  uint32_t initial_window = 8;
  uint32_t max_window = 64;      // ...and ceiling.
  uint32_t max_in_flight = 128;  // Bounded in-flight prefetch queue per engine.
  // Occupancy feedback: skip a prefetch window (and shrink) when the target memory
  // blade's fabric-port utilization exceeds this fraction. >= 1.0 disables the throttle.
  double fabric_pressure_threshold = 0.75;

  [[nodiscard]] bool enabled() const { return policy != PrefetchPolicy::kNone; }
};

// Monotonic counters; reports take field-wise deltas over a run.
struct PrefetchStats {
  uint64_t issued = 0;           // Prefetch fetches sent to a memory blade.
  uint64_t useful = 0;           // Prefetched pages demand-hit after arrival.
  uint64_t late = 0;             // Demand arrived while the prefetch was in flight.
  uint64_t evicted_unused = 0;   // Installed but evicted/invalidated before any use.
  uint64_t discarded_stale = 0;  // In-flight fetch invalidated before arrival.
  uint64_t rearmed = 0;          // Windows re-armed by touches past the issued midpoint.
  uint64_t throttled = 0;        // Windows skipped by fabric occupancy feedback.

  void Merge(const PrefetchStats& o) {
    issued += o.issued;
    useful += o.useful;
    late += o.late;
    evicted_unused += o.evicted_unused;
    discarded_stale += o.discarded_stale;
    rearmed += o.rearmed;
    throttled += o.throttled;
  }

  [[nodiscard]] PrefetchStats DeltaSince(const PrefetchStats& before) const {
    PrefetchStats d;
    d.issued = issued - before.issued;
    d.useful = useful - before.useful;
    d.late = late - before.late;
    d.evicted_unused = evicted_unused - before.evicted_unused;
    d.discarded_stale = discarded_stale - before.discarded_stale;
    d.rearmed = rearmed - before.rearmed;
    d.throttled = throttled - before.throttled;
    return d;
  }

  // Fraction of issued prefetches that were demand-hit after arrival.
  [[nodiscard]] double Accuracy() const {
    return issued == 0 ? 0.0 : static_cast<double>(useful) / static_cast<double>(issued);
  }
};

// Majority-vote stride detector over a bounded access history (page numbers at fault
// granularity; the last max(history, 2) pages). Public so the unit tests can drive it
// against a naive reference model.
class StrideDetector {
 public:
  explicit StrideDetector(uint32_t history_capacity)
      : deltas_((history_capacity < 2 ? 2 : history_capacity) - 1) {}

  // Each consecutive delta is computed once, here, into a ring of the history's
  // capacity - 1 deltas (the deltas between the pages it holds).
  void Record(uint64_t page) {
    if (recorded_) {
      deltas_[next_] = static_cast<int64_t>(page - last_);
      if (++next_ == deltas_.size()) {
        next_ = 0;
      }
      if (num_deltas_ < deltas_.size()) {
        ++num_deltas_;
      }
    }
    last_ = page;
    recorded_ = true;
  }

  // The majority delta of the recorded history: a nonzero stride S such that strictly
  // more than half of the consecutive deltas in the history equal S (Boyer-Moore
  // candidate pass + verification count). 0 when the history is too short (warm-up:
  // fewer than kWarmupDeltas deltas) or no delta has a majority — no speculation without
  // a pattern.
  [[nodiscard]] int64_t MajorityStride() const;

  static constexpr uint32_t kWarmupDeltas = 3;

 private:
  // The live deltas are deltas_[0, num_deltas_); next_ is the slot the next one
  // overwrites (the oldest once the ring is full). The majority does not depend on
  // the deltas' order, so MajorityStride reads them in slot order.
  std::vector<int64_t> deltas_;
  uint32_t num_deltas_ = 0;
  uint32_t next_ = 0;
  uint64_t last_ = 0;  // The most recent page.
  bool recorded_ = false;
};

// The candidate pages of one prediction: `count` pages, `stride` apart, following
// `anchor` (the k-th is anchor + (k + 1) * stride). Empty (count 0) means no speculation.
struct PrefetchCandidates {
  uint64_t anchor = 0;
  int64_t stride = 0;
  uint32_t count = 0;

  [[nodiscard]] uint64_t at(uint32_t k) const {
    return anchor + static_cast<uint64_t>(stride) * (k + 1);
  }
};

// Per-(thread, blade) prefetcher: history + policy + adaptive window + bounded in-flight
// budget + counters. The owning system wires its fetch path: it asks Predict for
// candidate pages after each demand fault, models the fetches itself, and reports the
// outcome of every issued prefetch back through exactly one of OnInstalled/OnLate/
// OnDiscardedStale (freeing the in-flight slot), then OnUseful/OnEvictedUnused once the
// installed page's fate is known.
class PrefetchEngine {
 public:
  explicit PrefetchEngine(const PrefetchConfig& config)
      : config_(config),
        detector_(config.history),
        window_(std::min(std::max(config.initial_window, config.min_window),
                         config.max_window)) {}

  // One demand fault (including late joins of in-flight prefetches).
  void RecordFault(uint64_t page) { detector_.Record(page); }

  // Up to window() candidate pages following a fault at `page`, stopping at the
  // address-space edge (dedup against the cache/in-flight tables is the caller's job;
  // the engine only predicts).
  [[nodiscard]] PrefetchCandidates Predict(uint64_t page) const;

  // In-flight budget.
  [[nodiscard]] bool HasInFlightRoom() const { return in_flight_ < config_.max_in_flight; }
  void OnIssued() {
    ++in_flight_;
    ++stats_.issued;
  }
  // Arrived and installed into the blade cache (fate still unknown).
  void OnInstalled() { --in_flight_; }
  // A demand miss joined (or collided with) the fetch while still in flight.
  void OnLate() {
    --in_flight_;
    ++stats_.late;
    Shrink();
  }
  // An invalidation wave hit the page's region before arrival; the copy was discarded.
  void OnDiscardedStale() {
    --in_flight_;
    ++stats_.discarded_stale;
    Shrink();
  }

  // First demand touch of an installed prefetched page. Grows the window and feeds the
  // touch into the history — the minor-fault stream Leap observes — so a fully covered
  // stream keeps its true stride visible to the detector. A touch past the midpoint of
  // the last *issued* window re-arms the engine (the readahead-marker analog): the next
  // window should go out at the blade's next serialized opportunity instead of waiting
  // for coverage to run dry and a real fault to restart the pipeline. Touches reach here
  // from the serialized hit paths AND from channel/group commits, which is what lets a
  // fully-covered stream that never faults keep its pipeline full.
  void OnUseful(uint64_t page) {
    ++stats_.useful;
    detector_.Record(page);
    window_ = std::min(window_ * 2, config_.max_window);
    if (issued_window_active_) {
      const auto covered = static_cast<int64_t>(page - issued_anchor_);
      const auto span = static_cast<int64_t>(issued_end_ - issued_anchor_);
      if (2 * std::abs(covered) >= std::abs(span)) {
        issued_window_active_ = false;  // Arm at most once per issued window.
        rearm_pending_ = true;
        rearm_page_ = page;
        ++stats_.rearmed;
      }
    }
  }

  // Records the span of an issued prefetch window: `anchor` is the demand page the
  // predictions grew from, `end` the farthest page actually issued (either direction).
  void NoteIssuedWindow(uint64_t anchor, uint64_t end) {
    issued_anchor_ = anchor;
    issued_end_ = end;
    issued_window_active_ = true;
  }

  // Consumes a pending re-arm request: the page to predict the next window from, if a
  // useful touch crossed the issued window's midpoint since the last call.
  [[nodiscard]] std::optional<uint64_t> TakeRearm() {
    if (!rearm_pending_) {
      return std::nullopt;
    }
    rearm_pending_ = false;
    return rearm_page_;
  }
  // Installed page left the cache without ever being touched: shrink, and count it
  // unless the lazy classification (CountEvictedUnused) already did.
  void OnEvictedUnused(bool counted = false) {
    if (!counted) {
      CountEvictedUnused();
    }
    Shrink();
  }
  // Count-only classification of an untouched page that left the cache silently.
  void CountEvictedUnused() { ++stats_.evicted_unused; }
  // The target blade's fabric port crossed the occupancy threshold: the window was
  // skipped outright (speculation must not deepen a queue demand traffic is stuck in).
  void OnFabricPressure() {
    ++stats_.throttled;
    Shrink();
  }

  [[nodiscard]] uint32_t window() const { return window_; }
  [[nodiscard]] uint32_t in_flight() const { return in_flight_; }
  [[nodiscard]] const PrefetchStats& stats() const { return stats_; }
  [[nodiscard]] const StrideDetector& detector() const { return detector_; }
  [[nodiscard]] const PrefetchConfig& config() const { return config_; }

 private:
  void Shrink() { window_ = std::max(window_ / 2, config_.min_window); }

  PrefetchConfig config_;
  StrideDetector detector_;
  uint32_t window_;
  uint32_t in_flight_ = 0;
  PrefetchStats stats_;
  // Issued-window tracking for the re-arm trigger (see OnUseful).
  bool issued_window_active_ = false;
  bool rearm_pending_ = false;
  uint64_t issued_anchor_ = 0;
  uint64_t issued_end_ = 0;
  uint64_t rearm_page_ = 0;
};

// Per-blade bookkeeping shared by that blade's engines: the in-flight queue (page ->
// pending fetch, ordered by arrival) and the installed-but-unused table that classifies
// useful vs evicted-unused. Mutated only under the serialized drain or same-blade channel
// commits.
//
// In-flight contract. A page is in flight from Issue until exactly one of TakeLate (a
// demand miss joined it) or TakeReady (it arrived) hands its entry back. TakeReady yields
// arrived entries in ascending (ready_at, page) order: install order decides LRU recency —
// and therefore eviction choice — so it must be deterministic, never hash-map iteration
// order. next_ready() is the earliest pending arrival (all-ones when nothing is in
// flight); a TakeReady before it returns without touching any entry.
// Backing: a flat page -> entry table plus an arrival queue of (page, entry) records
// kept sorted by (ready_at, page), with lazy deletion. A record is live only while the
// table still holds its page with its ready_at, so TakeLate never searches the queue.
// Issue inserts from the back, walking backwards past records that arrive later; under
// the kFifo fabric every response leaves the blade's single ingress port, whose finish
// times strictly increase in call order, so the walk takes no step and both ends of the
// queue are O(1). Out-of-order arrivals (kWindowedMG1) pay one step per record they
// overtake. The queue is one vector with a consumed prefix, so TakeReady can hand its
// arrivals to the caller in place.
class BladePrefetchState {
 public:
  struct InFlight {
    SimTime ready_at = 0;
    uint64_t inval_stamp = 0;  // DramCache::region_inval_version at issue time.
    PrefetchEngine* owner = nullptr;
    ProtDomainId pdid = 0;
  };
  using Arrival = std::pair<uint64_t, InFlight>;  // (page, fetch).

  // Starts tracking a fetch for `page`, which must not already be in flight.
  void Issue(uint64_t page, const InFlight& entry) {
    assert(!batch_open_ && "Issue may move the queue under a live TakeReady batch");
    // Every page leaves the table within one flight time: it churns at its peak size.
    in_flight_.ReserveForChurn(in_flight_.size() + 1);
    const bool inserted = in_flight_.Upsert(page, entry).second;
    assert(inserted && "page already in flight");
    (void)inserted;
    size_t pos = queue_.size();
    while (pos > front_ && ArrivesAfter(queue_[pos - 1], entry.ready_at, page)) {
      --pos;
    }
    queue_.insert(queue_.begin() + static_cast<std::ptrdiff_t>(pos), Arrival{page, entry});
  }

  [[nodiscard]] bool Contains(uint64_t page) const { return in_flight_.Find(page) != nullptr; }

  // Removes and returns `page`'s pending fetch (a demand miss joining it), if any.
  [[nodiscard]] std::optional<InFlight> TakeLate(uint64_t page) {
    const InFlight* found = in_flight_.Find(page);
    if (found == nullptr) {
      return std::nullopt;
    }
    const InFlight entry = *found;
    in_flight_.EraseAt(found);
    SkipDeadFront();  // Keeps next_ready() exact.
    return entry;
  }

  // TakeReady's result: the arrived entries, read in place from the queue. Issue and
  // TakeReady may move the queue, so neither may run while a batch is alive: callers
  // finish the install loop before issuing re-arms. Debug builds assert this.
  class ReadyBatch {
   public:
    ReadyBatch(const ReadyBatch&) = delete;
    ReadyBatch& operator=(const ReadyBatch&) = delete;
    ~ReadyBatch() { *open_ = false; }
    [[nodiscard]] const Arrival* begin() const { return items_.data(); }
    [[nodiscard]] const Arrival* end() const { return items_.data() + items_.size(); }
    [[nodiscard]] size_t size() const { return items_.size(); }
    [[nodiscard]] const Arrival& operator[](size_t i) const { return items_[i]; }

   private:
    friend class BladePrefetchState;
    ReadyBatch(std::span<const Arrival> items, bool* open) : items_(items), open_(open) {}
    std::span<const Arrival> items_;
    bool* open_;  // The state's batch_open_.
  };

  // Removes and returns the entries whose fetch has arrived by `now`, in (ready_at, page)
  // order (see ReadyBatch for how long they stay readable).
  MIND_SERIALIZED_PATH [[nodiscard]] ReadyBatch TakeReady(SimTime now) {
    assert(!batch_open_ && "TakeReady while an earlier batch is alive");
    // The previous call's arrivals are consumed now. Reclaim the prefix once it is at
    // least half the queue, so the move it costs is amortized O(1) per record.
    if (front_ >= kMinReclaim && 2 * front_ >= queue_.size()) {
      queue_.erase(queue_.begin(), queue_.begin() + static_cast<std::ptrdiff_t>(front_));
      front_ = 0;
    }
    const size_t first = front_;
    size_t out = first;  // Live arrivals compact into [first, out).
    for (; front_ < queue_.size() && queue_[front_].second.ready_at <= now; ++front_) {
      const uint64_t page = queue_[front_].first;
      const InFlight* live = LiveEntry(queue_[front_]);
      if (live != nullptr) {
        queue_[out++] = Arrival{page, *live};
        in_flight_.EraseAt(live);
      }
    }
    SkipDeadFront();
    batch_open_ = true;
    return ReadyBatch({queue_.data() + first, out - first}, &batch_open_);
  }

  [[nodiscard]] SimTime next_ready() const {
    return front_ < queue_.size() ? queue_[front_].second.ready_at : ~SimTime{0};
  }

  // Re-arm requests recorded by hit paths and channel/group commits (an engine whose
  // useful touches crossed its issued window's midpoint, with the page to predict from
  // and the toucher's protection domain). The owning system drains these at its next
  // serialized prefetch point — the first place issuing new fetches is safe.
  struct Rearm {
    PrefetchEngine* engine = nullptr;
    uint64_t page = 0;
    ProtDomainId pdid = 0;
  };
  std::vector<Rearm> rearm_requests;

  // Adaptive cold-insertion depth for speculative installs (prefetch-aware eviction
  // priority, DramCache::InsertPrefetched): prefetched pages enter the blade cache this
  // many frames above the LRU tail instead of at MRU, so a mispredicting burst churns
  // its own guesses instead of evicting demand-faulted pages. Useful touches walk the
  // depth up (accurate speculation earns residency ahead of more of the cold tail);
  // every evicted-unused event halves it.
  [[nodiscard]] uint32_t cold_insert_depth() const { return cold_depth_; }
  static constexpr uint32_t kMinColdDepth = 8;
  static constexpr uint32_t kMaxColdDepth = 512;

  // A prefetched copy of `page` was just installed on behalf of `owner`. An entry
  // already recorded for the page belongs to an earlier copy that left the cache
  // untouched without an eviction record (an invalidation wave dropped it): it is
  // evicted-unused, counted here unless ResolveEvictedUnused already counted it.
  void NoteInstalled(uint64_t page, PrefetchEngine* owner) {
    if (Unused* earlier = unused_.Find(page); earlier != nullptr) {
      if (!earlier->counted) {
        earlier->owner->CountEvictedUnused();
      }
      *earlier = Unused{owner, false};
      return;
    }
    unused_.Upsert(page, Unused{owner, false});
  }

  // Counts installed-but-unused entries whose pages already left the cache (waves drop
  // clean pages without reporting them, so evicted-unused classifies lazily here).
  // `still_prefetched(page)` reports whether the page is still cached with its
  // prefetched marking intact. Count-only — no window or depth feedback, and the entry
  // stays (marked counted) for the eviction and install hooks to settle exactly as they
  // would have without this call — so reading the stats never steers the prefetcher.
  template <typename StillPrefetchedFn>
  MIND_SERIALIZED_PATH void ResolveEvictedUnused(StillPrefetchedFn&& still_prefetched) {
    // Per-entry counter bumps commute: no order-sensitive state is derived from the
    // table's visit order.
    unused_.ForEach([&](uint64_t page, Unused& entry) {
      if (!entry.counted && !still_prefetched(page)) {
        entry.owner->CountEvictedUnused();
        entry.counted = true;
      }
    });
  }

  // First demand touch of an installed prefetched page (hit paths and channel/group
  // commits call this with frame->prefetched already checked true by the caller; `pdid`
  // is the toucher's domain, threaded through to any re-arm issue it triggers).
  // Reached from channel/group commits as well as serialized hit paths; tagged for the
  // stricter context (all mutations are blade- or engine-confined mailboxes).
  MIND_PARALLEL_PHASE void OnPrefetchedTouch(uint64_t page, ProtDomainId pdid = 0) {
    const Unused* unused = unused_.Find(page);
    if (unused != nullptr) {
      PrefetchEngine* engine = unused->owner;
      unused_.EraseAt(unused);
      engine->OnUseful(page);
      cold_depth_ = std::min(cold_depth_ + 8, kMaxColdDepth);
      if (auto rearm = engine->TakeRearm(); rearm.has_value()) {
        rearm_requests.push_back(Rearm{engine, *rearm, pdid});
      }
    }
  }

  // Eviction feedback: a page leaving the cache that was installed-but-unused.
  void OnPageEvicted(uint64_t page) {
    const Unused* unused = unused_.Find(page);
    if (unused != nullptr) {
      unused->owner->OnEvictedUnused(/*counted=*/unused->counted);
      ShrinkColdDepth();
      unused_.EraseAt(unused);
    }
  }

 private:
  struct Unused {
    PrefetchEngine* owner = nullptr;
    bool counted = false;  // Already counted evicted-unused by ResolveEvictedUnused.
  };

  void ShrinkColdDepth() { cold_depth_ = std::max(cold_depth_ / 2, kMinColdDepth); }

  // A consumed prefix shorter than this stays in place (not worth a move).
  static constexpr size_t kMinReclaim = 64;

  // (ready_at, page) order, strict: a re-issue at a dead record's very key lands after it.
  [[nodiscard]] static bool ArrivesAfter(const Arrival& a, SimTime ready_at, uint64_t page) {
    return a.second.ready_at != ready_at ? a.second.ready_at > ready_at : a.first > page;
  }

  // The table's entry for `a`'s page if `a` is its live record, else nullptr.
  [[nodiscard]] const InFlight* LiveEntry(const Arrival& a) const {
    const InFlight* entry = in_flight_.Find(a.first);
    return entry != nullptr && entry->ready_at == a.second.ready_at ? entry : nullptr;
  }

  // Consumes dead records at the head of the queue, so next_ready() is live.
  void SkipDeadFront() {
    while (front_ < queue_.size() && LiveEntry(queue_[front_]) == nullptr) {
      ++front_;
    }
  }

  FlatMap64<InFlight> in_flight_;  // page -> pending fetch.
  std::vector<Arrival> queue_;     // Sorted by (ready_at, page); [0, front_) consumed.
  size_t front_ = 0;
  bool batch_open_ = false;        // A TakeReady batch is alive (see ReadyBatch).
  FlatMap64<Unused> unused_;       // installed, never touched.
  uint32_t cold_depth_ = 64;
};

// Per-thread engine registries, shared by the three systems' Access paths.
using PrefetchEngineMap = std::unordered_map<ThreadId, std::unique_ptr<PrefetchEngine>>;

// Lazily creates the (thread, blade) engine on the thread's first demand fault.
inline PrefetchEngine& EnsureEngine(PrefetchEngineMap& engines, ThreadId tid,
                                    const PrefetchConfig& config) {
  auto it = engines.find(tid);
  if (it == engines.end()) {
    it = engines.emplace(tid, std::make_unique<PrefetchEngine>(config)).first;
  }
  return *it->second;
}

// Sums every engine's counters (integer adds: iteration order is irrelevant).
inline PrefetchStats MergeEngineStats(const PrefetchEngineMap& engines) {
  PrefetchStats total;
  // detlint: allow(unordered-iteration): integer adds commute; order-invariant.
  for (const auto& [tid, engine] : engines) {
    total.Merge(engine->stats());
  }
  return total;
}

}  // namespace mind

#endif  // MIND_SRC_PREFETCH_PREFETCH_H_
