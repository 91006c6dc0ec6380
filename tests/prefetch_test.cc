// Tests for the prefetch subsystem (src/prefetch/prefetch.h):
//   1. StrideDetector vs a naive reference model — warm-up, stride changes, interleaved
//      streams, random noise.
//   2. PrefetchEngine policy predictions, adaptive window and in-flight bounds; the
//      per-blade in-flight queue against a brute-force reference.
//   3. End-to-end coverage on all three systems: streaming/strided workloads must cover
//      a large fraction of would-be remote faults; pointer chase must not speculate.
//   4. Invalidation safety: a wave that lands between issue and arrival discards the
//      stale in-flight copy.
//   5. kNone conformance: with the default policy, channel replay at 1 and 4 shards is
//      bit-identical to the pre-prefetch per-op reference path for every system.
//   6. Golden stride-prefetch replays: makespan, latency histogram and semantic trace
//      digest pinned for all three systems at 1 and 4 shards, recorded on the
//      walk-at-depth cold insert and full-scan in-flight table that the cold-segment
//      cursor and ready queue replaced. Plus: prefetch_stats() is a pure read.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "src/baselines/fastswap.h"
#include "src/baselines/gam.h"
#include "src/baselines/mind_system.h"
#include "src/blade/dram_cache.h"
#include "src/common/rng.h"
#include "src/prefetch/prefetch.h"
#include "src/workload/generators.h"
#include "src/workload/replay.h"

namespace mind {
namespace {

// --- Part 1: stride detector vs naive reference -------------------------------

// Naive model: keep the last `history` pages, recompute every delta's count, report the
// unique delta with a strict majority (and at least kWarmupDeltas deltas), else 0.
class NaiveDetector {
 public:
  explicit NaiveDetector(uint32_t history) : history_(history < 2 ? 2 : history) {}

  void Record(uint64_t page) {
    pages_.push_back(page);
    if (pages_.size() > history_) {
      pages_.erase(pages_.begin());
    }
  }

  [[nodiscard]] int64_t MajorityStride() const {
    if (pages_.size() < 2) {
      return 0;
    }
    const size_t deltas = pages_.size() - 1;
    if (deltas < StrideDetector::kWarmupDeltas) {
      return 0;
    }
    std::map<int64_t, size_t> counts;
    for (size_t i = 0; i + 1 < pages_.size(); ++i) {
      ++counts[static_cast<int64_t>(pages_[i + 1] - pages_[i])];
    }
    for (const auto& [delta, count] : counts) {
      if (delta != 0 && count * 2 > deltas) {
        return delta;
      }
    }
    return 0;
  }

 private:
  uint32_t history_;
  std::vector<uint64_t> pages_;
};

TEST(StrideDetector, WarmupProducesNoStride) {
  StrideDetector d(32);
  d.Record(100);
  d.Record(101);
  d.Record(102);
  EXPECT_EQ(d.MajorityStride(), 0) << "2 deltas is below the warm-up threshold";
  d.Record(103);  // 3 deltas: warm.
  EXPECT_EQ(d.MajorityStride(), 1);
}

TEST(StrideDetector, MatchesNaiveReferenceOnRandomSequences) {
  Rng rng(1234);
  // Histories 1-3 hold fewer deltas than the warm-up needs (1 clamps to 2) and must
  // never report a stride; the rest are random.
  for (int trial = 0; trial < 23; ++trial) {
    const uint32_t history = trial < 3 ? static_cast<uint32_t>(trial + 1)
                                       : 4 + static_cast<uint32_t>(rng.NextBelow(60));
    StrideDetector detector(history);
    NaiveDetector naive(history);
    uint64_t page = 1'000'000;
    for (int step = 0; step < 400; ++step) {
      // Mix of steady strides, jumps and noise so majorities form and dissolve.
      const uint64_t kind = rng.NextBelow(10);
      if (kind < 6) {
        page += 3;  // Dominant stride.
      } else if (kind < 8) {
        page += rng.NextBelow(1000);
      } else {
        page -= rng.NextBelow(500);
      }
      detector.Record(page);
      naive.Record(page);
      ASSERT_EQ(detector.MajorityStride(), naive.MajorityStride())
          << "trial " << trial << " step " << step << " history " << history;
    }
  }
}

TEST(StrideDetector, AdaptsToStrideChange) {
  StrideDetector d(16);
  uint64_t page = 500;
  for (int i = 0; i < 16; ++i) {
    d.Record(page += 3);
  }
  EXPECT_EQ(d.MajorityStride(), 3);
  // After the new stride fills a majority of the ring, the vote flips.
  for (int i = 0; i < 10; ++i) {
    d.Record(page += 9);
  }
  EXPECT_EQ(d.MajorityStride(), 9);
}

TEST(StrideDetector, InterleavedStreamsNeedADominantStride) {
  // 2:1 interleave of a stride-2 stream and a far-away random stream: only 1 in 3
  // deltas equals 2, so the majority vote must refuse to guess.
  StrideDetector d(30);
  Rng rng(7);
  uint64_t a = 1'000'000;
  for (int i = 0; i < 30; ++i) {
    d.Record(a += 2);
    d.Record(a += 2);
    d.Record(4'000'000'000ull + rng.NextBelow(1'000'000));
  }
  EXPECT_EQ(d.MajorityStride(), 0);
  // 5:1 interleave: 4 of every 6 deltas equal 2 — a real majority survives the noise.
  StrideDetector d2(30);
  for (int i = 0; i < 30; ++i) {
    for (int k = 0; k < 5; ++k) {
      d2.Record(a += 2);
    }
    d2.Record(4'000'000'000ull + rng.NextBelow(1'000'000));
  }
  EXPECT_EQ(d2.MajorityStride(), 2);
}

// --- Part 2: engine predictions, window adaptation, in-flight bounds ----------

PrefetchConfig TestConfig(PrefetchPolicy policy) {
  PrefetchConfig c;
  c.policy = policy;
  c.min_window = 2;
  c.initial_window = 4;
  c.max_window = 16;
  c.max_in_flight = 8;
  return c;
}

TEST(PrefetchEngine, NextNPredictsSequentialReadahead) {
  PrefetchEngine e(TestConfig(PrefetchPolicy::kNextN));
  const PrefetchCandidates c = e.Predict(100);
  ASSERT_EQ(c.count, e.window());
  for (uint32_t i = 0; i < c.count; ++i) {
    EXPECT_EQ(c.at(i), 101 + i);
  }
}

TEST(PrefetchEngine, MajorityStridePredictsOnlyAfterAPatternForms) {
  PrefetchEngine e(TestConfig(PrefetchPolicy::kMajorityStride));
  EXPECT_EQ(e.Predict(100).count, 0u) << "no history: no speculation";
  uint64_t page = 100;
  for (int i = 0; i < 6; ++i) {
    e.RecordFault(page += 5);
  }
  const PrefetchCandidates c = e.Predict(page);
  ASSERT_EQ(c.count, e.window());
  for (uint32_t i = 0; i < c.count; ++i) {
    EXPECT_EQ(c.at(i), page + 5 * (i + 1));
  }
}

TEST(PrefetchEngine, PredictionsStopAtTheAddressSpaceEdge) {
  PrefetchEngine up(TestConfig(PrefetchPolicy::kNextN));
  const uint64_t top = ~uint64_t{0};
  EXPECT_EQ(up.Predict(top - 2).count, 2u) << "two pages fit above top - 2";
  EXPECT_EQ(up.Predict(top).count, 0u);
  EXPECT_EQ(up.Predict(top - 2).at(1), top);

  // A descending stride stops at page 0 (inclusive).
  PrefetchEngine down(TestConfig(PrefetchPolicy::kMajorityStride));
  uint64_t page = 100;
  for (int i = 0; i < 6; ++i) {
    down.RecordFault(page -= 7);
  }
  ASSERT_EQ(page, 58u);
  const PrefetchCandidates c = down.Predict(14);
  EXPECT_EQ(c.count, 2u) << "7 and 0 fit, -7 would wrap";
  EXPECT_EQ(c.at(0), 7u);
  EXPECT_EQ(c.at(1), 0u);
}

TEST(PrefetchEngine, WindowGrowsOnUsefulAndShrinksOnFeedback) {
  PrefetchEngine e(TestConfig(PrefetchPolicy::kNextN));
  EXPECT_EQ(e.window(), 4u);
  e.OnUseful(1);
  EXPECT_EQ(e.window(), 8u);
  e.OnUseful(2);
  e.OnUseful(3);
  EXPECT_EQ(e.window(), 16u) << "growth saturates at max_window";
  e.OnIssued();
  e.OnLate();
  EXPECT_EQ(e.window(), 8u);
  e.OnIssued();
  e.OnDiscardedStale();
  EXPECT_EQ(e.window(), 4u);
  e.OnEvictedUnused();
  e.OnEvictedUnused();
  EXPECT_EQ(e.window(), 2u) << "shrink saturates at min_window";
}

TEST(PrefetchEngine, InFlightBudgetIsBounded) {
  PrefetchEngine e(TestConfig(PrefetchPolicy::kNextN));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(e.HasInFlightRoom());
    e.OnIssued();
  }
  EXPECT_FALSE(e.HasInFlightRoom());
  e.OnInstalled();
  EXPECT_TRUE(e.HasInFlightRoom());
  EXPECT_EQ(e.stats().issued, 8u);
}

// --- Part 3: end-to-end coverage on all three systems -------------------------

// Streaming scan far past the cache: without prefetching every op is a remote fault.
WorkloadSpec StreamSpec(int blades, Pattern pattern) {
  WorkloadSpec s;
  s.name = "stream";
  s.num_blades = blades;
  s.threads_per_blade = 1;
  s.private_pages_per_thread = 6000;
  s.private_pattern = pattern;
  s.stride_pages = 7;
  s.private_write_fraction = 0.3;
  s.accesses_per_thread = 8000;
  s.think_time = 600;
  s.seed = 3;
  return s;
}

RackConfig SmallRack(int blades) {
  RackConfig c;
  c.num_compute_blades = blades;
  c.num_memory_blades = 2;
  c.memory_blade_capacity = 2ull << 30;
  c.compute_cache_bytes = 8ull << 20;  // 2048 frames: far below the working set.
  return c;
}

ReplayReport Replay(MemorySystem& sys, const WorkloadTraces& traces,
                    PrefetchPolicy policy, int shards = 1) {
  ReplayOptions opts;
  opts.shards = shards;
  opts.prefetch = policy;
  ReplayEngine engine(&sys, &traces, opts);
  EXPECT_TRUE(engine.Setup().ok());
  return engine.Run();
}

TEST(PrefetchEndToEnd, MindStrideCoversStreamingFaults) {
  const WorkloadTraces traces = GenerateTraces(StreamSpec(2, Pattern::kSequential));
  MindSystem base(SmallRack(2));
  const ReplayReport none = Replay(base, traces, PrefetchPolicy::kNone);
  EXPECT_EQ(none.prefetch.issued, 0u);

  MindSystem sys(SmallRack(2));
  const ReplayReport got = Replay(sys, traces, PrefetchPolicy::kMajorityStride);
  EXPECT_GT(got.prefetch.issued, 0u);
  EXPECT_GT(got.prefetch.useful, 0u);
  EXPECT_GT(got.PrefetchCoverage(), 0.3) << "acceptance bar: >= 30% fault coverage";
  EXPECT_GT(got.prefetch.Accuracy(), 0.5);
  EXPECT_LT(got.makespan, none.makespan) << "covered faults must shorten the run";
  EXPECT_LT(got.counters.remote_accesses, none.counters.remote_accesses);
  EXPECT_EQ(got.total_ops, none.total_ops);
}

TEST(PrefetchEndToEnd, FastSwapStrideCoversStridedFaults) {
  const WorkloadTraces traces = GenerateTraces(StreamSpec(1, Pattern::kStrided));
  FastSwapConfig cfg;
  cfg.num_memory_blades = 2;
  cfg.compute_cache_bytes = 8ull << 20;
  FastSwapSystem base(cfg);
  const ReplayReport none = Replay(base, traces, PrefetchPolicy::kNone);

  FastSwapSystem sys(cfg);
  const ReplayReport got = Replay(sys, traces, PrefetchPolicy::kMajorityStride);
  EXPECT_GT(got.prefetch.useful, 0u);
  EXPECT_GT(got.PrefetchCoverage(), 0.3) << "acceptance bar: >= 30% fault coverage";
  EXPECT_LT(got.makespan, none.makespan);
  EXPECT_EQ(got.total_ops, none.total_ops);
}

TEST(PrefetchEndToEnd, MindStoreDataModeInstallsRealPayloads) {
  // store_data exercises the install-time payload re-read (Rack::PeekPageBytes): the
  // prefetched copy must come from the memory blade, not a dangling fetch-time pointer.
  RackConfig cfg = SmallRack(1);
  cfg.store_data = true;
  MindSystem sys(cfg);
  WorkloadSpec spec = StreamSpec(1, Pattern::kSequential);
  spec.accesses_per_thread = 3000;
  const WorkloadTraces traces = GenerateTraces(spec);
  const ReplayReport got = Replay(sys, traces, PrefetchPolicy::kMajorityStride);
  EXPECT_GT(got.prefetch.useful, 0u);
  EXPECT_GT(got.PrefetchCoverage(), 0.3);
}

TEST(PrefetchEndToEnd, GamIssuesBehindTheLibraryLock) {
  const WorkloadTraces traces = GenerateTraces(StreamSpec(2, Pattern::kSequential));
  GamConfig cfg;
  cfg.num_compute_blades = 2;
  cfg.num_memory_blades = 2;
  cfg.compute_cache_bytes = 8ull << 20;
  GamSystem sys(cfg);
  const ReplayReport got = Replay(sys, traces, PrefetchPolicy::kMajorityStride);
  EXPECT_GT(got.prefetch.issued, 0u);
  EXPECT_GT(got.prefetch.useful, 0u);
  EXPECT_GT(got.PrefetchCoverage(), 0.3);
}

// Prefetch state under sharded replay: engines and per-blade tables are only ever touched
// by their own blade's channel commits or the serialized drain, so sharded replay with
// prefetching on must be deterministic.
TEST(PrefetchEndToEnd, ShardedReplayIsDeterministic) {
  const WorkloadTraces traces = GenerateTraces(StreamSpec(4, Pattern::kSequential));
  auto run = [&](int shards) {
    MindSystem sys(SmallRack(4));
    ReplayOptions opts;
    opts.shards = shards;
    opts.prefetch = PrefetchPolicy::kMajorityStride;
    ReplayEngine engine(&sys, &traces, opts);
    EXPECT_TRUE(engine.Setup().ok());
    return engine.Run();
  };
  const ReplayReport a = run(4);
  const ReplayReport b = run(4);
  EXPECT_GT(a.prefetch.useful, 0u);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.counters.local_hits, b.counters.local_hits);
  EXPECT_EQ(a.prefetch.issued, b.prefetch.issued);
  EXPECT_EQ(a.prefetch.useful, b.prefetch.useful);
  EXPECT_TRUE(a.latency_histogram == b.latency_histogram);
}

TEST(PrefetchEndToEnd, PointerChaseProducesNoStrideSpeculation) {
  const WorkloadTraces traces = GenerateTraces(StreamSpec(1, Pattern::kPointerChase));
  MindSystem sys(SmallRack(1));
  const ReplayReport got = Replay(sys, traces, PrefetchPolicy::kMajorityStride);
  // No majority stride exists in a permuted chase, so the detector must sit out.
  EXPECT_EQ(got.prefetch.issued, 0u);
}

// --- Part 3a: the in-flight queue vs a brute-force reference -----------------

// The table the ready queue replaced: an ordered map scanned in full, arrivals sorted by
// (ready_at, page), the earliest pending arrival recomputed by a min-reduce.
class NaiveInFlight {
 public:
  void Issue(uint64_t page, SimTime ready_at) { table_[page] = ready_at; }
  bool TakeLate(uint64_t page) { return table_.erase(page) != 0; }
  std::vector<std::pair<SimTime, uint64_t>> TakeReady(SimTime now) {
    std::vector<std::pair<SimTime, uint64_t>> ready;
    for (auto it = table_.begin(); it != table_.end();) {
      if (it->second <= now) {
        ready.emplace_back(it->second, it->first);
        it = table_.erase(it);
      } else {
        ++it;
      }
    }
    std::sort(ready.begin(), ready.end());
    return ready;
  }
  [[nodiscard]] SimTime next_ready() const {
    SimTime earliest = ~SimTime{0};
    for (const auto& [page, ready_at] : table_) {
      earliest = std::min(earliest, ready_at);
    }
    return earliest;
  }
  [[nodiscard]] bool Contains(uint64_t page) const { return table_.count(page) != 0; }

 private:
  std::map<uint64_t, SimTime> table_;
};

TEST(PrefetchInFlightQueue, MatchesBruteForceReference) {
  for (const uint64_t seed : {1u, 2u, 3u, 42u, 1234u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    BladePrefetchState bp;
    NaiveInFlight ref;
    PrefetchEngine engine{PrefetchConfig{}};
    std::vector<std::pair<uint64_t, SimTime>> joined;  // Late joins, for re-issue.
    SimTime clock = 0;
    for (int step = 0; step < 20000; ++step) {
      const double roll = rng.NextDouble();
      const uint64_t page = rng.NextBelow(256);
      if (roll < 0.45) {
        if (ref.Contains(page)) {
          ASSERT_TRUE(bp.Contains(page));
          continue;
        }
        ASSERT_FALSE(bp.Contains(page));
        // A coarse ready_at grid makes equal-arrival ties common.
        const SimTime ready_at = clock + 10 * rng.NextBelow(20);
        bp.Issue(page, BladePrefetchState::InFlight{ready_at, page * 3, &engine, 0});
        ref.Issue(page, ready_at);
      } else if (roll < 0.55 && !joined.empty()) {
        // Re-issue a page after its late join, at its old arrival time: the queue still
        // holds the joined fetch's dead entry with the very same (ready_at, page) key.
        const auto [p, ready_at] = joined[rng.NextBelow(joined.size())];
        if (!ref.Contains(p)) {
          bp.Issue(p, BladePrefetchState::InFlight{ready_at, p * 3, &engine, 0});
          ref.Issue(p, ready_at);
        }
      } else if (roll < 0.75) {
        const auto got = bp.TakeLate(page);
        const bool want = ref.Contains(page);
        ASSERT_EQ(got.has_value(), want) << "step " << step;
        if (got.has_value()) {
          joined.emplace_back(page, got->ready_at);
          ASSERT_EQ(got->inval_stamp, page * 3);
          ref.TakeLate(page);
        }
      } else {
        // Mostly forward, occasionally behind the previous call (threads' clocks differ).
        clock += rng.NextBelow(40);
        const SimTime now = rng.NextBelow(8) == 0 ? clock - std::min<SimTime>(clock, 50)
                                                  : clock;
        const auto& got = bp.TakeReady(now);
        const auto want = ref.TakeReady(now);
        ASSERT_EQ(got.size(), want.size()) << "step " << step;
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].second.ready_at, want[i].first) << "step " << step;
          ASSERT_EQ(got[i].first, want[i].second) << "install order diverged at " << step;
          ASSERT_EQ(got[i].second.inval_stamp, got[i].first * 3);
        }
      }
      ASSERT_EQ(bp.next_ready(), ref.next_ready()) << "step " << step;
    }
  }
}

// TakeReady's batch points into the queue, which an Issue may move: debug builds refuse
// an Issue (or another TakeReady) while a batch is alive, and accept both once it is gone.
TEST(PrefetchInFlightQueue, BatchMustBeReleasedBeforeIssue) {
  PrefetchEngine engine{PrefetchConfig{}};
  BladePrefetchState bp;
  bp.Issue(1, BladePrefetchState::InFlight{10, 0, &engine, 0});
  {
    const auto batch = bp.TakeReady(10);
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_DEBUG_DEATH(bp.Issue(2, BladePrefetchState::InFlight{20, 0, &engine, 0}),
                       "live TakeReady batch");
    EXPECT_DEBUG_DEATH((void)bp.TakeReady(30), "earlier batch is alive");
  }
  bp.Issue(3, BladePrefetchState::InFlight{40, 0, &engine, 0});
  EXPECT_EQ(bp.TakeReady(40).size(), 1u);
}

// --- Part 4: invalidation waves discard stale in-flight prefetches ------------

// --- Part 3b: prefetch-aware eviction priority (DramCache cold inserts) -------

TEST(PrefetchEviction, ColdInsertEvictsGuessesBeforeDemandPages) {
  DramCache cache(/*capacity_frames=*/8, /*store_data=*/false);
  for (uint64_t p = 1; p <= 8; ++p) {
    EXPECT_FALSE(cache.Insert(p, /*writable=*/true).has_value());
  }
  // Speculative install at depth 2: the LRU page 1 is evicted to make room, and the
  // guess links above pages 2 and 3 only — not at MRU.
  auto ev = cache.InsertPrefetched(100, /*writable=*/false, nullptr, 0, /*lru_depth=*/2);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->page, 1u);
  ASSERT_NE(cache.Peek(100), nullptr);
  EXPECT_TRUE(cache.Peek(100)->prefetched);
  // Demand pressure now consumes the two colder demand pages, then the guess — before
  // any of the five warmer demand pages.
  EXPECT_EQ(cache.Insert(200, true)->page, 2u);
  EXPECT_EQ(cache.Insert(201, true)->page, 3u);
  EXPECT_EQ(cache.Insert(202, true)->page, 100u);
  EXPECT_EQ(cache.Insert(203, true)->page, 4u);
}

TEST(PrefetchEviction, DepthZeroMakesAMispredictingBurstChurnItself) {
  DramCache cache(/*capacity_frames=*/4, /*store_data=*/false);
  for (uint64_t p = 1; p <= 4; ++p) {
    cache.Insert(p, /*writable=*/true);
  }
  // The regression this closes: a wrong-guess burst at the cold end evicts its own
  // previous guesses, and all demand pages but the original tail survive.
  EXPECT_EQ(cache.InsertPrefetched(100, false, nullptr, 0, 0)->page, 1u);
  EXPECT_EQ(cache.InsertPrefetched(101, false, nullptr, 0, 0)->page, 100u);
  EXPECT_EQ(cache.InsertPrefetched(102, false, nullptr, 0, 0)->page, 101u);
  for (uint64_t p = 2; p <= 4; ++p) {
    EXPECT_NE(cache.Peek(p), nullptr) << "demand page " << p << " was evicted by guesses";
  }
}

TEST(PrefetchEviction, ColdDepthAdaptsToFeedback) {
  BladePrefetchState bp;
  PrefetchEngine engine{PrefetchConfig{}};
  const uint32_t start = bp.cold_insert_depth();
  bp.NoteInstalled(42, &engine);
  bp.OnPrefetchedTouch(42);
  EXPECT_GT(bp.cold_insert_depth(), start) << "useful touches must earn residency";
  for (uint64_t p = 0; p < 16; ++p) {  // A long evicted-unused run floors the depth.
    bp.NoteInstalled(100 + p, &engine);
    bp.OnPageEvicted(100 + p);
  }
  EXPECT_EQ(bp.cold_insert_depth(), BladePrefetchState::kMinColdDepth);
  EXPECT_EQ(engine.stats().evicted_unused, 16u);
}

// --- Part 3c: issued-window re-arm (the readahead-marker analog) --------------

TEST(PrefetchRearm, UsefulTouchPastWindowMidpointArmsOnce) {
  PrefetchEngine e{PrefetchConfig{}};
  e.NoteIssuedWindow(/*anchor=*/100, /*end=*/107);
  e.OnUseful(102);  // Below the midpoint: not armed.
  EXPECT_FALSE(e.TakeRearm().has_value());
  e.OnUseful(104);  // Midpoint crossed.
  const auto rearm = e.TakeRearm();
  ASSERT_TRUE(rearm.has_value());
  EXPECT_EQ(*rearm, 104u);
  EXPECT_EQ(e.stats().rearmed, 1u);
  e.OnUseful(106);  // The window arms at most once.
  EXPECT_FALSE(e.TakeRearm().has_value());
  e.NoteIssuedWindow(108, 101);  // Windows striding downward arm symmetrically.
  e.OnUseful(103);
  EXPECT_TRUE(e.TakeRearm().has_value());
}

TEST(PrefetchRearm, BladeQueueCollectsRearmRequestsFromTouches) {
  PrefetchEngine e{PrefetchConfig{}};
  BladePrefetchState bp;
  e.NoteIssuedWindow(10, 17);
  bp.NoteInstalled(14, &e);
  bp.OnPrefetchedTouch(14, /*pdid=*/7);
  ASSERT_EQ(bp.rearm_requests.size(), 1u);
  EXPECT_EQ(bp.rearm_requests[0].engine, &e);
  EXPECT_EQ(bp.rearm_requests[0].page, 14u);
  EXPECT_EQ(bp.rearm_requests[0].pdid, 7u);
}

// End-to-end: on a covered stream the touches ride channel/group commits, the re-arm
// hook keeps new windows going out at serialized points, and the accounting shows it.
TEST(PrefetchRearm, StreamingReplayRearmsWindows) {
  const WorkloadTraces traces = GenerateTraces(StreamSpec(2, Pattern::kSequential));
  MindSystem sys(SmallRack(2));
  const ReplayReport got = Replay(sys, traces, PrefetchPolicy::kMajorityStride);
  EXPECT_GT(got.prefetch.useful, 0u);
  EXPECT_GT(got.prefetch.rearmed, 0u) << "window re-arm never triggered";
}

TEST(PrefetchInvalidation, WaveBetweenIssueAndArrivalDiscardsTheCopy) {
  MindSystem sys(SmallRack(2));
  ASSERT_TRUE(sys.SetPrefetchPolicy(PrefetchPolicy::kMajorityStride));
  const VirtAddr base = *sys.Alloc(8ull << 20);
  const ThreadId tid_a = *sys.RegisterThread(0);
  const ThreadId tid_b = *sys.RegisterThread(1);

  // Blade 0 faults pages 0..3 sequentially: after the warm-up deltas the detector locks
  // onto stride 1 and issues prefetches for the pages ahead.
  SimTime t = 0;
  for (uint64_t p = 0; p < 4; ++p) {
    const AccessResult r =
        sys.Access(tid_a, 0, base + p * kPageSize, AccessType::kRead, t);
    ASSERT_TRUE(r.status.ok());
    t = r.completion + 100;
  }
  PrefetchStats stats = sys.prefetch_stats();
  ASSERT_GT(stats.issued, 0u) << "stride prefetches must be in flight";

  // Blade 1 writes page 5 while those fetches are still in flight: the invalidation
  // wave hits blade 0's region, so the in-flight copies are stale.
  {
    const AccessResult r =
        sys.Access(tid_b, 1, base + 5 * kPageSize, AccessType::kWrite, t);
    ASSERT_TRUE(r.status.ok());
  }

  // Long after every fetch has landed, blade 0 touches page 4: the stale install must
  // have been discarded, so this is a real remote fault, not a stale local hit.
  t += 200 * kMicrosecond;
  const AccessResult r = sys.Access(tid_a, 0, base + 4 * kPageSize, AccessType::kRead, t);
  ASSERT_TRUE(r.status.ok());
  EXPECT_FALSE(r.local_hit);
  stats = sys.prefetch_stats();
  EXPECT_GT(stats.discarded_stale, 0u);
  EXPECT_EQ(stats.useful, 0u);
}

// A foreign protection domain can neither join an in-flight prefetch nor consume it:
// speculation must never widen access beyond what the fault path would grant.
TEST(PrefetchInvalidation, JoinPathRespectsProtectionDomains) {
  RackConfig cfg;
  cfg.num_compute_blades = 1;
  cfg.num_memory_blades = 1;
  cfg.prefetch.policy = PrefetchPolicy::kMajorityStride;  // Config-level opt-in path.
  Rack rack(cfg);
  const ProcessId pid_a = *rack.Exec("owner");
  const ProcessId pid_b = *rack.Exec("intruder");
  const ProtDomainId pdid_a = *rack.controller().PdidOf(pid_a);
  const ProtDomainId pdid_b = *rack.controller().PdidOf(pid_b);
  const ThreadId tid_a = rack.SpawnThread(pid_a, 0)->tid;
  const ThreadId tid_b = rack.SpawnThread(pid_b, 0)->tid;
  const VirtAddr base = *rack.Mmap(pid_a, 1 << 20, PermClass::kReadWrite);

  // A's sequential faults arm the detector and put pages 4.. in flight.
  SimTime t = 0;
  for (uint64_t p = 0; p < 4; ++p) {
    const AccessResult r =
        rack.Access({tid_a, 0, pdid_a, base + p * kPageSize, AccessType::kRead, t});
    ASSERT_TRUE(r.status.ok());
    t = r.completion + 100;
  }
  ASSERT_GT(rack.prefetch_stats().issued, 0u);

  // B (no grant for A's vma) demand-reads an in-flight page: denied, exactly as the
  // fault path would rule, and the in-flight entry is not consumed.
  const VirtAddr target = base + 4 * kPageSize;
  const AccessResult denied =
      rack.Access({tid_b, 0, pdid_b, target, AccessType::kRead, t});
  EXPECT_FALSE(denied.status.ok());

  // A's own access long after arrival still gets the prefetched page as a local hit.
  t += 200 * kMicrosecond;
  const AccessResult r = rack.Access({tid_a, 0, pdid_a, target, AccessType::kRead, t});
  ASSERT_TRUE(r.status.ok());
  EXPECT_TRUE(r.local_hit);
  EXPECT_GT(rack.prefetch_stats().useful, 0u);
}

// --- Part 5: kNone conformance — bit-identical to the per-op reference --------

void ExpectReportsIdentical(const ReplayReport& want, const ReplayReport& got) {
  EXPECT_EQ(want.makespan, got.makespan);
  EXPECT_EQ(want.total_ops, got.total_ops);
  EXPECT_EQ(want.counters.total_accesses, got.counters.total_accesses);
  EXPECT_EQ(want.counters.local_hits, got.counters.local_hits);
  EXPECT_EQ(want.counters.remote_accesses, got.counters.remote_accesses);
  EXPECT_EQ(want.counters.invalidations, got.counters.invalidations);
  EXPECT_EQ(want.counters.pages_flushed, got.counters.pages_flushed);
  EXPECT_EQ(want.counters.false_invalidations, got.counters.false_invalidations);
  EXPECT_TRUE(want.latency_histogram == got.latency_histogram);
  EXPECT_DOUBLE_EQ(want.avg_latency_us, got.avg_latency_us);
  EXPECT_DOUBLE_EQ(want.throughput_mops, got.throughput_mops);
}

TEST(PrefetchNoneConformance, AllSystemsBitIdenticalAtOneAndFourShards) {
  WorkloadSpec spec = MemcachedASpec(4, 2, /*accesses_per_thread=*/2000);
  spec.shared_pages = 4096;
  const WorkloadTraces traces = GenerateTraces(spec);

  const auto check = [&](auto make_system) {
    auto ref_sys = make_system();
    ReplayOptions ref_opts;
    ref_opts.use_channels = false;  // The pre-prefetch per-op reference path.
    ReplayEngine ref(ref_sys.get(), &traces, ref_opts);
    ASSERT_TRUE(ref.Setup().ok());
    const ReplayReport want = ref.Run();
    ASSERT_GT(want.total_ops, 0u);
    for (const int shards : {1, 4}) {
      SCOPED_TRACE(shards);
      auto sys = make_system();
      const ReplayReport got = Replay(*sys, traces, PrefetchPolicy::kNone, shards);
      ExpectReportsIdentical(want, got);
      EXPECT_EQ(got.prefetch.issued, 0u);
      EXPECT_EQ(got.prefetch.useful, 0u);
    }
  };

  {
    SCOPED_TRACE("MIND");
    RackConfig cfg = SmallRack(4);
    cfg.directory_slots = 2048;
    check([cfg] { return std::make_unique<MindSystem>(cfg); });
  }
  {
    SCOPED_TRACE("GAM");
    GamConfig cfg;
    cfg.num_compute_blades = 4;
    cfg.num_memory_blades = 2;
    cfg.compute_cache_bytes = 8ull << 20;
    check([cfg] { return std::make_unique<GamSystem>(cfg); });
  }
  {
    SCOPED_TRACE("FastSwap");
    WorkloadSpec fs_spec = spec;
    fs_spec.num_blades = 1;
    const WorkloadTraces fs_traces = GenerateTraces(fs_spec);
    FastSwapConfig cfg;
    cfg.compute_cache_bytes = 8ull << 20;
    auto ref_sys = std::make_unique<FastSwapSystem>(cfg);
    ReplayOptions ref_opts;
    ref_opts.use_channels = false;
    ReplayEngine ref(ref_sys.get(), &fs_traces, ref_opts);
    ASSERT_TRUE(ref.Setup().ok());
    const ReplayReport want = ref.Run();
    for (const int shards : {1, 4}) {
      SCOPED_TRACE(shards);
      FastSwapSystem sys(cfg);
      const ReplayReport got = Replay(sys, fs_traces, PrefetchPolicy::kNone, shards);
      ExpectReportsIdentical(want, got);
    }
  }
}

// --- Part 6: golden stride-prefetch replays and a pure prefetch_stats() ---------

struct GoldenResult {
  SimTime makespan = 0;
  uint64_t ops = 0;
  uint64_t latency_sum = 0;
  uint64_t latency_min = 0;
  uint64_t latency_max = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_useful = 0;
  uint64_t prefetch_evicted_unused = 0;
  uint64_t semantic_digest = 0;
};

GoldenResult GoldenRun(MemorySystem& sys, const WorkloadTraces& traces, int shards) {
  ReplayOptions opts;
  opts.shards = shards;
  opts.prefetch = PrefetchPolicy::kMajorityStride;
  opts.trace = true;
  ReplayEngine engine(&sys, &traces, opts);
  EXPECT_TRUE(engine.Setup().ok());
  const ReplayReport report = engine.Run();
  const HistogramSummary h = report.latency_histogram.Summary();
  GoldenResult g;
  g.makespan = report.makespan;
  g.ops = h.count;
  g.latency_sum = report.latency_histogram.sum();
  g.latency_min = h.min;
  g.latency_max = h.max;
  g.p50 = h.p50;
  g.p90 = h.p90;
  g.p99 = h.p99;
  g.p999 = h.p999;
  g.prefetch_issued = report.prefetch.issued;
  g.prefetch_useful = report.prefetch.useful;
  g.prefetch_evicted_unused = report.prefetch.evicted_unused;
  g.semantic_digest = engine.trace_scope()->SemanticDigest();
  return g;
}

void ExpectGolden(const GoldenResult& want, const GoldenResult& got) {
  EXPECT_EQ(want.makespan, got.makespan);
  EXPECT_EQ(want.ops, got.ops);
  EXPECT_EQ(want.latency_sum, got.latency_sum);
  EXPECT_EQ(want.latency_min, got.latency_min);
  EXPECT_EQ(want.latency_max, got.latency_max);
  EXPECT_EQ(want.p50, got.p50);
  EXPECT_EQ(want.p90, got.p90);
  EXPECT_EQ(want.p99, got.p99);
  EXPECT_EQ(want.p999, got.p999);
  EXPECT_EQ(want.prefetch_issued, got.prefetch_issued);
  EXPECT_EQ(want.prefetch_useful, got.prefetch_useful);
  EXPECT_EQ(want.prefetch_evicted_unused, got.prefetch_evicted_unused);
  EXPECT_EQ(want.semantic_digest, got.semantic_digest);
}

// Streaming scans far past a 2048-frame cache: every speculative install lands on a full
// cache at the adaptive cold depth, and the in-flight table holds a window per thread.
TEST(PrefetchGolden, MindStrideStreamMatchesPinnedResults) {
  const WorkloadTraces traces = GenerateTraces(StreamSpec(4, Pattern::kSequential));
  const GoldenResult want{/*makespan=*/26309908, /*ops=*/32000, /*latency_sum=*/82787632,
                          /*latency_min=*/80, /*latency_max=*/44525, /*p50=*/81, /*p90=*/8320,
                          /*p99=*/17664, /*p999=*/28416, /*prefetch_issued=*/42993,
                          /*prefetch_useful=*/31475, /*prefetch_evicted_unused=*/10801,
                          /*semantic_digest=*/3541032954130857862ull};
  for (const int shards : {1, 4}) {
    SCOPED_TRACE(shards);
    MindSystem sys(SmallRack(4));
    ExpectGolden(want, GoldenRun(sys, traces, shards));
  }
}

TEST(PrefetchGolden, GamStrideStreamMatchesPinnedResults) {
  const WorkloadTraces traces = GenerateTraces(StreamSpec(4, Pattern::kSequential));
  GamConfig cfg;
  cfg.num_compute_blades = 4;
  cfg.num_memory_blades = 2;
  cfg.compute_cache_bytes = 8ull << 20;
  const GoldenResult want{/*makespan=*/159395832, /*ops=*/32000, /*latency_sum=*/611277611,
                          /*latency_min=*/950, /*latency_max=*/390387, /*p50=*/952, /*p90=*/73728,
                          /*p99=*/163840, /*p999=*/311296, /*prefetch_issued=*/34032,
                          /*prefetch_useful=*/31074, /*prefetch_evicted_unused=*/1808,
                          /*semantic_digest=*/8720602249616460104ull};
  for (const int shards : {1, 4}) {
    SCOPED_TRACE(shards);
    GamSystem sys(cfg);
    ExpectGolden(want, GoldenRun(sys, traces, shards));
  }
}

// The swap_stream shape at reduced scale: one blade, four sequential scanners.
TEST(PrefetchGolden, FastSwapStrideStreamMatchesPinnedResults) {
  WorkloadSpec spec = StreamSpec(1, Pattern::kSequential);
  spec.threads_per_blade = 4;
  const WorkloadTraces traces = GenerateTraces(spec);
  FastSwapConfig cfg;
  cfg.num_memory_blades = 2;
  cfg.compute_cache_bytes = 8ull << 20;
  const GoldenResult want{/*makespan=*/11899750, /*ops=*/32000, /*latency_sum=*/28070408,
                          /*latency_min=*/80, /*latency_max=*/76350, /*p50=*/81, /*p90=*/81,
                          /*p99=*/41984, /*p999=*/57856, /*prefetch_issued=*/33576,
                          /*prefetch_useful=*/31164, /*prefetch_evicted_unused=*/1469,
                          /*semantic_digest=*/14643600936467236386ull};
  for (const int shards : {1, 4}) {
    SCOPED_TRACE(shards);
    FastSwapSystem sys(cfg);
    ExpectGolden(want, GoldenRun(sys, traces, shards));
  }
}

// Reading the prefetch counters must not steer the prefetcher. MIND invalidation waves
// drop prefetched pages without an eviction record, so such pages are classified
// evicted-unused lazily when prefetch_stats() runs; that classification may only count,
// and must count each page exactly once whenever it runs. A replay that reads the
// counters at every sample point must end with the same report, prefetch counters and
// semantic trace as one that never looks. Unsplit 2 MB directory regions make every
// shared write invalidate whole regions of the other blade's speculative installs.
void ExpectMidRunReadsChangeNothing(uint64_t cache_bytes, double shared_write_fraction) {
  WorkloadSpec spec = StreamSpec(2, Pattern::kSequential);
  spec.private_pages_per_thread = 3000;
  spec.accesses_per_thread = 6000;
  spec.shared_pages = 2048;
  spec.shared_pattern = Pattern::kSequential;
  spec.shared_access_fraction = 0.5;
  spec.shared_write_fraction = shared_write_fraction;
  const WorkloadTraces traces = GenerateTraces(spec);
  RackConfig cfg = SmallRack(2);
  cfg.compute_cache_bytes = cache_bytes;
  cfg.splitting.enabled = false;
  cfg.splitting.initial_region_size = 2ull << 20;
  uint64_t reads = 0;
  const auto run = [&](bool read_stats) {
    MindSystem sys(cfg);
    ReplayOptions opts;
    opts.prefetch = PrefetchPolicy::kMajorityStride;
    opts.trace = true;
    ReplayEngine engine(&sys, &traces, opts);
    EXPECT_TRUE(engine.Setup().ok());
    const ReplayReport report = engine.Run(
        [&](SimTime) {
          if (read_stats) {
            (void)sys.prefetch_stats();
            ++reads;
          }
        },
        /*sample_interval=*/20 * kMicrosecond);
    return std::make_pair(report, engine.trace_scope()->SemanticDigest());
  };
  const auto [quiet, quiet_digest] = run(false);
  const auto [observed, observed_digest] = run(true);
  ASSERT_GT(reads, 100u);
  ASSERT_GT(quiet.counters.invalidations, 0u) << "the schedule must produce waves";
  ASSERT_GT(quiet.prefetch.evicted_unused, 0u);
  ExpectReportsIdentical(quiet, observed);
  EXPECT_EQ(quiet.prefetch.issued, observed.prefetch.issued);
  EXPECT_EQ(quiet.prefetch.useful, observed.prefetch.useful);
  EXPECT_EQ(quiet.prefetch.late, observed.prefetch.late);
  EXPECT_EQ(quiet.prefetch.evicted_unused, observed.prefetch.evicted_unused);
  EXPECT_EQ(quiet.prefetch.discarded_stale, observed.prefetch.discarded_stale);
  EXPECT_EQ(quiet.prefetch.rearmed, observed.prefetch.rearmed);
  EXPECT_EQ(quiet.prefetch.throttled, observed.prefetch.throttled);
  EXPECT_EQ(quiet_digest, observed_digest);
}

TEST(PrefetchStatsRead, MidRunReadsLeaveWaveReplayUnchanged) {
  {
    SCOPED_TRACE("1 MB cache: silently dropped pages return and are evicted again");
    ExpectMidRunReadsChangeNothing(1ull << 20, /*shared_write_fraction=*/0.1);
  }
  {
    SCOPED_TRACE("8 MB cache: silently dropped pages are prefetched again");
    ExpectMidRunReadsChangeNothing(8ull << 20, /*shared_write_fraction=*/0.3);
  }
}

}  // namespace
}  // namespace mind
