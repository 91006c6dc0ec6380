// Unit tests for src/common: types, bit ops, RNG/zipfian, histogram, fairness index, and
// the FlatMap64 open-addressed table.
#include <gtest/gtest.h>

#include <cmath>
#include <unordered_map>
#include <vector>

#include "src/common/bitops.h"
#include "src/common/flat_map.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace mind {
namespace {

TEST(Types, PageArithmetic) {
  EXPECT_EQ(PageBase(0x1234), 0x1000u);
  EXPECT_EQ(PageBase(0x1000), 0x1000u);
  EXPECT_EQ(PageNumber(0x2fff), 2u);
  EXPECT_EQ(PageToAddr(3), 0x3000u);
  EXPECT_EQ(PageToAddr(PageNumber(0xabcd000)), 0xabcd000u);
}

TEST(Types, PermClassSemantics) {
  EXPECT_FALSE(Permits(PermClass::kNone, AccessType::kRead));
  EXPECT_FALSE(Permits(PermClass::kNone, AccessType::kWrite));
  EXPECT_TRUE(Permits(PermClass::kReadOnly, AccessType::kRead));
  EXPECT_FALSE(Permits(PermClass::kReadOnly, AccessType::kWrite));
  EXPECT_TRUE(Permits(PermClass::kReadWrite, AccessType::kRead));
  EXPECT_TRUE(Permits(PermClass::kReadWrite, AccessType::kWrite));
}

TEST(Types, BladeBitIsDistinct) {
  for (int i = 0; i < kMaxComputeBlades; ++i) {
    for (int j = i + 1; j < kMaxComputeBlades; ++j) {
      EXPECT_NE(BladeBit(static_cast<ComputeBladeId>(i)),
                BladeBit(static_cast<ComputeBladeId>(j)));
    }
  }
}

TEST(BitOps, PowerOfTwoPredicates) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(4096));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_FALSE(IsPowerOfTwo(4097));
}

TEST(BitOps, Log2RoundTrips) {
  EXPECT_EQ(Log2Floor(1), 0u);
  EXPECT_EQ(Log2Floor(4096), 12u);
  EXPECT_EQ(Log2Floor(4097), 12u);
  EXPECT_EQ(Log2Ceil(4096), 12u);
  EXPECT_EQ(Log2Ceil(4097), 13u);
  EXPECT_EQ(Log2Ceil(1), 0u);
}

TEST(BitOps, Rounding) {
  EXPECT_EQ(RoundUpPowerOfTwo(4097), 8192u);
  EXPECT_EQ(RoundUpPowerOfTwo(4096), 4096u);
  EXPECT_EQ(RoundDownPowerOfTwo(4097), 4096u);
  EXPECT_EQ(AlignUp(5, 4), 8u);
  EXPECT_EQ(AlignDown(5, 4), 4u);
  EXPECT_TRUE(IsAligned(8192, 4096));
  EXPECT_FALSE(IsAligned(8193, 4096));
}

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, BoundedDrawsInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng(99);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Zipfian, SkewsTowardLowIndices) {
  Rng rng(5);
  ZipfianGenerator zipf(1000, 0.99);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t v = zipf.Next(rng);
    ASSERT_LT(v, 1000u);
    counts[v]++;
  }
  // Rank-0 must dominate rank-500 by a wide margin under theta=0.99.
  EXPECT_GT(counts[0], counts[500] * 10);
  // And the head (top 10%) should hold the majority of mass.
  int head = 0;
  for (int i = 0; i < 100; ++i) {
    head += counts[i];
  }
  EXPECT_GT(head, 50000);
}

TEST(Zipfian, UniformWhenThetaZero) {
  Rng rng(5);
  ZipfianGenerator zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) {
    counts[zipf.Next(rng)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 1500);
  }
}

TEST(Histogram, CountsAndMean) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.sum(), 5050u);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 100u);
}

TEST(Histogram, PercentilesApproximate) {
  Histogram h;
  for (uint64_t v = 0; v < 10000; ++v) {
    h.Record(v);
  }
  // Log-bucketing gives < ~2% relative error.
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.5)), 5000.0, 200.0);
  EXPECT_NEAR(static_cast<double>(h.Percentile(0.99)), 9900.0, 300.0);
}

TEST(Histogram, MergeCombines) {
  Histogram a;
  Histogram b;
  a.Record(10);
  b.Record(20);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.sum(), 30u);
  EXPECT_EQ(a.min(), 10u);
  EXPECT_EQ(a.max(), 20u);
}

TEST(JainIndex, PerfectBalance) {
  EXPECT_DOUBLE_EQ(JainFairnessIndex({100, 100, 100, 100}), 1.0);
}

TEST(JainIndex, WorstCase) {
  // All load on one of n entities => index = 1/n.
  EXPECT_NEAR(JainFairnessIndex({400, 0, 0, 0}), 0.25, 1e-9);
}

TEST(JainIndex, EmptyAndZeroAreFair) {
  EXPECT_DOUBLE_EQ(JainFairnessIndex({}), 1.0);
  EXPECT_DOUBLE_EQ(JainFairnessIndex({0, 0}), 1.0);
}

TEST(Status, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status s(ErrorCode::kNoMemory, "boom");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kNoMemory);
  EXPECT_EQ(s.ToString(), "no-memory: boom");
}

TEST(Result, ValueAndStatusPaths) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> err(Status(ErrorCode::kNotFound));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), ErrorCode::kNotFound);
}

// FlatMap64 against std::unordered_map under random Upsert/Erase/Find churn. Each seed
// draws its own universe of 6, 12 or 40 random keys, so the table stays at 16-64 slots
// and home slots differ from seed to seed: across the seeds, probe clusters wrap past
// the end of the arrays and backward-shift deletion must move entries across the wrap.
TEST(FlatMap64, RandomChurnMatchesUnorderedMap) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    FlatMap64<uint64_t> map;
    std::unordered_map<uint64_t, uint64_t> ref;
    std::vector<uint64_t> universe(seed % 3 == 0 ? 40 : seed % 3 == 1 ? 12 : 6);
    for (uint64_t& k : universe) {
      k = rng.Next();
    }
    for (int step = 0; step < 4000; ++step) {
      const uint64_t key = universe[rng.NextBelow(universe.size())];
      const double roll = rng.NextDouble();
      if (roll < 0.45) {
        const uint64_t value = rng.Next();
        const auto [slot, inserted] = map.Upsert(key, value);
        ASSERT_EQ(inserted, ref.count(key) == 0) << "step " << step;
        ASSERT_EQ(*slot, value);
        ref[key] = value;
      } else if (roll < 0.65) {
        ASSERT_EQ(map.Erase(key), ref.erase(key) == 1) << "step " << step;
      } else if (roll < 0.80) {
        // The Find-then-EraseAt pairing the prefetch tables use.
        const uint64_t* found = map.Find(key);
        ASSERT_EQ(found != nullptr, ref.count(key) == 1) << "step " << step;
        if (found != nullptr) {
          ASSERT_EQ(*found, ref[key]);
          map.EraseAt(found);
          ref.erase(key);
        }
      } else {
        const uint64_t* found = map.Find(key);
        ASSERT_EQ(found != nullptr, ref.count(key) == 1) << "step " << step;
        if (found != nullptr) {
          ASSERT_EQ(*found, ref[key]) << "step " << step;
        }
      }
      ASSERT_EQ(map.size(), ref.size()) << "step " << step;
      if (step % 64 == 0) {
        for (const uint64_t k : universe) {
          const uint64_t* found = map.Find(k);
          ASSERT_EQ(found != nullptr, ref.count(k) == 1) << "key " << k << " step " << step;
          if (found != nullptr) {
            ASSERT_EQ(*found, ref[k]);
          }
        }
        size_t visited = 0;
        map.ForEach([&](uint64_t k, uint64_t& v) {
          ++visited;
          ASSERT_EQ(ref.count(k), 1u);
          ASSERT_EQ(v, ref[k]);
        });
        ASSERT_EQ(visited, ref.size());
      }
    }
  }
}

// Erasures leave no tombstones, so churn at a fixed live size never grows (or rehashes)
// the table: neither a streaming window (insert the next key, erase the oldest) nor
// random replacement.
TEST(FlatMap64, SteadyStateChurnDoesNotGrowCapacity) {
  // Live sizes 10/16 and 700/1024: one below the grow threshold while a churn step holds
  // live + 1 entries.
  for (const uint64_t live : {10u, 700u}) {
    SCOPED_TRACE(live);
    FlatMap64<uint64_t> stream;
    FlatMap64<uint64_t> random;
    std::vector<uint64_t> keys;
    for (uint64_t k = 0; k < live; ++k) {
      stream.Upsert(k, k);
      random.Upsert(k, k);
      keys.push_back(k);
    }
    const size_t stream_cap = stream.capacity();
    const size_t random_cap = random.capacity();
    Rng rng(live);
    for (uint64_t k = live; k < live + 50000; ++k) {
      stream.Upsert(k, k);
      ASSERT_TRUE(stream.Erase(k - live));
      const size_t victim = rng.NextBelow(keys.size());
      ASSERT_TRUE(random.Erase(keys[victim]));
      keys[victim] = k * 0x9E3779B97F4A7C15ull;  // Scattered home slots.
      random.Upsert(keys[victim], k);
    }
    EXPECT_EQ(stream.size(), live);
    EXPECT_EQ(stream.capacity(), stream_cap);
    EXPECT_EQ(random.size(), live);
    EXPECT_EQ(random.capacity(), random_cap);
    for (uint64_t k = 50000; k < live + 50000; ++k) {
      ASSERT_NE(stream.Find(k), nullptr);
    }
    for (const uint64_t k : keys) {
      ASSERT_NE(random.Find(k), nullptr);
    }
  }
}

TEST(FlatMap64, ReserveForChurnKeepsLoadBelowAThird) {
  FlatMap64<uint64_t> map;
  for (uint64_t live = 1; live <= 3000; ++live) {
    map.ReserveForChurn(live);
    map.Upsert(live, live);
    ASSERT_LT(3 * map.size(), map.capacity()) << "live " << live;
  }
  // A churn step at the reached size neither grows nor shrinks the table.
  const size_t cap = map.capacity();
  for (uint64_t k = 3001; k < 13001; ++k) {
    map.ReserveForChurn(map.size() + 1);
    map.Upsert(k, k);
    ASSERT_TRUE(map.Erase(k - 3000));
  }
  EXPECT_EQ(map.capacity(), cap);
  EXPECT_EQ(map.size(), 3000u);
}

}  // namespace
}  // namespace mind
