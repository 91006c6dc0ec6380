// Tests for the workload generators and the replay engine: statistical structure of the
// generated traces (the properties the paper's evaluation discriminates on) and correct
// replay accounting. Parameterized over the four paper workloads.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "src/baselines/fastswap.h"
#include "src/baselines/mind_system.h"
#include "src/workload/generators.h"
#include "src/workload/replay.h"

namespace mind {
namespace {

double SharedWriteRate(const WorkloadTraces& traces) {
  uint64_t shared_writes = 0;
  uint64_t total = 0;
  for (const auto& t : traces.threads) {
    for (const auto& op : t.ops) {
      total++;
      if (op.segment == 0 && op.type == AccessType::kWrite) {
        shared_writes++;
      }
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(shared_writes) / static_cast<double>(total);
}

double MetadataWriteRate(const WorkloadTraces& traces) {
  uint64_t md_writes = 0;
  uint64_t total = 0;
  for (const auto& t : traces.threads) {
    for (const auto& op : t.ops) {
      total++;
      if (op.segment == 1 && op.type == AccessType::kWrite) {
        md_writes++;
      }
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(md_writes) / static_cast<double>(total);
}

TEST(Generators, DeterministicForSeed) {
  const auto a = GenerateTraces(TfSpec(2, 2, 1000));
  const auto b = GenerateTraces(TfSpec(2, 2, 1000));
  ASSERT_EQ(a.threads.size(), b.threads.size());
  for (size_t t = 0; t < a.threads.size(); ++t) {
    ASSERT_EQ(a.threads[t].ops.size(), b.threads[t].ops.size());
    for (size_t i = 0; i < a.threads[t].ops.size(); ++i) {
      ASSERT_EQ(a.threads[t].ops[i].page, b.threads[t].ops[i].page);
      ASSERT_EQ(a.threads[t].ops[i].type, b.threads[t].ops[i].type);
    }
  }
}

TEST(Generators, OpsStayInsideSegments) {
  const auto traces = GenerateTraces(GcSpec(4, 2, 2000));
  for (const auto& t : traces.threads) {
    for (const auto& op : t.ops) {
      ASSERT_LT(op.segment, traces.segments.size());
      ASSERT_LT(op.page, traces.segments[op.segment].pages);
    }
  }
}

TEST(Generators, GcWritesMoreSharedDataThanTf) {
  // §7.1: "GC writes ~2.5x more data in shared pages than TF".
  const double tf = SharedWriteRate(GenerateTraces(TfSpec(4, 2, 20000)));
  const double gc = SharedWriteRate(GenerateTraces(GcSpec(4, 2, 20000)));
  EXPECT_GT(gc, 1.8 * tf);
  EXPECT_LT(gc, 8.0 * tf);
}

TEST(Generators, MemcachedCHasNoSharedTableWritesButKeepsMetadataWrites) {
  const auto mc = GenerateTraces(MemcachedCSpec(4, 2, 20000));
  EXPECT_DOUBLE_EQ(SharedWriteRate(mc), 0.0);  // YCSB-C: 100% GETs.
  // The LRU-touch writes remain — the paper's explanation for M_C's poor scaling.
  EXPECT_GT(MetadataWriteRate(mc), 0.2);
}

TEST(Generators, MemcachedAHasBothWriteKinds) {
  const auto ma = GenerateTraces(MemcachedASpec(4, 2, 20000));
  // ~0.95 * 0.5 of primary ops are SETs, diluted by the extra LRU-touch ops in the stream.
  EXPECT_GT(SharedWriteRate(ma), 0.2);
  EXPECT_GT(MetadataWriteRate(ma), 0.2);
}

TEST(Generators, KvsPartitioningIsLocal) {
  const int blades = 4;
  auto spec = NativeKvsSpec(blades, 2, 0.5, 20000);
  const auto traces = GenerateTraces(spec);
  const uint64_t partition = spec.shared_pages / blades;
  uint64_t local = 0;
  uint64_t shared_total = 0;
  for (size_t t = 0; t < traces.threads.size(); ++t) {
    const uint64_t blade = t % blades;
    for (const auto& op : traces.threads[t].ops) {
      if (op.segment != 0) {
        continue;
      }
      ++shared_total;
      if (op.page / partition == blade) {
        ++local;
      }
    }
  }
  ASSERT_GT(shared_total, 0u);
  const double locality = static_cast<double>(local) / static_cast<double>(shared_total);
  EXPECT_GT(locality, 0.8);  // ~85% + the uniform spill that lands locally by chance.
}

TEST(Generators, MicroRespectsReadRatio) {
  for (double read_ratio : {0.0, 0.5, 1.0}) {
    const auto traces = GenerateTraces(MicroSpec(4, read_ratio, 0.5, 40000, 10000));
    uint64_t writes = 0;
    uint64_t total = 0;
    for (const auto& t : traces.threads) {
      for (const auto& op : t.ops) {
        ++total;
        writes += op.type == AccessType::kWrite ? 1 : 0;
      }
    }
    EXPECT_NEAR(static_cast<double>(writes) / static_cast<double>(total), 1.0 - read_ratio,
                0.02);
  }
}

TEST(Generators, MicroRespectsSharingRatio) {
  for (double sharing : {0.25, 0.75}) {
    const auto traces = GenerateTraces(MicroSpec(4, 0.5, sharing, 40000, 10000));
    uint64_t shared = 0;
    uint64_t total = 0;
    for (const auto& t : traces.threads) {
      for (const auto& op : t.ops) {
        ++total;
        shared += op.segment == 0 ? 1 : 0;
      }
    }
    EXPECT_NEAR(static_cast<double>(shared) / static_cast<double>(total), sharing, 0.03);
  }
}

TEST(Generators, StridedPatternStepsByTheConfiguredStride) {
  WorkloadSpec spec;
  spec.name = "strided";
  spec.num_blades = 2;
  spec.threads_per_blade = 1;
  spec.private_pages_per_thread = 997;  // Prime: coprime with any stride, full coverage.
  spec.private_pattern = Pattern::kStrided;
  spec.stride_pages = 7;
  spec.accesses_per_thread = 3000;
  const auto traces = GenerateTraces(spec);
  for (size_t t = 0; t < traces.threads.size(); ++t) {
    const auto& ops = traces.threads[t].ops;
    ASSERT_GT(ops.size(), 100u);
    std::set<uint64_t> distinct;
    for (size_t i = 0; i < ops.size(); ++i) {
      ASSERT_EQ(ops[i].segment, 2 + t);  // Private-only spec.
      distinct.insert(ops[i].page);
      if (i > 0) {
        // Every consecutive delta is exactly the stride, mod the segment size.
        const uint64_t delta =
            (ops[i].page + spec.private_pages_per_thread - ops[i - 1].page) %
            spec.private_pages_per_thread;
        ASSERT_EQ(delta, spec.stride_pages) << "thread " << t << " op " << i;
      }
    }
    // A page-coprime stride visits the whole segment before repeating.
    EXPECT_EQ(distinct.size(), spec.private_pages_per_thread);
  }
}

TEST(Generators, PointerChaseIsAPermutedCycleWithoutAStride) {
  WorkloadSpec spec;
  spec.name = "chase";
  spec.num_blades = 1;
  spec.threads_per_blade = 1;
  spec.private_pages_per_thread = 512;
  spec.private_pattern = Pattern::kPointerChase;
  spec.accesses_per_thread = 1024;  // Two full laps of the cycle.
  const auto traces = GenerateTraces(spec);
  const auto& ops = traces.threads[0].ops;
  ASSERT_EQ(ops.size(), 1024u);
  // One lap visits every page exactly once (Sattolo builds a single cycle)...
  std::set<uint64_t> lap;
  for (size_t i = 0; i < 512; ++i) {
    lap.insert(ops[i].page);
  }
  EXPECT_EQ(lap.size(), 512u);
  // ...and the second lap replays the identical order (deterministic chase).
  for (size_t i = 0; i < 512; ++i) {
    ASSERT_EQ(ops[i].page, ops[i + 512].page);
  }
  // Distribution shape: no consecutive delta reaches a majority — the property that
  // makes the workload prefetch-hostile (the stride detector must sit out).
  std::map<int64_t, size_t> deltas;
  for (size_t i = 1; i < 512; ++i) {
    ++deltas[static_cast<int64_t>(ops[i].page - ops[i - 1].page)];
  }
  for (const auto& [delta, count] : deltas) {
    EXPECT_LT(count, 256u) << "delta " << delta << " has a majority";
  }
}

TEST(Generators, PointerChaseIsDeterministicForSeed) {
  WorkloadSpec spec;
  spec.num_blades = 1;
  spec.threads_per_blade = 2;
  spec.private_pages_per_thread = 256;
  spec.private_pattern = Pattern::kPointerChase;
  spec.accesses_per_thread = 500;
  const auto a = GenerateTraces(spec);
  const auto b = GenerateTraces(spec);
  for (size_t t = 0; t < a.threads.size(); ++t) {
    ASSERT_EQ(a.threads[t].ops.size(), b.threads[t].ops.size());
    for (size_t i = 0; i < a.threads[t].ops.size(); ++i) {
      ASSERT_EQ(a.threads[t].ops[i].page, b.threads[t].ops[i].page);
    }
  }
  // Different threads chase different permutations (per-thread seeding).
  bool differs = false;
  for (size_t i = 0; i < 100; ++i) {
    differs |= a.threads[0].ops[i].page != a.threads[1].ops[i].page;
  }
  EXPECT_TRUE(differs);
}

// FNV-1a over (segment, page, type) of every op of every thread, in thread order.
struct TraceDigest {
  uint64_t ops = 0;
  uint64_t fnv = 0xcbf29ce484222325ull;
};

TraceDigest DigestTraces(const WorkloadTraces& traces) {
  TraceDigest d;
  auto mix = [&d](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      d.fnv ^= (v >> (8 * i)) & 0xff;
      d.fnv *= 0x100000001b3ull;
    }
  };
  for (const auto& t : traces.threads) {
    for (const auto& op : t.ops) {
      mix(op.segment);
      mix(op.page);
      mix(static_cast<uint64_t>(op.type));
      ++d.ops;
    }
  }
  return d;
}

// Pins the generators' exact output across commits: DeterministicForSeed compares two
// runs of one binary, so only recorded values catch a change to what a spec produces.
TEST(Generators, PresetTraceDigestsMatchRecorded) {
  WorkloadSpec ma = MemcachedASpec(8, 2, 3000);
  ma.shared_pages = 8192;  // The contended Memcached-A shape.
  WorkloadSpec strided;
  strided.name = "strided";
  strided.num_blades = 2;
  strided.threads_per_blade = 2;
  strided.private_pages_per_thread = 997;
  strided.private_pattern = Pattern::kStrided;
  strided.stride_pages = 7;
  strided.shared_pages = 4096;
  strided.shared_pattern = Pattern::kStrided;
  strided.shared_access_fraction = 0.3;
  strided.shared_write_fraction = 0.2;
  strided.accesses_per_thread = 3000;
  WorkloadSpec chase;
  chase.name = "chase";
  chase.num_blades = 2;
  chase.threads_per_blade = 2;
  chase.private_pages_per_thread = 512;
  chase.private_pattern = Pattern::kPointerChase;
  chase.shared_pages = 1024;
  chase.shared_pattern = Pattern::kPointerChase;
  chase.shared_access_fraction = 0.5;
  chase.shared_write_fraction = 0.5;
  chase.accesses_per_thread = 3000;

  struct Case {
    const char* name;
    WorkloadSpec spec;
    uint64_t ops;
    uint64_t fnv;
  };
  const Case cases[] = {
      {"tf", TfSpec(4, 2, 3000), 24000, 0xa21f718f2e120d16ull},
      {"gc", GcSpec(4, 2, 3000), 24000, 0xfb0cd453fd47d37ull},
      {"mc", MemcachedCSpec(4, 2, 3000), 33571, 0xaee601354c13b2e6ull},
      {"kvs", NativeKvsSpec(4, 2, 0.5, 3000), 24000, 0x591fe54afe4ea65full},
      {"micro", MicroSpec(4, 0.5, 0.5, 400'000, 3000), 12000, 0xe22c2a189098767cull},
      {"ma_contended", ma, 67252, 0x61c0bb6ce0be7589ull},
      {"strided", strided, 12000, 0x699acaf125a90e37ull},
      {"chase", chase, 12000, 0x11798b107a74e35bull},
  };
  for (const Case& c : cases) {
    const TraceDigest d = DigestTraces(GenerateTraces(c.spec));
    EXPECT_EQ(d.ops, c.ops) << c.name;
    EXPECT_EQ(d.fnv, c.fnv) << c.name << " 0x" << std::hex << d.fnv;
  }
}

TEST(Generators, MicroFootprintMatchesTotalPages) {
  const auto traces = GenerateTraces(MicroSpec(8, 0.5, 0.5, 400'000, 100));
  // Shared + per-thread private partitions must roughly reassemble the working set.
  EXPECT_NEAR(static_cast<double>(traces.FootprintPages()), 400'000.0, 4000.0);
}

// --- Replay engine ------------------------------------------------------------------------

TEST(Replay, RunsToCompletionAndCounts) {
  RackConfig cfg;
  cfg.num_compute_blades = 2;
  cfg.num_memory_blades = 2;
  cfg.memory_blade_capacity = 1ull << 30;
  MindSystem sys(cfg);
  auto spec = MicroSpec(2, 0.5, 0.5, 2000, 500);
  const auto traces = GenerateTraces(spec);
  ReplayEngine engine(&sys, &traces);
  ASSERT_TRUE(engine.Setup().ok());
  const auto report = engine.Run();
  EXPECT_EQ(report.total_ops, traces.TotalOps());
  EXPECT_GT(report.makespan, 0u);
  EXPECT_GT(report.throughput_mops, 0.0);
  EXPECT_EQ(report.counters.total_accesses, report.total_ops);
  EXPECT_GT(report.counters.remote_accesses, 0u);
  EXPECT_EQ(report.latency_histogram.count(), report.total_ops);
}

TEST(Replay, SetupTwiceRejected) {
  FastSwapConfig cfg;
  FastSwapSystem sys(cfg);
  auto spec = MicroSpec(1, 1.0, 0.0, 1000, 100);
  const auto traces = GenerateTraces(spec);
  ReplayEngine engine(&sys, &traces);
  ASSERT_TRUE(engine.Setup().ok());
  EXPECT_FALSE(engine.Setup().ok());
}

TEST(Replay, SamplerFiresAtIntervals) {
  RackConfig cfg;
  cfg.num_compute_blades = 1;
  cfg.num_memory_blades = 1;
  MindSystem sys(cfg);
  auto spec = MicroSpec(1, 0.5, 0.0, 2000, 2000);
  const auto traces = GenerateTraces(spec);
  ReplayEngine engine(&sys, &traces);
  ASSERT_TRUE(engine.Setup().ok());
  int samples = 0;
  SimTime last = 0;
  const auto report = engine.Run(
      [&](SimTime now) {
        ++samples;
        EXPECT_GE(now, last);
        last = now;
      },
      kMillisecond);
  EXPECT_GT(samples, 0);
  EXPECT_LE(last, report.makespan);
}

// Parameterized smoke replay over every paper workload preset on MIND.
class WorkloadReplayTest : public ::testing::TestWithParam<const char*> {};

TEST_P(WorkloadReplayTest, ReplaysOnMind) {
  const std::string which = GetParam();
  WorkloadSpec spec;
  if (which == "TF") {
    spec = TfSpec(2, 2, 2000);
  } else if (which == "GC") {
    spec = GcSpec(2, 2, 2000);
  } else if (which == "MA") {
    spec = MemcachedASpec(2, 2, 2000);
  } else if (which == "MC") {
    spec = MemcachedCSpec(2, 2, 2000);
  } else {
    spec = NativeKvsSpec(2, 2, 0.5, 2000);
  }
  RackConfig cfg;
  cfg.num_compute_blades = 2;
  cfg.num_memory_blades = 2;
  cfg.memory_blade_capacity = 4ull << 30;
  cfg.compute_cache_bytes = 64ull << 20;
  MindSystem sys(cfg);
  const auto traces = GenerateTraces(spec);
  ReplayEngine engine(&sys, &traces);
  ASSERT_TRUE(engine.Setup().ok());
  const auto report = engine.Run();
  EXPECT_EQ(report.total_ops, traces.TotalOps());
  EXPECT_GT(report.throughput_mops, 0.0);
  // Shared writes (table or metadata) must exercise the coherence machinery on all
  // workloads except pure private ones.
  if (which != "TF") {
    EXPECT_GT(report.counters.invalidations, 0u) << which;
  }
}

INSTANTIATE_TEST_SUITE_P(PaperWorkloads, WorkloadReplayTest,
                         ::testing::Values("TF", "GC", "MA", "MC", "KVS"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace mind
