// Golden MIND coherence replays: Memcached-A at reduced scale (8 blades x 2 threads over
// shared zipfian pages, the paper rack with a 5 ms splitting epoch) under the kFifo and
// kWindowedMG1 fabrics, at 1 and 4 shards. Each run pins the makespan, the latency
// histogram summary, the RackStats transition/invalidation/flush counters, the
// bounded-splitting epochs/splits/merges, the summed fabric wait and the semantic trace
// digest. The values were recorded on the allocation-per-wave miss path (virtual queue
// models with a std::deque demand window, by-value invalidation vectors, a node-based
// DRAM-cache region index and an ordered splitting walk); the flat miss path must
// reproduce them exactly.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/baselines/mind_system.h"
#include "src/workload/generators.h"
#include "src/workload/replay.h"

namespace mind {
namespace {

struct CoherenceGolden {
  SimTime makespan = 0;
  uint64_t ops = 0;
  uint64_t latency_sum = 0;
  uint64_t latency_min = 0;
  uint64_t latency_max = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;
  uint64_t remote_accesses = 0;
  uint64_t i_to_s = 0;
  uint64_t i_to_m = 0;
  uint64_t s_to_s = 0;
  uint64_t s_to_m = 0;
  uint64_t m_stay = 0;
  uint64_t m_to_s = 0;
  uint64_t m_to_m = 0;
  uint64_t write_upgrades = 0;
  uint64_t invalidations_sent = 0;
  uint64_t pages_flushed = 0;
  uint64_t false_invalidations = 0;
  uint64_t clean_drops = 0;
  uint64_t evict_writebacks = 0;
  uint64_t capacity_evictions = 0;
  uint64_t epochs = 0;
  uint64_t splits = 0;
  uint64_t merges = 0;
  uint64_t fabric_wait = 0;
  uint64_t semantic_digest = 0;
};

WorkloadSpec MemcachedASmall() {
  WorkloadSpec s = MemcachedASpec(/*blades=*/8, /*threads_per_blade=*/2,
                                  /*accesses_per_thread=*/4000);
  s.shared_pages = 8192;
  s.seed = 17;
  return s;
}

// The paper rack (bench/bench_util.h's PaperRackConfig) with a smaller blade cache, so
// LRU evictions and their write-backs join the invalidation traffic.
RackConfig PaperLikeRack(QueueModelKind queue_model) {
  RackConfig c;
  c.num_compute_blades = 8;
  c.num_memory_blades = 8;
  c.memory_blade_capacity = 8ull << 30;
  c.compute_cache_bytes = 4ull << 20;
  c.directory_slots = 30000;
  c.tcam_rules = 45000;
  c.splitting.epoch_length = 5 * kMillisecond;
  c.fabric.queue_model = queue_model;
  return c;
}

CoherenceGolden GoldenRun(QueueModelKind queue_model, const WorkloadTraces& traces,
                          int shards) {
  MindSystem sys(PaperLikeRack(queue_model));
  ReplayOptions opts;
  opts.shards = shards;
  opts.trace = true;
  ReplayEngine engine(&sys, &traces, opts);
  EXPECT_TRUE(engine.Setup().ok());
  const ReplayReport report = engine.Run();
  const HistogramSummary h = report.latency_histogram.Summary();
  const RackStats& st = sys.rack().stats();
  const BoundedSplittingStats& sp = sys.rack().bounded_splitting().stats();
  CoherenceGolden g;
  g.makespan = report.makespan;
  g.ops = h.count;
  g.latency_sum = report.latency_histogram.sum();
  g.latency_min = h.min;
  g.latency_max = h.max;
  g.p50 = h.p50;
  g.p90 = h.p90;
  g.p99 = h.p99;
  g.p999 = h.p999;
  g.remote_accesses = st.remote_accesses;
  g.i_to_s = st.transitions_i_to_s;
  g.i_to_m = st.transitions_i_to_m;
  g.s_to_s = st.transitions_s_to_s;
  g.s_to_m = st.transitions_s_to_m;
  g.m_stay = st.transitions_m_stay;
  g.m_to_s = st.transitions_m_to_s;
  g.m_to_m = st.transitions_m_to_m;
  g.write_upgrades = st.write_upgrades;
  g.invalidations_sent = st.invalidations_sent;
  g.pages_flushed = st.pages_flushed;
  g.false_invalidations = st.false_invalidations;
  g.clean_drops = st.clean_drops;
  g.evict_writebacks = st.evict_writebacks;
  g.capacity_evictions = st.directory_capacity_evictions;
  g.epochs = sp.epochs;
  g.splits = sp.splits;
  g.merges = sp.merges;
  g.fabric_wait = st.breakdown_sums.fabric_wait;
  g.semantic_digest = engine.trace_scope()->SemanticDigest();
  return g;
}

void ExpectGolden(const CoherenceGolden& want, const CoherenceGolden& got) {
  EXPECT_EQ(want.makespan, got.makespan);
  EXPECT_EQ(want.ops, got.ops);
  EXPECT_EQ(want.latency_sum, got.latency_sum);
  EXPECT_EQ(want.latency_min, got.latency_min);
  EXPECT_EQ(want.latency_max, got.latency_max);
  EXPECT_EQ(want.p50, got.p50);
  EXPECT_EQ(want.p90, got.p90);
  EXPECT_EQ(want.p99, got.p99);
  EXPECT_EQ(want.p999, got.p999);
  EXPECT_EQ(want.remote_accesses, got.remote_accesses);
  EXPECT_EQ(want.i_to_s, got.i_to_s);
  EXPECT_EQ(want.i_to_m, got.i_to_m);
  EXPECT_EQ(want.s_to_s, got.s_to_s);
  EXPECT_EQ(want.s_to_m, got.s_to_m);
  EXPECT_EQ(want.m_stay, got.m_stay);
  EXPECT_EQ(want.m_to_s, got.m_to_s);
  EXPECT_EQ(want.m_to_m, got.m_to_m);
  EXPECT_EQ(want.write_upgrades, got.write_upgrades);
  EXPECT_EQ(want.invalidations_sent, got.invalidations_sent);
  EXPECT_EQ(want.pages_flushed, got.pages_flushed);
  EXPECT_EQ(want.false_invalidations, got.false_invalidations);
  EXPECT_EQ(want.clean_drops, got.clean_drops);
  EXPECT_EQ(want.evict_writebacks, got.evict_writebacks);
  EXPECT_EQ(want.capacity_evictions, got.capacity_evictions);
  EXPECT_EQ(want.epochs, got.epochs);
  EXPECT_EQ(want.splits, got.splits);
  EXPECT_EQ(want.merges, got.merges);
  EXPECT_EQ(want.fabric_wait, got.fabric_wait);
  EXPECT_EQ(want.semantic_digest, got.semantic_digest);
}

TEST(CoherenceGolden, MemcachedAFifoFabric) {
  const WorkloadTraces traces = GenerateTraces(MemcachedASmall());
  const CoherenceGolden want{
      /*makespan=*/277778762, /*ops=*/89569, /*latency_sum=*/4403575295,
      /*latency_min=*/80, /*latency_max=*/122754, /*p50=*/52224, /*p90=*/72704,
      /*p99=*/90112, /*p999=*/104448, /*remote_accesses=*/80832, /*i_to_s=*/1754,
      /*i_to_m=*/1906, /*s_to_s=*/11252, /*s_to_m=*/13953, /*m_stay=*/1401,
      /*m_to_s=*/14018, /*m_to_m=*/36548, /*write_upgrades=*/2499,
      /*invalidations_sent=*/71084, /*pages_flushed=*/48973, /*false_invalidations=*/4168,
      /*clean_drops=*/20711, /*evict_writebacks=*/290, /*capacity_evictions=*/0,
      /*epochs=*/55, /*splits=*/4136, /*merges=*/1677, /*fabric_wait=*/2032597060,
      /*semantic_digest=*/17660009137609269553ull};
  for (const int shards : {1, 4}) {
    SCOPED_TRACE(shards);
    ExpectGolden(want, GoldenRun(QueueModelKind::kFifo, traces, shards));
  }
}

TEST(CoherenceGolden, MemcachedAWindowedMG1Fabric) {
  const WorkloadTraces traces = GenerateTraces(MemcachedASmall());
  const CoherenceGolden want{
      /*makespan=*/99054559, /*ops=*/89569, /*latency_sum=*/1545963612,
      /*latency_min=*/80, /*latency_max=*/143204, /*p50=*/17664, /*p90=*/31744,
      /*p99=*/59392, /*p999=*/91136, /*remote_accesses=*/81358, /*i_to_s=*/1757,
      /*i_to_m=*/1903, /*s_to_s=*/11457, /*s_to_m=*/13983, /*m_stay=*/1704,
      /*m_to_s=*/13885, /*m_to_m=*/36669, /*write_upgrades=*/2293,
      /*invalidations_sent=*/71163, /*pages_flushed=*/49451, /*false_invalidations=*/7457,
      /*clean_drops=*/21188, /*evict_writebacks=*/157, /*capacity_evictions=*/0,
      /*epochs=*/19, /*splits=*/3692, /*merges=*/0, /*fabric_wait=*/3265106,
      /*semantic_digest=*/14019671949557880980ull};
  for (const int shards : {1, 4}) {
    SCOPED_TRACE(shards);
    ExpectGolden(want, GoldenRun(QueueModelKind::kWindowedMG1, traces, shards));
  }
}

}  // namespace
}  // namespace mind
