// The benchmark's decorator must be invisible to the simulation: on every workload, at
// 1 and 4 shards, a replay through TimedSystem produces the same ReplayReport and the
// same TraceScope semantic digest as a replay of the bare system, and the decorator sees
// every trace op retire exactly once. Run it under -fsanitize=thread too: the 4-shard
// replays drive the decorator's per-blade and per-shard slots from worker threads.
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "perfbench/timed_system.h"
#include "perfbench/workloads.h"
#include "src/workload/replay.h"

namespace perfbench {
namespace {

constexpr double kScale = 0.02;  // A few thousand to a few tens of thousands of ops.

struct Outcome {
  mind::ReplayReport report;
  uint64_t digest = 0;
};

Outcome Replay(mind::MemorySystem* system, const Workload& w,
               const mind::WorkloadTraces& traces, int shards) {
  mind::ReplayOptions opts;
  opts.shards = shards;
  opts.prefetch = w.prefetch;
  opts.trace = true;
  opts.force_threads = true;
  mind::ReplayEngine engine(system, &traces, opts);
  EXPECT_TRUE(engine.Setup().ok());
  Outcome out;
  out.report = engine.Run();
  out.digest = engine.trace_scope()->SemanticDigest();
  return out;
}

class DecoratorEquivalence : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(DecoratorEquivalence, SameReportAndDigest) {
  const Workload& w = *FindWorkload(std::get<0>(GetParam()));
  const int shards = std::get<1>(GetParam());
  const mind::WorkloadTraces traces = mind::GenerateTraces(w.spec(w.default_seed, kScale));

  auto bare = w.make_system();
  const Outcome plain = Replay(bare.get(), w, traces, shards);
  TimedSystem timed(w.make_system());
  timed.BeginRun();
  const Outcome decorated = Replay(&timed, w, traces, shards);
  timed.EndRun();

  const mind::ReplayReport& a = plain.report;
  const mind::ReplayReport& b = decorated.report;
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_TRUE(a.latency_histogram == b.latency_histogram);
  EXPECT_EQ(a.counters.total_accesses, b.counters.total_accesses);
  EXPECT_EQ(a.counters.local_hits, b.counters.local_hits);
  EXPECT_EQ(a.counters.remote_accesses, b.counters.remote_accesses);
  EXPECT_EQ(a.counters.invalidations, b.counters.invalidations);
  EXPECT_EQ(a.counters.pages_flushed, b.counters.pages_flushed);
  EXPECT_EQ(a.counters.false_invalidations, b.counters.false_invalidations);
  EXPECT_EQ(a.counters.breakdown_sums.fault, b.counters.breakdown_sums.fault);
  EXPECT_EQ(a.counters.breakdown_sums.network, b.counters.breakdown_sums.network);
  EXPECT_EQ(a.counters.breakdown_sums.inv_queue, b.counters.breakdown_sums.inv_queue);
  EXPECT_EQ(a.counters.breakdown_sums.inv_tlb, b.counters.breakdown_sums.inv_tlb);
  EXPECT_EQ(a.counters.breakdown_sums.fabric_wait, b.counters.breakdown_sums.fabric_wait);
  EXPECT_EQ(a.prefetch.issued, b.prefetch.issued);
  EXPECT_EQ(a.prefetch.useful, b.prefetch.useful);
  EXPECT_EQ(a.prefetch.late, b.prefetch.late);
  EXPECT_EQ(a.prefetch.evicted_unused, b.prefetch.evicted_unused);
  EXPECT_EQ(a.prefetch.discarded_stale, b.prefetch.discarded_stale);
  EXPECT_EQ(a.prefetch.rearmed, b.prefetch.rearmed);
  EXPECT_EQ(a.prefetch.throttled, b.prefetch.throttled);
  EXPECT_TRUE(a.fault == b.fault);
  EXPECT_EQ(plain.digest, decorated.digest);

  // The decorator saw every op retire exactly once, and nothing failed.
  ASSERT_EQ(timed.ops_retired().size(), traces.threads.size());
  for (size_t t = 0; t < traces.threads.size(); ++t) {
    EXPECT_EQ(timed.ops_retired()[t], traces.threads[t].ops.size()) << "thread " << t;
  }
  const SlotStats total = timed.Totals();
  EXPECT_EQ(total.access_failed, 0u);
  EXPECT_EQ(total.calls[static_cast<int>(Call::kRun)], 1u);
  EXPECT_GT(total.calls[static_cast<int>(Call::kAccess)], 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, DecoratorEquivalence,
    ::testing::Combine(::testing::Values("resident", "gam_contended", "ma_contended",
                                         "swap_stream"),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<DecoratorEquivalence::ParamType>& info) {
      return std::get<0>(info.param) + "_" + std::to_string(std::get<1>(info.param)) +
             "shard";
    });

}  // namespace
}  // namespace perfbench
