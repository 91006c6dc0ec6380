// End-to-end replay wall-clock throughput: how fast the *simulator* replays a figure-scale
// workload, serial vs sharded. This is the harness-performance companion to the per-op
// microbenchmarks — ns/op of the whole replay loop (trace decode, clock merge, access
// pipeline, histogramming), not of one isolated structure — so regressions in the replay
// engine itself are tracked across PRs, not just hot-path structure regressions.
//
// Compared configurations, all replaying the identical trace on identical racks:
//   serial-1shard     — the per-op reference path (use_channels = false: global min-heap,
//                       one virtual Access per op — the pre-channel serial engine).
//   sharded-{1,2,4,8} — the AccessChannel engine at increasing shard counts (results are
//                       bit-identical to serial by construction; only wall-clock moves).
//
// Appends `FigReplayWallclock/*` entries (ns/op over total replayed ops) to the
// MIND_BENCH_JSON trajectory. `--shards=N` runs one extra sharded point. Scale the trace
// with MIND_BENCH_SCALE.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace mind {
namespace {

struct Timed {
  ReplayReport report;
  std::string registry_text;  // Unified metrics snapshot (src/obs/metrics_registry.h).
  double wall_ns = 0.0;
  uint64_t parallel_hits = 0;
  uint64_t grouped_ops = 0;
  uint64_t drained_ops = 0;
};

void CollectShards(ReplayEngine& engine, Timed* out) {
  for (const ShardReport& sr : engine.shard_reports()) {
    out->parallel_hits += sr.parallel_hits;
    out->grouped_ops += sr.grouped_ops;
    out->drained_ops += sr.drained_ops;
  }
  std::ostringstream os;
  engine.metrics()->ExportText(os);
  out->registry_text = os.str();
}

// Headline series: the shape sharded replay targets — multi-blade, cache-resident
// per-blade working sets with an occasional cross-blade coherence event (the Fig. 5 right
// "scalable" regime: native-KVS-like partitioned state, TF-like private compute). Once
// warm, >99% of ops are blade-local hits, so the harness — not the simulated switch — is
// the bottleneck, which is exactly what the refactor attacks.
WorkloadSpec HotSpec() {
  WorkloadSpec s;
  s.name = "blade-resident";
  s.num_blades = 8;
  s.threads_per_blade = 1;
  s.private_pages_per_thread = 1024;
  s.private_pattern = Pattern::kUniform;
  s.private_write_fraction = 0.5;
  s.accesses_per_thread = bench::ScaledOps(1'500'000);
  s.think_time = 200;
  s.seed = 7;
  return s;
}

// Counterpoint series: TF is coherence-dense (an invalidation or upgrade crosses shard
// ownership every few tens of globally-ordered ops), so the serialized drain dominates
// and sharding cannot help much — reported so the trajectory tracks both regimes
// honestly.
WorkloadSpec CoherenceBoundSpec() {
  return TfSpec(/*blades=*/8, /*threads_per_blade=*/1, bench::ScaledOps(150'000));
}

// Channel-group series: GAM with heavy intra-blade contention — 4 threads per blade all
// queue on the per-blade library lock, so per-thread channels can only lower-bound hit
// latencies and (pre-groups) every committed op paid a virtual Commit +
// FifoResource::Acquire round-trip. The per-blade ChannelGroup replays the merged lock
// queue once per round instead; this series is the regression guard for that path.
WorkloadSpec GamContendedSpec() {
  WorkloadSpec s;
  s.name = "gam-contended";
  s.num_blades = 4;
  s.threads_per_blade = 4;
  s.private_pages_per_thread = 2000;
  s.private_pattern = Pattern::kUniform;
  s.private_write_fraction = 0.5;
  s.shared_pages = 512;
  s.shared_access_fraction = 0.02;
  s.shared_write_fraction = 0.2;
  s.accesses_per_thread = bench::ScaledOps(250'000);
  s.think_time = 200;
  s.seed = 11;
  return s;
}

using SystemFactory = std::unique_ptr<MemorySystem> (*)();

std::unique_ptr<MemorySystem> MakeMind8() { return bench::MakeMind(8); }
std::unique_ptr<MemorySystem> MakeGam4() {
  return std::make_unique<GamSystem>(bench::PaperGamConfig(4));
}

Timed RunSerial(const WorkloadTraces& traces, SystemFactory make_system) {
  auto sys = make_system();
  ReplayOptions opts;
  opts.use_channels = false;  // Per-op reference path: one virtual Access per op.
  ReplayEngine engine(sys.get(), &traces, opts);
  (void)engine.Setup();
  const auto t0 = std::chrono::steady_clock::now();
  Timed out;
  out.report = engine.Run();
  out.wall_ns = std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
                    .count();
  CollectShards(engine, &out);
  return out;
}

Timed RunSharded(const WorkloadTraces& traces, int shards, SystemFactory make_system) {
  auto sys = make_system();
  ReplayOptions opts;
  opts.shards = shards;
  ReplayEngine engine(sys.get(), &traces, opts);
  (void)engine.Setup();
  const auto t0 = std::chrono::steady_clock::now();
  Timed out;
  out.report = engine.Run();
  out.wall_ns = std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
                    .count();
  CollectShards(engine, &out);
  return out;
}

}  // namespace
}  // namespace mind

int main(int argc, char** argv) {
  using namespace mind;
  std::vector<bench::BenchResult> results;

  auto run_series = [&](const std::string& tag, const WorkloadTraces& traces,
                        const std::vector<int>& shard_points, SystemFactory make_system) {
    const uint64_t ops = traces.TotalOps();
    std::printf("\nReplay wall-clock throughput — %s (%s), %llu ops, %d blades\n",
                tag.c_str(), traces.name.c_str(), static_cast<unsigned long long>(ops),
                traces.num_blades);
    std::printf("(simulator performance; simulated-time results are bit-identical across "
                "rows)\n");
    TablePrinter table({"config", "wall ms", "ns/op", "Mops/s wall", "parallel hits",
                        "grouped", "drained", "sim ms"});
    table.PrintHeader();
    Timed last;
    auto add = [&](const std::string& name, Timed t) {
      const double ns_per_op = t.wall_ns / static_cast<double>(ops);
      table.PrintRow(name, TablePrinter::Fmt(t.wall_ns / 1e6, 1),
                     TablePrinter::Fmt(ns_per_op, 1), TablePrinter::Fmt(1e3 / ns_per_op, 2),
                     t.parallel_hits, t.grouped_ops, t.drained_ops,
                     TablePrinter::Fmt(ToMillis(t.report.makespan), 2));
      results.push_back(
          bench::BenchResult{"FigReplayWallclock/" + tag + "/" + name, ns_per_op, ops});
      last = std::move(t);
    };
    add("serial-1shard", RunSerial(traces, make_system));
    for (const int shards : shard_points) {
      add("sharded-" + std::to_string(shards) + "shard",
          RunSharded(traces, shards, make_system));
    }
    // Every per-run counter this table summarizes is also published through the unified
    // registry; one snapshot per series (the last sharded point) keeps the full detail
    // in the log without hand-rolled counter prints.
    std::printf("registry snapshot (%s, final sharded run):\n%s", tag.c_str(),
                last.registry_text.c_str());
  };

  std::vector<int> shard_points = {1, 2, 4, 8};
  if (const int extra = bench::ShardsFromArgs(argc, argv, 0);
      extra > 0 && std::find(shard_points.begin(), shard_points.end(), extra) ==
                       shard_points.end()) {
    shard_points.push_back(extra);
  }
  {
    const WorkloadTraces traces = GenerateTraces(HotSpec());
    run_series("blade_resident", traces, shard_points, MakeMind8);
  }
  {
    const WorkloadTraces traces = GenerateTraces(CoherenceBoundSpec());
    run_series("tf_coherence_bound", traces, shard_points, MakeMind8);
  }
  {
    // 4 blades: shard counts past 4 clamp to 4, so the series stops there.
    const WorkloadTraces traces = GenerateTraces(GamContendedSpec());
    run_series("gam_contended", traces, {1, 2, 4}, MakeGam4);
  }
  bench::AppendTrajectoryEntry(results, "fig-replay-wallclock");
  return 0;
}
