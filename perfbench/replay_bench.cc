// Replay benchmark: end-to-end host and simulated metrics of one workload, or (with
// --trace 1) its per-layer metrics from a separate traced run.
//
//   replay_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                [--out DIR] [--git SHA]
//
// --trace 0 replays the workload at 1 shard for S seconds, each replay on a freshly
// built system (so the modelled caches start empty), with tracing and profiling off, and
// reports the median host ns/op, the setup time, the peak resident set and the simulated
// ns/op. --trace 1 alternates untraced and traced replays (decorated system,
// PhaseProfiler and TraceScope on) at 1 and at 4 shards and reports the per-layer
// metrics, the simulated latency percentiles, the tracing overhead and the layer budget
// of Run's wall time. Either way every simulated result must be identical across all
// replays and both shard counts, and every trace op must retire exactly once; a failed
// check makes the result `"correct": false` and the exit code 1.
//
// The last stdout line is the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/span_report.h"
#include "perfbench/timed_system.h"
#include "perfbench/workloads.h"
#include "src/workload/replay.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using mind::Histogram;
using mind::PhaseProfiler;
using mind::ReplayEngine;
using mind::ReplayOptions;
using mind::ReplayReport;
using mind::ShardReport;
using mind::WorkloadTraces;

constexpr int kWideShards = 4;        // The multi-shard point: nproc of the 4-core sizing host.
constexpr int kGenerations = 9;       // Trace generations per run (setup medians).
constexpr size_t kMinTimedReplays = 5;  // Even past --seconds.
constexpr size_t kMaxSpansWritten = 50'000;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  bool seed_set = false;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".bench_build/out";
  std::string git = "unknown";
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "replay_bench: %s\nusage: replay_bench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--out DIR] [--git SHA]\n",
               why.c_str());
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      a.seed_set = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      a.trace = std::atoi(value.c_str());
    } else if (flag == "--out") {
      a.out_dir = value;
    } else if (flag == "--git") {
      a.git = value;
    } else {
      Usage("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') {
      Usage("bad value for " + flag + ": " + value);
    }
  }
  if (FindWorkload(a.workload) == nullptr) {
    Usage("unknown workload \"" + a.workload + "\"");
  }
  if (!(a.seconds > 0.0) || (a.trace != 0 && a.trace != 1)) {
    Usage("--seconds must be positive, --trace 0 or 1");
  }
  return a;
}

// --- Output checks ------------------------------------------------------------

std::vector<std::string> g_failures;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("CHECK FAILED: %s\n", what.c_str());
    g_failures.push_back(what);
  }
}

// Every trace op retires exactly once, and the report's counters agree on it.
void CheckConservation(const ReplayReport& r, uint64_t ops, const std::string& what) {
  Expect(r.total_ops == ops, what + ": total_ops != trace ops");
  Expect(r.latency_histogram.count() == ops, what + ": histogram count != trace ops");
  Expect(r.counters.total_accesses == ops, what + ": counters.total_accesses != trace ops");
  Expect(r.counters.local_hits + r.counters.remote_accesses == ops,
         what + ": local_hits + remote_accesses != trace ops");
}

// The simulated result: makespan, histogram, counter block and prefetch stats.
bool SameSimResult(const ReplayReport& a, const ReplayReport& b) {
  const mind::SystemCounters& x = a.counters;
  const mind::SystemCounters& y = b.counters;
  const mind::LatencyBreakdown& bx = x.breakdown_sums;
  const mind::LatencyBreakdown& by = y.breakdown_sums;
  const mind::PrefetchStats& p = a.prefetch;
  const mind::PrefetchStats& q = b.prefetch;
  return a.makespan == b.makespan && a.total_ops == b.total_ops &&
         a.latency_histogram == b.latency_histogram &&
         x.total_accesses == y.total_accesses && x.local_hits == y.local_hits &&
         x.remote_accesses == y.remote_accesses && x.invalidations == y.invalidations &&
         x.pages_flushed == y.pages_flushed &&
         x.false_invalidations == y.false_invalidations && bx.fault == by.fault &&
         bx.network == by.network && bx.inv_queue == by.inv_queue &&
         bx.inv_tlb == by.inv_tlb && bx.fabric_wait == by.fabric_wait &&
         p.issued == q.issued && p.useful == q.useful && p.late == q.late &&
         p.evicted_unused == q.evicted_unused && p.discarded_stale == q.discarded_stale &&
         p.rearmed == q.rearmed && p.throttled == q.throttled && a.fault == b.fault;
}

bool SameTraces(const WorkloadTraces& a, const WorkloadTraces& b) {
  if (a.threads.size() != b.threads.size() || a.segments.size() != b.segments.size() ||
      a.think_time != b.think_time || a.num_blades != b.num_blades) {
    return false;
  }
  for (size_t s = 0; s < a.segments.size(); ++s) {
    if (a.segments[s].pages != b.segments[s].pages) {
      return false;
    }
  }
  for (size_t t = 0; t < a.threads.size(); ++t) {
    const auto& x = a.threads[t].ops;
    const auto& y = b.threads[t].ops;
    if (x.size() != y.size()) {
      return false;
    }
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i].segment != y[i].segment || x[i].page != y[i].page || x[i].type != y[i].type) {
        return false;
      }
    }
  }
  return true;
}

// --- Statistics ---------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// --- Metrics ------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// --- One replay -----------------------------------------------------------------

enum class Mode {
  kPlain,    // Undecorated, tracing and profiling off: the end-to-end measurement.
  kChecked,  // Decorated only: counts failed ops and per-thread retirements.
  kTraced,   // Decorated, PhaseProfiler and TraceScope on: the per-layer measurement.
};

struct Replay {
  ReplayReport report;
  int effective_shards = 0;
  double construct_s = 0.0;
  double setup_s = 0.0;
  double run_s = 0.0;
  uint64_t failed_ops = 0;      // Decorated modes only.
  uint64_t semantic_digest = 0;  // Traced mode only.
  Metrics layer;                // Traced mode only.
  LayerBudget budget;           // Traced mode only.
};

struct Generated {
  WorkloadTraces traces;
  double gen_s = 0.0;
};

Generated Generate(const Workload& w, uint64_t seed) {
  Generated g;
  const auto t0 = std::chrono::steady_clock::now();
  g.traces = mind::GenerateTraces(w.spec(seed, 1.0));
  g.gen_s = SecondsSince(t0);
  return g;
}

// Lane metrics (suffixed per shard count) from the profiler, the shard reports and the
// decorator's retirement counts.
void AddLaneMetrics(const ReplayEngine& engine, const TimedSystem& timed, double run_ms,
                    uint64_t ops, const std::string& suffix, Metrics* m) {
  const PhaseProfiler* prof = engine.profiler();
  uint64_t phase_ns[PhaseProfiler::kNumPhases] = {};
  for (size_t l = 0; l < prof->num_lanes(); ++l) {
    for (int p = 0; p < PhaseProfiler::kNumPhases; ++p) {
      phase_ns[p] += prof->lane(l).total_ns[p];
    }
  }
  const uint64_t barriers = prof->lane(prof->serial_lane())
                                .count[static_cast<int>(PhaseProfiler::Phase::kBarrierWait)];
  auto ms = [&](PhaseProfiler::Phase p) {
    return static_cast<double>(phase_ns[static_cast<int>(p)]) / 1e6;
  };
  uint64_t parallel = 0;
  uint64_t grouped = 0;
  uint64_t drained = 0;
  uint64_t owner_drained = 0;
  for (const ShardReport& sr : engine.shard_reports()) {
    parallel += sr.parallel_hits;
    grouped += sr.grouped_ops;
    drained += sr.drained_ops;
    owner_drained += sr.owner_drained;
  }
  const SlotStats total = timed.Totals();
  uint64_t coordinator_ns = 0;  // Decorated calls on the thread that called Run.
  for (int c = 0; c < kNumCalls; ++c) {
    if (c != static_cast<int>(Call::kRun)) {
      coordinator_ns += total.coordinator_ns[c];
    }
  }
  const double n = static_cast<double>(ops);
  const std::string p = "workload.replay.";
  (*m)[p + "scan_ms" + suffix] = {ms(PhaseProfiler::Phase::kScan), "ms"};
  (*m)[p + "commit_ms" + suffix] = {ms(PhaseProfiler::Phase::kCommit), "ms"};
  (*m)[p + "serial_drain_ms" + suffix] = {ms(PhaseProfiler::Phase::kSerialDrain), "ms"};
  (*m)[p + "owner_drain_ms" + suffix] = {ms(PhaseProfiler::Phase::kOwnerDrain), "ms"};
  (*m)[p + "barrier_wait_ms" + suffix] = {ms(PhaseProfiler::Phase::kBarrierWait), "ms"};
  (*m)[p + "barriers" + suffix] = {static_cast<double>(barriers), "count"};
  (*m)[p + "self_ms" + suffix] = {run_ms - static_cast<double>(coordinator_ns) / 1e6, "ms"};
  (*m)[p + "parallel_hit_frac" + suffix] = {Ratio(static_cast<double>(parallel), n), "ratio"};
  (*m)[p + "grouped_frac" + suffix] = {Ratio(static_cast<double>(grouped), n), "ratio"};
  (*m)[p + "owner_drained_frac" + suffix] = {
      Ratio(static_cast<double>(owner_drained), static_cast<double>(drained)), "ratio"};
  (*m)[p + "drained_hit_frac" + suffix] = {
      Ratio(static_cast<double>(total.drained_hits), static_cast<double>(drained)), "ratio"};
}

// `baselines` and `core` metrics from the decorator's totals.
void AddCallMetrics(const SlotStats& t, Metrics* m) {
  auto calls = [&](Call c) { return static_cast<double>(t.calls[static_cast<int>(c)]); };
  auto ms = [&](Call c) { return static_cast<double>(t.ns[static_cast<int>(c)]) / 1e6; };
  (*m)["baselines.access.calls"] = {calls(Call::kAccess), "count"};
  (*m)["baselines.access.ms"] = {ms(Call::kAccess), "ms"};
  (*m)["baselines.access.host_ns_p50"] = {
      static_cast<double>(t.access_host_ns.Percentile(0.5)), "ns"};
  (*m)["baselines.access.host_ns_p999"] = {
      static_cast<double>(t.access_host_ns.Percentile(0.999)), "ns"};
  (*m)["baselines.access.failed"] = {static_cast<double>(t.access_failed), "count"};
  (*m)["core.channel.submit_calls"] = {calls(Call::kSubmit), "count"};
  (*m)["core.channel.submit_ms"] = {ms(Call::kSubmit), "ms"};
  (*m)["core.channel.commit_ms"] = {ms(Call::kCommit), "ms"};
  (*m)["core.channel.runvalid_fail_frac"] = {
      Ratio(static_cast<double>(t.runvalid_false), calls(Call::kRunValid)), "ratio"};
  (*m)["core.channel.accept_frac"] = {
      Ratio(static_cast<double>(t.submit_accepted), static_cast<double>(t.submit_offered)),
      "ratio"};
  (*m)["core.channel.resubmit_ratio"] = {
      Ratio(static_cast<double>(t.submit_accepted),
            static_cast<double>(t.channel_committed + t.group_committed)),
      "ratio"};
  (*m)["core.group.validmask_ms"] = {ms(Call::kValidMask), "ms"};
  (*m)["core.group.commit_calls"] = {calls(Call::kCommitMerged), "count"};
  (*m)["core.group.commit_ms"] = {ms(Call::kCommitMerged), "ms"};
  (*m)["core.group.ops_per_commit"] = {
      Ratio(static_cast<double>(t.group_committed), calls(Call::kCommitMerged)), "ops"};
}

// Owner-parallel drain calls only happen in threaded phases, so these come from the
// multi-shard traced run.
void AddOwnerMetrics(const SlotStats& t, Metrics* m) {
  const double eligible = static_cast<double>(t.calls[static_cast<int>(Call::kEligible)]);
  (*m)["baselines.owner.eligible_calls"] = {eligible, "count"};
  (*m)["baselines.owner.eligible_true_frac"] = {
      Ratio(static_cast<double>(t.eligible_true), eligible), "ratio"};
  (*m)["baselines.owner.access_owned_ms"] = {
      static_cast<double>(t.ns[static_cast<int>(Call::kAccessOwned)]) / 1e6, "ms"};
}

double RegistryValue(mind::MetricsRegistry* reg, const std::string& name) {
  const mind::MetricsRegistry::Entry* e = reg->Find(name);
  if (e == nullptr) {
    return 0.0;
  }
  return e->kind == mind::MetricsRegistry::Kind::kGauge ? e->gauge
                                                        : static_cast<double>(e->counter);
}

// Simulated-rack layers: blade, dataplane, controlplane, net, prefetch. Deterministic for
// a seed, so they compare exactly between commits.
void AddModelMetrics(const ReplayReport& r, mind::MetricsRegistry* reg, int compute_blades,
                     Metrics* m) {
  const double n = static_cast<double>(r.total_ops);
  const mind::SystemCounters& c = r.counters;
  auto per_op = [&](uint64_t v) { return Ratio(static_cast<double>(v), n); };
  (*m)["blade.local_hit_frac"] = {per_op(c.local_hits), "ratio"};
  (*m)["blade.remote_per_op"] = {per_op(c.remote_accesses), "1/op"};
  (*m)["blade.pages_flushed_per_op"] = {per_op(c.pages_flushed), "1/op"};
  // MIND counts eviction write-backs separately; the baselines publish only
  // pages_flushed, which on FastSwap is exactly its eviction write-backs.
  const bool has_rack = reg->Find("system/rack/evict_writebacks") != nullptr;
  (*m)["blade.evict_writebacks"] = {
      has_rack ? RegistryValue(reg, "system/rack/evict_writebacks")
               : static_cast<double>(c.pages_flushed),
      "count"};
  (*m)["blade.fault_ns_per_op"] = {per_op(c.breakdown_sums.fault), "ns"};
  (*m)["blade.inv_queue_ns_per_op"] = {per_op(c.breakdown_sums.inv_queue), "ns"};
  (*m)["blade.inv_tlb_ns_per_op"] = {per_op(c.breakdown_sums.inv_tlb), "ns"};

  for (const char* t : {"i_to_s", "i_to_m", "s_to_m", "m_to_s", "m_to_m"}) {
    (*m)[std::string("dataplane.transitions.") + t] = {
        RegistryValue(reg, std::string("system/rack/transitions/") + t), "count"};
  }
  (*m)["dataplane.write_upgrades"] = {RegistryValue(reg, "system/rack/write_upgrades"),
                                     "count"};
  (*m)["dataplane.directory_capacity_evictions"] = {
      RegistryValue(reg, "system/rack/directory_capacity_evictions"), "count"};
  for (const char* s : {"epochs", "splits", "merges"}) {
    (*m)[std::string("controlplane.splitting.") + s] = {
        RegistryValue(reg, std::string("system/splitting/") + s), "count"};
  }

  (*m)["net.invalidations_per_op"] = {per_op(c.invalidations), "1/op"};
  (*m)["net.false_invalidations_per_op"] = {per_op(c.false_invalidations), "1/op"};
  (*m)["net.multicast_operations"] = {
      RegistryValue(reg, "system/fabric/multicast_operations"), "count"};
  // Sum/max over every fabric queue the registry publishes: the compute and memory port
  // directions and the two switch stages.
  std::vector<std::string> queues;
  for (int b = 0; b < compute_blades; ++b) {
    queues.push_back("system/fabric/port/compute" + std::to_string(b) + "/tx");
    queues.push_back("system/fabric/port/compute" + std::to_string(b) + "/rx");
  }
  for (int b = 0; reg->Find("system/fabric/port/memory" + std::to_string(b) + "/tx/jobs");
       ++b) {
    queues.push_back("system/fabric/port/memory" + std::to_string(b) + "/tx");
    queues.push_back("system/fabric/port/memory" + std::to_string(b) + "/rx");
  }
  queues.push_back("system/fabric/switch/pipeline");
  queues.push_back("system/fabric/switch/recirculation");
  double jobs = 0.0;
  double wait = 0.0;
  double max_util = 0.0;
  for (const std::string& q : queues) {
    jobs += RegistryValue(reg, q + "/jobs");
    wait += RegistryValue(reg, q + "/wait_ns");
    max_util = std::max(max_util, RegistryValue(reg, q + "/utilization"));
  }
  (*m)["net.fabric.jobs"] = {jobs, "count"};
  (*m)["net.fabric.wait_ns"] = {wait, "ns"};
  (*m)["net.fabric.max_port_utilization"] = {max_util, "ratio"};
  (*m)["net.network_ns_per_op"] = {per_op(c.breakdown_sums.network), "ns"};
  (*m)["net.fabric_wait_ns_per_op"] = {per_op(c.breakdown_sums.fabric_wait), "ns"};

  const mind::PrefetchStats& p = r.prefetch;
  (*m)["prefetch.issued"] = {static_cast<double>(p.issued), "count"};
  (*m)["prefetch.late"] = {static_cast<double>(p.late), "count"};
  (*m)["prefetch.evicted_unused"] = {static_cast<double>(p.evicted_unused), "count"};
  (*m)["prefetch.throttled"] = {static_cast<double>(p.throttled), "count"};
  (*m)["prefetch.accuracy"] = {p.Accuracy(), "ratio"};
  (*m)["prefetch.coverage"] = {r.PrefetchCoverage(), "ratio"};
}

Replay RunReplay(const Workload& w, const WorkloadTraces& traces, int shards, Mode mode,
                 const std::string& trace_prefix) {
  Replay out;
  const uint64_t ops = traces.TotalOps();
  const std::string what = w.name + " " + std::to_string(shards) + "-shard " +
                           (mode == Mode::kPlain ? "replay" : "decorated replay");

  auto t0 = std::chrono::steady_clock::now();
  std::unique_ptr<mind::MemorySystem> system = w.make_system();
  TimedSystem* timed = nullptr;
  if (mode != Mode::kPlain) {
    auto wrapped = std::make_unique<TimedSystem>(std::move(system));
    timed = wrapped.get();
    system = std::move(wrapped);
  }
  out.construct_s = SecondsSince(t0);

  ReplayOptions opts;
  opts.shards = shards;
  opts.prefetch = w.prefetch;
  opts.profile = mode == Mode::kTraced;
  opts.trace = mode == Mode::kTraced;
  ReplayEngine engine(system.get(), &traces, opts);
  t0 = std::chrono::steady_clock::now();
  const mind::Status s = engine.Setup();
  out.setup_s = SecondsSince(t0);
  if (!s.ok()) {
    Expect(false, what + ": Setup failed: " + s.ToString());
    return out;
  }

  if (timed != nullptr) {
    timed->BeginRun();
  }
  t0 = std::chrono::steady_clock::now();
  out.report = engine.Run();
  out.run_s = SecondsSince(t0);
  if (timed != nullptr) {
    timed->EndRun();
  }
  out.effective_shards = engine.effective_shards();
  CheckConservation(out.report, ops, what);
  if (timed == nullptr) {
    return out;
  }

  // Decorated: the calls seen must account for every op exactly once.
  const SlotStats total = timed->Totals();
  out.failed_ops = total.access_failed;
  uint64_t parallel = 0;
  uint64_t drained = 0;
  for (const ShardReport& sr : engine.shard_reports()) {
    parallel += sr.parallel_hits;
    drained += sr.drained_ops;
  }
  Expect(total.channel_committed + total.group_committed == parallel,
         what + ": decorated commits != engine parallel hits");
  Expect(total.calls[static_cast<int>(Call::kAccess)] +
                 total.calls[static_cast<int>(Call::kAccessOwned)] ==
             drained,
         what + ": decorated Access calls != engine drained ops");
  for (size_t t = 0; t < traces.threads.size(); ++t) {
    Expect(timed->ops_retired()[t] == traces.threads[t].ops.size(),
           what + ": thread " + std::to_string(t) + " did not retire each op exactly once");
  }
  if (mode != Mode::kTraced) {
    return out;
  }

  const mind::TraceScope* scope = engine.trace_scope();
  out.semantic_digest = scope->SemanticDigest();
  const double run_ms = static_cast<double>(timed->run_end_ns() - timed->run_start_ns()) / 1e6;
  const std::string suffix = shards == 1 ? "" : ".4shard";
  AddLaneMetrics(engine, *timed, run_ms, ops, suffix, &out.layer);
  if (shards == 1) {
    AddCallMetrics(total, &out.layer);
    AddModelMetrics(out.report, engine.metrics(), timed->num_compute_blades(), &out.layer);
    out.layer["obs.semantic_events"] = {static_cast<double>(scope->semantic_events()), "count"};
    out.layer["obs.trace_dropped"] = {static_cast<double>(scope->dropped()), "count"};
  } else {
    AddOwnerMetrics(total, &out.layer);
  }
  const SpanTree tree(*timed, engine.profiler(), out.effective_shards);
  out.budget = tree.Budget();
  if (!trace_prefix.empty()) {
    const std::string spans_path = trace_prefix + ".spans.json";
    const std::string scope_path = trace_prefix + ".scope.json";
    Expect(tree.WriteChromeJson(spans_path, kMaxSpansWritten), "cannot write " + spans_path);
    Expect(scope->WriteChromeJsonFile(scope_path, engine.profiler()),
           "cannot write " + scope_path);
    std::printf("trace files: %s %s\n", spans_path.c_str(), scope_path.c_str());
  }
  return out;
}

void PrintBudget(const std::string& label, const LayerBudget& b) {
  auto ms = [](uint64_t ns) { return static_cast<double>(ns) / 1e6; };
  std::printf("layer budget (%s; thread calling Run): Run %.3f ms =", label.c_str(),
              ms(b.run_ns));
  for (int p = 0; p < LayerBudget::kPhases; ++p) {
    if (b.phase_ns[p] == 0) {
      continue;
    }
    const uint64_t decorated = b.phase_baselines_ns[p] + b.phase_core_ns[p];
    std::printf(" %s %.3f [baselines %.3f, core %.3f, workload %.3f] +",
                PhaseProfiler::PhaseName(static_cast<PhaseProfiler::Phase>(p)),
                ms(b.phase_ns[p]), ms(b.phase_baselines_ns[p]), ms(b.phase_core_ns[p]),
                ms(b.phase_ns[p] > decorated ? b.phase_ns[p] - decorated : 0));
  }
  std::printf(" calls before the first round %.3f + %s %.3f ms (%.2f%% unexplained)\n",
              ms(b.outside_decorated_ns),
              b.nested_exact ? "residual" : "barrier waits outside drains and residual",
              static_cast<double>(b.residual_ns) / 1e6,
              100.0 * static_cast<double>(b.residual_ns) / static_cast<double>(b.run_ns));
  if (b.nested_barrier_ns != 0) {
    std::printf("  (serial-drain includes %s%.3f ms of barrier waits closing owner-parallel "
                "sub-rounds)\n",
                b.nested_exact ? "" : "at least ", ms(b.nested_barrier_ns));
  }
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand.erase(std::find(brand.begin(), brand.end(), '\0'), brand.end());
    const size_t first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("GCC ") + __VERSION__;
#else
  return "unknown";
#endif
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB.
}

void PrintResult(uint64_t attempted, uint64_t failed, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += g_failures.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    out += (first ? "" : ", ") + std::string("\"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload& w = *FindWorkload(args.workload);
  const uint64_t seed = args.seed_set ? args.seed : w.default_seed;

  // Setup: generate the traces several times (the generator must be deterministic).
  std::vector<double> gen_s;
  Generated first = Generate(w, seed);
  gen_s.push_back(first.gen_s);
  for (int g = 1; g < kGenerations; ++g) {
    Generated again = Generate(w, seed);
    gen_s.push_back(again.gen_s);
    Expect(SameTraces(first.traces, again.traces), "trace generation is not deterministic");
  }
  const WorkloadTraces& traces = first.traces;
  const uint64_t ops = traces.TotalOps();
  std::printf("workload %s: seed %llu, %llu ops, %d blades x %zu threads, think %llu ns; "
              "closed loop, caches start empty, model unvalidated (no accuracy figure)\n",
              w.name.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(ops), traces.num_blades,
              traces.threads.size() / static_cast<size_t>(traces.num_blades),
              static_cast<unsigned long long>(traces.think_time));
  std::fflush(stdout);

  std::vector<double> construct_s;
  std::vector<double> setup_s;
  auto note_setup = [&](const Replay& r) {
    construct_s.push_back(r.construct_s);
    setup_s.push_back(r.setup_s);
  };
  auto check_same = [&](const Replay& r, const ReplayReport& ref, const std::string& what) {
    Expect(SameSimResult(r.report, ref), what + ": simulated result differs from reference");
  };

  Metrics metrics;  // The result object's metrics.
  Metrics printed;  // Also printed by name, but carried by the other mode's result.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int effective_wide = 0;
  auto add_sim_metrics = [&](const ReplayReport& rep, Metrics* m) {
    const Histogram& h = rep.latency_histogram;
    (*m)["sim_ns_per_op"] = {
        static_cast<double>(rep.makespan) / static_cast<double>(rep.total_ops), "ns"};
    (*m)["sim_p50_ns"] = {static_cast<double>(h.Percentile(0.50)), "ns"};
    (*m)["sim_p99_ns"] = {static_cast<double>(h.Percentile(0.99)), "ns"};
    (*m)["sim_p9999_ns"] = {static_cast<double>(h.Percentile(0.9999)), "ns"};
  };
  auto ns_per_op = [&](const Replay& r) { return r.run_s * 1e9 / static_cast<double>(ops); };

  if (args.trace == 0) {
    // Untimed warm-up at each shard count; every timed report must equal the first.
    const Replay ref = RunReplay(w, traces, 1, Mode::kPlain, "");
    const Replay warm_wide = RunReplay(w, traces, kWideShards, Mode::kPlain, "");
    check_same(warm_wide, ref.report, "warm-up");
    effective_wide = warm_wide.effective_shards;

    std::vector<double> run1;
    const auto t0 = std::chrono::steady_clock::now();
    while (SecondsSince(t0) < args.seconds || run1.size() < kMinTimedReplays) {
      const Replay r = RunReplay(w, traces, 1, Mode::kPlain, "");
      note_setup(r);
      check_same(r, ref.report, "timed replay");
      run1.push_back(ns_per_op(r));
    }
    // Read before the decorated replay below, whose call records are not the program's.
    metrics["peak_rss_mb"] = {PeakRssMb(), "MB"};
    // One decorated replay counts failed ops and per-thread retirements.
    const Replay checked = RunReplay(w, traces, 1, Mode::kChecked, "");
    check_same(checked, ref.report, "decorated replay");
    attempted = ops;
    failed = checked.failed_ops;
    metrics["host_ns_per_op"] = {Median(run1), "ns"};
    metrics["setup_s"] = {Median(gen_s) + Median(construct_s) + Median(setup_s), "s"};
    add_sim_metrics(ref.report, &printed);
    metrics["sim_ns_per_op"] = printed["sim_ns_per_op"];
    printed.erase("sim_ns_per_op");
    printed["failed_op_frac"] = {Ratio(static_cast<double>(failed), static_cast<double>(ops)),
                                 "ratio"};
    std::sort(run1.begin(), run1.end());
    std::printf("timed replays: %zu at 1 shard, wall ns/op min %.2f median %.2f max %.2f; "
                "setup medians: generate %.6f s (n=%zu), construct %.6f s, engine Setup "
                "%.6f s (n=%zu)\n",
                run1.size(), run1.front(), Median(run1), run1.back(), Median(gen_s),
                gen_s.size(), Median(construct_s), Median(setup_s), setup_s.size());
  } else {
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    Expect(!ec, "cannot create " + args.out_dir);
    const Replay ref = RunReplay(w, traces, 1, Mode::kPlain, "");
    note_setup(ref);
    // Alternate untraced and traced replays: at 1 shard for the first half of the time
    // (the tracing overhead), at the wide shard count for the second.
    std::vector<double> plain[2];
    std::vector<double> traced[2];
    std::vector<Replay> samples[2];
    const auto t0 = std::chrono::steady_clock::now();
    for (int wide = 0; wide < 2; ++wide) {
      const int shards = wide == 0 ? 1 : kWideShards;
      const double until = args.seconds * (wide == 0 ? 0.5 : 1.0);
      for (int i = 0; SecondsSince(t0) < until || samples[wide].size() < 2; ++i) {
        for (int k = 0; k < 2; ++k) {
          const bool is_traced = (i + k) % 2 == 1;
          const std::string prefix = is_traced && samples[wide].empty()
                                         ? args.out_dir + "/" + w.name + "." +
                                               std::to_string(shards) + "shard"
                                         : "";
          Replay r = RunReplay(w, traces, shards, is_traced ? Mode::kTraced : Mode::kPlain,
                               prefix);
          note_setup(r);
          check_same(r, ref.report, is_traced ? "traced replay" : "replay");
          effective_wide = wide == 1 ? r.effective_shards : effective_wide;
          (is_traced ? traced : plain)[wide].push_back(ns_per_op(r));
          if (is_traced) {
            samples[wide].push_back(std::move(r));
          }
        }
      }
    }
    for (const auto& set : samples) {
      for (const Replay& r : set) {
        Expect(r.semantic_digest == samples[0].front().semantic_digest,
               "semantic digest differs between traced replays");
      }
    }
    attempted = ops;
    failed = samples[0].front().failed_ops;

    // Per-metric medians over the traced replays.
    for (const auto& set : samples) {
      for (const auto& [name, m] : set.front().layer) {
        std::vector<double> values;
        for (const Replay& r : set) {
          values.push_back(r.layer.at(name).value);
        }
        metrics[name] = {Median(values), m.unit};
      }
    }
    add_sim_metrics(ref.report, &metrics);
    printed["sim_ns_per_op"] = metrics["sim_ns_per_op"];
    metrics.erase("sim_ns_per_op");
    printed["host_ns_per_op"] = {Median(plain[0]), "ns"};
    metrics["workload.replay.host_ns_per_op.4shard"] = {Median(plain[1]), "ns"};
    metrics["workload.gen_s"] = {Median(gen_s), "s"};
    metrics["workload.ops"] = {static_cast<double>(ops), "count"};
    metrics["workload.replay.setup_s"] = {Median(setup_s), "s"};
    metrics["baselines.construct_s"] = {Median(construct_s), "s"};
    metrics["obs.trace_overhead_frac"] = {Median(traced[0]) / Median(plain[0]) - 1.0, "ratio"};
    metrics["failed_op_frac"] = {Ratio(static_cast<double>(failed), static_cast<double>(ops)),
                                 "ratio"};

    auto median_replay = [](const std::vector<Replay>& set) -> const Replay& {
      std::vector<size_t> order(set.size());
      for (size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
      }
      std::sort(order.begin(), order.end(),
                [&](size_t a, size_t b) { return set[a].run_s < set[b].run_s; });
      return set[order[order.size() / 2]];
    };
    std::printf("traced replays: %zu at 1 shard and %zu at %d shards, each paired with an "
                "untraced one\n",
                samples[0].size(), samples[1].size(), kWideShards);
    PrintBudget(w.name + ", 1 shard, median traced replay", median_replay(samples[0]).budget);
    PrintBudget(w.name + ", " + std::to_string(kWideShards) + " shards requested, " +
                    std::to_string(effective_wide) + " effective, median traced replay",
                median_replay(samples[1]).budget);
  }

  std::printf("provenance: git=%s cpu=\"%s\" nproc=%u build=%s compiler=\"%s\" "
              "effective_shards=1,%d\n",
              args.git.c_str(), CpuModel().c_str(), std::thread::hardware_concurrency(),
              PERFBENCH_BUILD_TYPE, Compiler().c_str(), effective_wide);
  for (const auto& [name, m] : metrics) {
    std::printf("metric %-48s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [name, m] : printed) {
    std::printf("metric %-48s %16.6f %s (result of --trace %d)\n", name.c_str(), m.value,
                m.unit.c_str(), 1 - args.trace);
  }
  std::printf("sim_p9999_ns is over %llu samples, %llu of them beyond it\n",
              static_cast<unsigned long long>(ops), static_cast<unsigned long long>(ops / 10000));
  PrintResult(attempted, failed, metrics);
  return g_failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
