// The replay benchmark's four workloads. Each derives from a figure bench and isolates
// different layers (the rationale per workload is in perfbench/README.md):
//
//   resident       MIND, blade-local hits: engine rounds, channels, shard threading.
//   gam_contended  GAM, 4 threads per blade: group merge commit, owner-parallel drain.
//   ma_contended   MIND on a kWindowedMG1 fabric, Memcached-A: coherence, fabric queues.
//   swap_stream    FastSwap, sequential scans past the cache: prefetch, eviction.
//
// Every workload is a closed loop (each simulated thread issues its next access when the
// previous one completes, plus think time) and every replay starts from a freshly
// constructed system, so the modelled caches start empty.
#ifndef MIND_PERFBENCH_WORKLOADS_H_
#define MIND_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/baselines/memory_system.h"
#include "src/prefetch/prefetch.h"
#include "src/workload/generators.h"

namespace perfbench {

struct Workload {
  std::string name;
  uint64_t default_seed = 0;
  mind::PrefetchPolicy prefetch = mind::PrefetchPolicy::kNone;
  // The trace generator sees only the spec (and through it only the seed); the system is
  // built from a fixed configuration and sees only the generated traces. `scale`
  // multiplies the op count: 1 in the benchmark, smaller in tests.
  mind::WorkloadSpec (*spec)(uint64_t seed, double scale) = nullptr;
  std::unique_ptr<mind::MemorySystem> (*make_system)() = nullptr;
};

// All four workloads, in benchmark order.
const std::vector<Workload>& Workloads();

// The named workload, or null.
const Workload* FindWorkload(const std::string& name);

}  // namespace perfbench

#endif  // MIND_PERFBENCH_WORKLOADS_H_
