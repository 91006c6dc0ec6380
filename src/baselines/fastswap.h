// FastSwap-like swap-based disaggregated memory baseline (§7, "Compared systems").
//
// FastSwap [Amaro et al., EuroSys'20] exposes far memory through the kernel swap path: page
// faults fetch 4 KB pages from remote memory over RDMA, evictions push them back. There is
// *no* coherence machinery — and therefore no cross-blade sharing: a process is confined to
// one compute blade (the non-transparent end of the paper's design space, §2.2). Intra-blade
// it scales almost linearly, like MIND (Fig. 5 left).
#ifndef MIND_SRC_BASELINES_FASTSWAP_H_
#define MIND_SRC_BASELINES_FASTSWAP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/baselines/memory_system.h"
#include "src/blade/dram_cache.h"
#include "src/common/types.h"
#include "src/fault/fault_plane.h"
#include "src/net/fabric.h"
#include "src/prefetch/prefetch.h"
#include "src/sim/latency_model.h"

namespace mind {

struct FastSwapConfig {
  int num_memory_blades = 8;
  uint64_t compute_cache_bytes = 512ull * 1024 * 1024;
  uint64_t chunk_pages = 512;  // Remote placement granularity (2 MB).
  LatencyModel latency;
  // Fabric queueing discipline (src/net/queue_model.h); default kFifo = historical timing.
  FabricConfig fabric;
  // Swap-path prefetching (the canonical beneficiary — Leap runs exactly here): engines
  // watch the fault stream and fill the swap cache ahead of it, read-write like every
  // swapped-in page. Default off (src/prefetch/prefetch.h).
  PrefetchConfig prefetch;
  // Fault injection on the swap RTT (loss model only). The kernel retries a lost RDMA
  // read, so an exhausted retransmission budget just pays the summed timeouts before the
  // fetch proceeds — there is no directory, hence no reset concept.
  FaultPlaneConfig fault;
};

class FastSwapSystem final : public MemorySystem {
 public:
  explicit FastSwapSystem(FastSwapConfig config);

  [[nodiscard]] std::string name() const override { return "FastSwap"; }
  [[nodiscard]] int num_compute_blades() const override { return 1; }

  Result<VirtAddr> Alloc(uint64_t size) override;
  Result<ThreadId> RegisterThread(ComputeBladeId blade) override;
  MIND_SERIALIZED_PATH AccessResult Access(ThreadId tid, ComputeBladeId blade, VirtAddr va,
                                           AccessType type,
                      SimTime now) override;
  [[nodiscard]] SystemCounters counters() const override { return counters_; }

  // Batched channel contract: a FastSwap hit is a plain DRAM access at a fixed latency
  // (pages are installed read-write, there is no coherence machinery), so whole runs
  // classify with an exact uniform latency (see src/core/access_channel.h). Single blade —
  // the channel fast path still removes the per-op virtual Access dispatch under one-shard
  // replay.
  std::unique_ptr<AccessChannel> OpenChannel(ThreadId tid, ComputeBladeId blade) override;

  // Per-blade channel group (trivially uniform: every hit costs the fixed swap-cache
  // latency, so the merged batch accounts across threads with one RecordN per lane; the
  // merge itself still interleaves LRU recency in exact (clock, thread) order).
  std::unique_ptr<ChannelGroup> OpenChannelGroup(ComputeBladeId blade) override;

  bool SetPrefetchPolicy(PrefetchPolicy policy) override {
    config_.prefetch.policy = policy;
    return true;
  }
  PrefetchStats prefetch_stats() override;

  [[nodiscard]] FaultCounters fault_counters() const override {
    return fault_plane_.counters();
  }

  // Interface blocks plus the fabric's counters and per-port occupancy gauges.
  void CollectMetrics(MetricsRegistry* reg, const std::string& prefix) override {
    MemorySystem::CollectMetrics(reg, prefix);
    fabric_.CollectMetrics(reg, prefix + "/fabric");
  }

  // Drains pending prefetch installs and re-armed windows (the re-arm gap fix; see
  // MemorySystem::AdvanceTo). Called once after the final op in every replay mode, so it
  // is mode-invariant.
  MIND_SERIALIZED_PATH void AdvanceTo(SimTime now) override;

  // Semantic-event tracing (src/obs/): every FastSwap emission site is on the
  // serialized miss path; a null sink costs one pointer compare per miss.
  bool SetTraceSink(TraceSink* sink) override {
    trace_ = sink;
    fault_plane_.SetTraceSink(sink);
    return true;
  }

 private:
  class Channel;
  class Group;
  [[nodiscard]] MemoryBladeId BackingBlade(uint64_t page) const {
    return static_cast<MemoryBladeId>((page / config_.chunk_pages) %
                                      static_cast<uint64_t>(config_.num_memory_blades));
  }
  // The single LatencyModel instance lives in the fabric; this is the constant view.
  [[nodiscard]] const LatencyModel& lat() const { return fabric_.latency(); }

  // --- Prefetch internals (all driven from the serialized Access path) ---
  PrefetchEngine& EnsurePrefetchEngine(ThreadId tid);
  // Swap-in of one page at `now`: insert read-write, flush the dirty victim if any.
  void InstallPage(uint64_t page, SimTime now, bool prefetched, PrefetchEngine* owner);
  void InstallReadyPrefetches(SimTime now);
  void PrefetchAfterFault(ThreadId tid, uint64_t page, SimTime done);
  // The issue half of PrefetchAfterFault, also driven by re-arm requests.
  void IssuePrefetches(PrefetchEngine& engine, uint64_t page, SimTime done);

  FastSwapConfig config_;
  Fabric fabric_;
  FaultPlane fault_plane_;
  TraceSink* trace_ = nullptr;  // Serialized-path writes only, like counters_.
  std::unique_ptr<DramCache> cache_;
  SystemCounters counters_;
  VirtAddr next_va_ = 0x0000'7000'0000'0000ull;
  const VirtAddr first_va_ = next_va_;  // Prefetch candidates stay inside [first, next).
  ThreadId next_tid_ = 1;
  std::unordered_map<ThreadId, std::unique_ptr<PrefetchEngine>> prefetch_engines_;
  BladePrefetchState prefetch_;  // Single compute blade.
};

}  // namespace mind

#endif  // MIND_SRC_BASELINES_FASTSWAP_H_
