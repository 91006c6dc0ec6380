#include "src/baselines/fastswap.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/core/channel_group.h"

namespace mind {

FastSwapSystem::FastSwapSystem(FastSwapConfig config)
    : config_(config),
      fabric_(1, config.num_memory_blades, config.latency, config.fabric),
      fault_plane_(config.fault) {
  cache_ = std::make_unique<DramCache>(config_.compute_cache_bytes >> kPageShift,
                                       /*store_data=*/false);
}

Result<VirtAddr> FastSwapSystem::Alloc(uint64_t size) {
  const VirtAddr base = next_va_;
  next_va_ += AlignUp(size, kPageSize);
  return base;
}

Result<ThreadId> FastSwapSystem::RegisterThread(ComputeBladeId blade) {
  if (blade != 0) {
    // The defining limitation: no transparent scaling beyond one compute blade (§2.2).
    return Status(ErrorCode::kInvalidArgument,
                  "FastSwap confines a process to a single compute blade");
  }
  return next_tid_++;
}

MIND_SERIALIZED_PATH AccessResult FastSwapSystem::Access(ThreadId tid, ComputeBladeId blade,
                                                          VirtAddr va,
                                    AccessType type, SimTime now) {
  (void)blade;
  ++counters_.total_accesses;
  AccessResult res;
  const uint64_t page = PageNumber(va);

  auto hit = [&](DramCache::Frame* frame) {
    // Swap systems install pages read-write; any hit is a plain DRAM access.
    ++counters_.local_hits;
    if (type == AccessType::kWrite) {
      frame->dirty = true;
    }
    if (frame->prefetched) [[unlikely]] {  // First touch: the prefetch was useful.
      frame->prefetched = false;
      prefetch_.OnPrefetchedTouch(page);
    }
    res.local_hit = true;
    res.latency = lat().local_cache_hit;
    res.completion = now + res.latency;
    return res;
  };
  if (DramCache::Frame* frame = cache_->Lookup(page); frame != nullptr) {
    return hit(frame);
  }

  // Prefetch hooks live on the fault path only (the stream a swap prefetcher observes):
  // install arrived pages, join an in-flight fetch, or fall through to the real fault.
  if (config_.prefetch.enabled()) {
    InstallReadyPrefetches(now);
    if (DramCache::Frame* frame = cache_->Lookup(page); frame != nullptr) {
      return hit(frame);  // An arrived prefetch covers this fault.
    }
    if (const auto entry = prefetch_.TakeLate(page); entry.has_value()) {
      // Demand fault joins the in-flight swap-in: resolves when the data lands (a late
      // prefetch — shortened the stall without hiding it). Read-write install, so the
      // demand completes either way.
      entry->owner->OnLate();
      ++counters_.remote_accesses;
      // The thread still takes the page-fault trap, then blocks until the data lands.
      const SimTime landed =
          std::max(now + lat().page_fault_entry, entry->ready_at);
      InstallPage(page, landed, /*prefetched=*/false, nullptr);
      if (type == AccessType::kWrite) {
        cache_->MarkDirty(page);
      }
      const SimTime done = landed + lat().pte_install;
      res.latency = done - now;
      res.completion = done;
      res.breakdown.fault =
          lat().page_fault_entry + lat().pte_install;
      res.breakdown.network = res.latency - res.breakdown.fault;
      counters_.breakdown_sums += res.breakdown;
      if (trace_ != nullptr) [[unlikely]] {
        TraceEvent ev;
        ev.kind = TraceEventKind::kPrefetchUseful;
        ev.clock = now;
        ev.dur = done - now;
        ev.tid = tid;
        ev.a = page;
        trace_->Emit(ev);
      }
      PrefetchAfterFault(tid, page, done);
      return res;
    }
  }

  // Page fault: frontswap fetch from the backing memory blade through the ToR switch
  // (plain forwarding — no in-network memory logic).
  ++counters_.remote_accesses;
  SimTime t = now + lat().page_fault_entry;
  if (fault_plane_.lossy()) [[unlikely]] {
    // Lost RDMA reads are retried by the kernel; even an exhausted budget only delays the
    // fetch by the summed timeouts (no reset — there is no directory to wedge).
    t += fault_plane_.SendWithAck(0, t, 0).latency;
  }
  const MemoryBladeId m = BackingBlade(page);
  const auto rtt =
      fabric_.Rtt(Endpoint::Compute(0), Endpoint::Memory(m), MessageKind::kRdmaReadRequest,
                  MessageKind::kRdmaReadResponse, t, lat().memory_blade_service);
  t = rtt.complete + lat().pte_install;

  InstallPage(page, t, /*prefetched=*/false, nullptr);
  if (type == AccessType::kWrite) {
    cache_->MarkDirty(page);
  }

  res.latency = t - now;
  res.completion = t;
  res.breakdown.fault = lat().page_fault_entry + lat().pte_install;
  res.breakdown.fabric_wait =
      rtt.request.total_wait() + rtt.response.total_wait();
  res.breakdown.network =
      res.latency > res.breakdown.fault + res.breakdown.fabric_wait
          ? res.latency - res.breakdown.fault - res.breakdown.fabric_wait
          : 0;
  counters_.breakdown_sums += res.breakdown;
  if (trace_ != nullptr) [[unlikely]] {
    TraceEvent ev;
    ev.kind = TraceEventKind::kAccessSpan;
    ev.clock = now;
    ev.dur = t - now;
    ev.tid = tid;
    ev.a = va;
    ev.b = res.breakdown.fault;
    ev.c = TracePack32(res.breakdown.network, res.breakdown.fabric_wait);
    trace_->Emit(ev);
  }
  if (config_.prefetch.enabled()) {
    PrefetchAfterFault(tid, page, t);
  }
  return res;
}

// ---------------------------------------------------------------------------
// Swap-path prefetching (src/prefetch/prefetch.h): predictions issue after the demand
// fault completes, pages arrive asynchronously and fill the swap cache read-write.
// ---------------------------------------------------------------------------

PrefetchEngine& FastSwapSystem::EnsurePrefetchEngine(ThreadId tid) {
  return EnsureEngine(prefetch_engines_, tid, config_.prefetch);
}

void FastSwapSystem::InstallPage(uint64_t page, SimTime now, bool prefetched,
                                 PrefetchEngine* owner) {
  // Speculative swap-ins enter at the adaptive cold LRU depth (prefetch-aware eviction
  // priority); demand swap-ins stay MRU.
  auto evicted = prefetched
                     ? cache_->InsertPrefetched(page, /*writable=*/true, nullptr,
                                                /*pdid=*/0, prefetch_.cold_insert_depth())
                     : cache_->Insert(page, /*writable=*/true, nullptr);
  if (evicted.has_value()) {
    if (config_.prefetch.enabled()) {
      prefetch_.OnPageEvicted(evicted->page);  // Evicted-unused feedback.
    }
    if (evicted->dirty) {
      // Asynchronous write-back of the victim page.
      ++counters_.pages_flushed;
      (void)fabric_.Route(Endpoint::Compute(0),
                          Endpoint::Memory(BackingBlade(evicted->page)),
                          MessageKind::kRdmaWriteRequest, now);
    }
  }
  if (prefetched) {
    prefetch_.NoteInstalled(page, owner);
  }
}

void FastSwapSystem::InstallReadyPrefetches(SimTime now) {
  for (const auto& [page, entry] : prefetch_.TakeReady(now)) {
    entry.owner->OnInstalled();  // FastSwap has no invalidations: nothing goes stale.
    if (cache_->Find(page) != nullptr) {
      continue;
    }
    InstallPage(page, entry.ready_at, /*prefetched=*/true, entry.owner);
  }
  if (!prefetch_.rearm_requests.empty()) {
    // Re-arm requests from hit paths and channel/group commits: issue the next window at
    // the blade's first serialized point (see the same hook in Rack).
    for (size_t i = 0; i < prefetch_.rearm_requests.size(); ++i) {
      const BladePrefetchState::Rearm rearm = prefetch_.rearm_requests[i];
      IssuePrefetches(*rearm.engine, rearm.page, now);
    }
    prefetch_.rearm_requests.clear();
  }
}

MIND_SERIALIZED_PATH void FastSwapSystem::AdvanceTo(SimTime now) {
  if (!config_.prefetch.enabled()) {
    return;
  }
  InstallReadyPrefetches(now);
}

void FastSwapSystem::PrefetchAfterFault(ThreadId tid, uint64_t page, SimTime done) {
  PrefetchEngine& engine = EnsurePrefetchEngine(tid);
  engine.RecordFault(page);
  IssuePrefetches(engine, page, done);
}

void FastSwapSystem::IssuePrefetches(PrefetchEngine& engine, uint64_t page, SimTime done) {
  const PrefetchCandidates candidates = engine.Predict(page);
  // Occupancy feedback: skip (and shrink) the window when the trigger page's backing
  // blade port is already saturated with demand traffic.
  if (config_.prefetch.fabric_pressure_threshold < 1.0 &&
      fabric_.Utilization(Endpoint::Memory(BackingBlade(page))) >
          config_.prefetch.fabric_pressure_threshold) {
    engine.OnFabricPressure();
    return;
  }
  uint64_t last_issued = page;
  bool issued_any = false;
  uint64_t issued_count = 0;
  for (uint32_t k = 0; k < candidates.count; ++k) {
    if (!engine.HasInFlightRoom()) {
      break;  // Bounded in-flight queue.
    }
    const uint64_t p = candidates.at(k);
    const VirtAddr va = PageToAddr(p);
    if (va < first_va_ || va >= next_va_) {
      continue;  // Never swap in past the allocated address space.
    }
    // In flight first: on a covered stream most candidates already are.
    if (prefetch_.Contains(p) || cache_->Find(p) != nullptr) {
      continue;
    }
    // Frontswap read-ahead: the demand fetch's exact hops, issued after it and queueing
    // behind it on the single blade's NIC.
    const MemoryBladeId m = BackingBlade(p);
    const auto pf_rtt = fabric_.Rtt(Endpoint::Compute(0), Endpoint::Memory(m),
                                    MessageKind::kRdmaReadRequest,
                                    MessageKind::kRdmaReadResponse, done,
                                    lat().memory_blade_service);
    const SimTime ready = pf_rtt.complete + lat().pte_install;
    engine.OnIssued();
    prefetch_.Issue(p, BladePrefetchState::InFlight{ready, 0, &engine, /*pdid=*/0});
    last_issued = p;
    issued_any = true;
    ++issued_count;
  }
  if (issued_any) {
    engine.NoteIssuedWindow(page, last_issued);
    if (trace_ != nullptr) [[unlikely]] {
      TraceEvent ev;
      ev.kind = TraceEventKind::kPrefetchIssue;
      ev.clock = done;
      ev.a = page;
      ev.b = issued_count;
      trace_->Emit(ev);
    }
  }
}

PrefetchStats FastSwapSystem::prefetch_stats() {
  prefetch_.ResolveEvictedUnused([&](uint64_t page) {
    const DramCache::Frame* f = cache_->Peek(page);
    return f != nullptr && f->prefetched;
  });
  return MergeEngineStats(prefetch_engines_);
}

// ---------------------------------------------------------------------------
// AccessChannel over the swap-cache hit path (see the contract notes in fastswap.h).
// ---------------------------------------------------------------------------

class FastSwapSystem::Channel final : public AccessChannel {
 public:
  explicit Channel(FastSwapSystem* sys) : sys_(sys) {}

  MIND_PARALLEL_PHASE SubmitResult Submit(const LocalOp* ops, size_t n, SimTime clock,
                                          SimTime think,
                      Completion* completions) override {
    DramCache& cache = *sys_->cache_;
    const SimTime hit_latency = sys_->lat().local_cache_hit;
    stamps_.Clear();
    SubmitResult out;
    size_t i = 0;
    for (; i < n; ++i) {
      DramCache::Frame* frame = cache.Find(PageNumber(ops[i].va));
      if (frame == nullptr) {
        break;
      }
      // Swap systems install pages read-write; any hit is a plain DRAM access.
      stamps_.Add(cache, DramCache::RegionOf(PageNumber(ops[i].va)));
      completions[i].latency = hit_latency;
      completions[i].token.bits =
          reinterpret_cast<uintptr_t>(frame) |
          static_cast<uintptr_t>(ops[i].type == AccessType::kWrite);
      clock += hit_latency + think;
    }
    out.accepted = i;
    out.end_clock = clock;
    // uniform_latency == 0 is reserved for "consult per-op latencies", so a zero-cost hit
    // configuration reports per-op (all-zero) latencies instead.
    out.uniform_latency = hit_latency;
    return out;
  }

  MIND_PARALLEL_PHASE [[nodiscard]] bool RunValid() const override {
    return stamps_.Valid(*sys_->cache_);
  }

  MIND_PARALLEL_PHASE void Commit(Completion* completions, size_t n,
                                  SimTime /*clock*/) override {
    DramCache& cache = *sys_->cache_;
    for (size_t i = 0; i < n; ++i) {
      ApplyCommitToken(cache, completions[i],
                       [&](uint64_t page) { sys_->prefetch_.OnPrefetchedTouch(page); });
    }
  }

 private:
  friend class FastSwapSystem::Group;

  FastSwapSystem* sys_;
  DramCache::RegionStamps stamps_;  // Dependency footprint of the last submitted run.
};

std::unique_ptr<AccessChannel> FastSwapSystem::OpenChannel(ThreadId /*tid*/,
                                                           ComputeBladeId blade) {
  return blade == 0 ? std::make_unique<Channel>(this) : nullptr;
}

// ChannelGroup over the single swap cache (contract in access_channel.h, merge machinery
// in channel_group.h): the trivial uniform path. Every member's hit latency is the fixed
// local_cache_hit, so the merged batch is pure LRU/dirty interleaving in (clock, thread)
// order with one RecordN per lane; one stamp pass validates every member's run.
class FastSwapSystem::Group final : public ChannelGroup {
 public:
  explicit Group(FastSwapSystem* sys) : sys_(sys) {}

  size_t Add(AccessChannel* channel) override {
    members_.push_back(static_cast<Channel*>(channel));
    return members_.size() - 1;
  }

  MIND_PARALLEL_PHASE [[nodiscard]] uint64_t ValidMask() const override {
    const DramCache& cache = *sys_->cache_;
    uint64_t mask = 0;
    for (size_t m = 0; m < members_.size(); ++m) {
      if (members_[m]->stamps_.Valid(cache)) {
        mask |= uint64_t{1} << m;
      }
    }
    return mask;
  }

  MIND_PARALLEL_PHASE uint64_t CommitMerged(GroupLane* lanes, size_t n, SimTime horizon,
                                            SimTime think, Histogram& hist) override {
    DramCache& cache = *sys_->cache_;
    return GroupMergeCommit(
        lanes, n, horizon, think, hist,
        [](GroupLane& ln, size_t idx) {
          return ln.uniform_latency != 0 ? ln.uniform_latency : ln.comps[idx].latency;
        },
        [&](GroupLane& ln, size_t idx) {
          ApplyCommitToken(cache, ln.comps[idx],
                           [&](uint64_t page) { sys_->prefetch_.OnPrefetchedTouch(page); });
        });
  }

 private:
  FastSwapSystem* sys_;
  std::vector<Channel*> members_;
};

std::unique_ptr<ChannelGroup> FastSwapSystem::OpenChannelGroup(ComputeBladeId blade) {
  return blade == 0 ? std::make_unique<Group>(this) : nullptr;
}

}  // namespace mind
