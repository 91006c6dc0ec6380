// TimedSystem: a forwarding MemorySystem decorator that times every call crossing the
// system boundary, from outside the program.
//
// The replay engine only ever talks to a system through MemorySystem and the objects it
// hands out (AccessChannel, ChannelGroup, OwnerDrainOps). Wrapping all four lets the
// benchmark attribute host time to the layer behind each call — `baselines` (Access,
// AccessOwned, Eligible), `core` (channel Submit/RunValid/Commit, group ValidMask/
// CommitMerged) — and leaves everything between the calls to the engine itself, without
// changing a line under src/.
//
// Every call is forwarded unchanged, so a decorated replay produces the same ReplayReport
// and TraceScope digest as an undecorated one (decorator_equivalence_test checks it).
//
// Threading follows the engine's phase discipline: calls for different blades may run
// concurrently, calls for one blade never do, and serialized-path calls run alone.
// Stats therefore go to per-blade slots (channel, group and Eligible calls), per-shard
// slots (AccessOwned) and one serial slot (everything else); no slot is ever written by
// two threads at once, and the phase barriers order the writes before the final read.
#ifndef MIND_PERFBENCH_TIMED_SYSTEM_H_
#define MIND_PERFBENCH_TIMED_SYSTEM_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/memory_system.h"
#include "src/common/histogram.h"
#include "src/obs/phase_profiler.h"

namespace perfbench {

// The calls the decorator times. kRun is the benchmark's own span around
// ReplayEngine::Run; it is the parent of everything else.
enum class Call : uint8_t {
  kRun = 0,
  kAccess,
  kAccessOwned,
  kEligible,
  kMinEligibleCost,
  kNextSerialBoundary,
  kFold,
  kSubmit,
  kRunValid,
  kCommit,
  kGroupAdd,
  kValidMask,
  kCommitMerged,
};
inline constexpr int kNumCalls = 13;
const char* CallName(Call c);

// Host threads one decorator numbers (later ones share the last index); index 0 is the
// thread that calls BeginRun, which drives Run.
inline constexpr int kMaxHostThreads = 16;
inline constexpr uint32_t kNoThread = UINT32_MAX;

struct Span {
  uint64_t start_ns = 0;  // Host steady-clock ns.
  uint64_t end_ns = 0;
  uint64_t op_index = 0;              // Access/AccessOwned: the thread's op ordinal.
  uint32_t thread_index = kNoThread;  // Trace thread the call serves, when it has one.
  uint16_t host_thread = 0;
  Call call = Call::kRun;
};

struct SlotStats {
  uint64_t calls[kNumCalls] = {};
  uint64_t ns[kNumCalls] = {};
  uint64_t coordinator_ns[kNumCalls] = {};  // Part of `ns` spent on host thread 0.
  mind::Histogram access_host_ns;  // Per-call host ns of Access.
  uint64_t access_failed = 0;      // Access/AccessOwned results whose status was not OK.
  uint64_t drained_hits = 0;       // Access/AccessOwned results that were local hits.
  uint64_t eligible_true = 0;
  uint64_t submit_offered = 0;
  uint64_t submit_accepted = 0;
  uint64_t runvalid_false = 0;
  uint64_t channel_committed = 0;  // Ops committed through per-thread Commit.
  uint64_t group_committed = 0;    // Ops committed through CommitMerged.
  std::vector<Span> spans;         // Bounded by kMaxSpansPerSlot.
  uint64_t spans_dropped = 0;

  void MergeCounts(const SlotStats& o);
};

class TimedSystem final : public mind::MemorySystem {
 public:
  static constexpr size_t kMaxSpansPerSlot = size_t{1} << 16;

  explicit TimedSystem(std::unique_ptr<mind::MemorySystem> inner);
  ~TimedSystem() override;
  TimedSystem(const TimedSystem&) = delete;
  TimedSystem& operator=(const TimedSystem&) = delete;

  [[nodiscard]] static uint64_t NowNs() { return mind::PhaseProfiler::HostNowNs(); }

  // --- The benchmark's Run span -------------------------------------------
  // Call on the thread that calls Run: it becomes host thread 0.
  void BeginRun() {
    (void)HostThread();
    run_start_ns_ = NowNs();
  }
  void EndRun();
  [[nodiscard]] uint64_t run_start_ns() const { return run_start_ns_; }
  [[nodiscard]] uint64_t run_end_ns() const { return run_end_ns_; }

  // --- Results (read after Run returns) -----------------------------------
  // Counts and times summed over every slot (spans are not copied).
  [[nodiscard]] SlotStats Totals() const;
  [[nodiscard]] const std::vector<SlotStats>& slots() const { return slots_; }
  // Ops each trace thread retired through decorated calls (commits plus drained ops).
  [[nodiscard]] const std::vector<uint64_t>& ops_retired() const { return ops_retired_; }
  // Replay shard that ran slot `slot`'s calls in a run with `shards` shards (the engine
  // deals blades round-robin to shards); -1 for the serial slot.
  [[nodiscard]] int ShardOfSlot(size_t slot, int shards) const;

  // --- MemorySystem ---------------------------------------------------------
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] int num_compute_blades() const override { return blades_; }
  mind::Result<mind::VirtAddr> Alloc(uint64_t size) override { return inner_->Alloc(size); }
  mind::Result<mind::ThreadId> RegisterThread(mind::ComputeBladeId blade) override;
  MIND_SERIALIZED_PATH mind::AccessResult Access(mind::ThreadId tid,
                                                 mind::ComputeBladeId blade, mind::VirtAddr va,
                                                 mind::AccessType type,
                                                 mind::SimTime now) override;
  [[nodiscard]] mind::SystemCounters counters() const override { return inner_->counters(); }
  [[nodiscard]] mind::FaultCounters fault_counters() const override {
    return inner_->fault_counters();
  }
  [[nodiscard]] mind::SimTime NextScheduledFaultAt() const override {
    return inner_->NextScheduledFaultAt();
  }
  std::unique_ptr<mind::AccessChannel> OpenChannel(mind::ThreadId tid,
                                                   mind::ComputeBladeId blade) override;
  std::unique_ptr<mind::ChannelGroup> OpenChannelGroup(mind::ComputeBladeId blade) override;
  MIND_SERIALIZED_PATH void AdvanceTo(mind::SimTime now) override { inner_->AdvanceTo(now); }
  std::unique_ptr<mind::OwnerDrainOps> OpenOwnerDrain(int num_shards) override;
  bool SetPrefetchPolicy(mind::PrefetchPolicy policy) override {
    return inner_->SetPrefetchPolicy(policy);
  }
  mind::PrefetchStats prefetch_stats() override { return inner_->prefetch_stats(); }
  bool SetTraceSink(mind::TraceSink* sink) override { return inner_->SetTraceSink(sink); }
  void CollectMetrics(mind::MetricsRegistry* reg, const std::string& prefix) override {
    inner_->CollectMetrics(reg, prefix);
  }

 private:
  friend class TimedChannel;
  friend class TimedGroup;
  friend class TimedOwnerOps;

  [[nodiscard]] size_t SerialSlot() const { return 0; }
  [[nodiscard]] size_t BladeSlot(mind::ComputeBladeId blade) const {
    return 1 + static_cast<size_t>(blade);
  }
  [[nodiscard]] size_t ShardSlot(int shard) const {
    return 1 + static_cast<size_t>(blades_) + static_cast<size_t>(shard);
  }
  [[nodiscard]] uint32_t ThreadIndex(mind::ThreadId tid) const;
  [[nodiscard]] int HostThread();
  void Record(size_t slot, Call call, uint64_t start_ns, uint64_t end_ns,
              uint32_t thread_index = kNoThread, uint64_t op_index = 0);
  // One drained op (Access or AccessOwned) for `thread`: its op ordinal plus outcome.
  void RecordDrained(size_t slot, Call call, uint64_t start_ns, uint64_t end_ns,
                     uint32_t thread, const mind::AccessResult& r);

  std::unique_ptr<mind::MemorySystem> inner_;
  int blades_;
  std::vector<SlotStats> slots_;  // Serial, then one per blade, then one per shard.
  std::vector<std::pair<mind::ThreadId, uint32_t>> tid_to_index_;  // Registration order.
  std::vector<uint64_t> ops_retired_;  // Per trace thread; written by its blade's owner.
  uint64_t run_start_ns_ = 0;
  uint64_t run_end_ns_ = 0;
  uint64_t id_;                        // Tags this decorator's host-thread numbering.
  std::atomic<int> next_host_thread_{0};
};

}  // namespace perfbench

#endif  // MIND_PERFBENCH_TIMED_SYSTEM_H_
