#include "perfbench/timed_system.h"

#include <algorithm>

namespace perfbench {

using mind::AccessChannel;
using mind::AccessResult;
using mind::AccessType;
using mind::ChannelGroup;
using mind::Completion;
using mind::ComputeBladeId;
using mind::GroupLane;
using mind::Histogram;
using mind::LocalOp;
using mind::OwnerDrainOps;
using mind::SimTime;
using mind::SubmitResult;
using mind::ThreadId;
using mind::VirtAddr;

const char* CallName(Call c) {
  switch (c) {
    case Call::kRun: return "ReplayEngine::Run";
    case Call::kAccess: return "MemorySystem::Access";
    case Call::kAccessOwned: return "OwnerDrainOps::AccessOwned";
    case Call::kEligible: return "OwnerDrainOps::Eligible";
    case Call::kMinEligibleCost: return "OwnerDrainOps::MinEligibleCost";
    case Call::kNextSerialBoundary: return "OwnerDrainOps::NextSerialBoundary";
    case Call::kFold: return "OwnerDrainOps::Fold";
    case Call::kSubmit: return "AccessChannel::Submit";
    case Call::kRunValid: return "AccessChannel::RunValid";
    case Call::kCommit: return "AccessChannel::Commit";
    case Call::kGroupAdd: return "ChannelGroup::Add";
    case Call::kValidMask: return "ChannelGroup::ValidMask";
    case Call::kCommitMerged: return "ChannelGroup::CommitMerged";
  }
  return "?";
}

void SlotStats::MergeCounts(const SlotStats& o) {
  for (int c = 0; c < kNumCalls; ++c) {
    calls[c] += o.calls[c];
    ns[c] += o.ns[c];
    coordinator_ns[c] += o.coordinator_ns[c];
  }
  access_host_ns.Merge(o.access_host_ns);
  access_failed += o.access_failed;
  drained_hits += o.drained_hits;
  eligible_true += o.eligible_true;
  submit_offered += o.submit_offered;
  submit_accepted += o.submit_accepted;
  runvalid_false += o.runvalid_false;
  channel_committed += o.channel_committed;
  group_committed += o.group_committed;
  spans_dropped += o.spans_dropped;
}

namespace {

std::atomic<uint64_t> g_next_decorator_id{1};

// Per host thread: which decorator numbered it, and as what.
struct HostThreadTag {
  uint64_t decorator = 0;
  int index = 0;
};
thread_local HostThreadTag t_host_thread;

}  // namespace

// ---------------------------------------------------------------------------
// Wrappers handed out to the engine.
// ---------------------------------------------------------------------------

class TimedChannel final : public AccessChannel {
 public:
  TimedChannel(TimedSystem* owner, std::unique_ptr<AccessChannel> inner, uint32_t thread,
               ComputeBladeId blade)
      : owner_(owner), inner_(std::move(inner)), thread_(thread),
        slot_(owner->BladeSlot(blade)) {}

  [[nodiscard]] AccessChannel* inner() const { return inner_.get(); }

  MIND_PARALLEL_PHASE SubmitResult Submit(const LocalOp* ops, size_t n, SimTime clock,
                                          SimTime think, Completion* completions) override {
    const uint64_t t0 = TimedSystem::NowNs();
    const SubmitResult r = inner_->Submit(ops, n, clock, think, completions);
    owner_->Record(slot_, Call::kSubmit, t0, TimedSystem::NowNs(), thread_);
    SlotStats& s = owner_->slots_[slot_];
    s.submit_offered += n;
    s.submit_accepted += r.accepted;
    return r;
  }

  MIND_PARALLEL_PHASE [[nodiscard]] bool RunValid() const override {
    const uint64_t t0 = TimedSystem::NowNs();
    const bool valid = inner_->RunValid();
    owner_->Record(slot_, Call::kRunValid, t0, TimedSystem::NowNs(), thread_);
    if (!valid) {
      ++owner_->slots_[slot_].runvalid_false;
    }
    return valid;
  }

  MIND_PARALLEL_PHASE void Commit(Completion* completions, size_t n, SimTime clock) override {
    const uint64_t t0 = TimedSystem::NowNs();
    inner_->Commit(completions, n, clock);
    owner_->Record(slot_, Call::kCommit, t0, TimedSystem::NowNs(), thread_);
    owner_->slots_[slot_].channel_committed += n;
    owner_->ops_retired_[thread_] += n;
  }

 private:
  TimedSystem* owner_;
  std::unique_ptr<AccessChannel> inner_;
  uint32_t thread_;
  size_t slot_;
};

class TimedGroup final : public ChannelGroup {
 public:
  TimedGroup(TimedSystem* owner, std::unique_ptr<ChannelGroup> inner, ComputeBladeId blade)
      : owner_(owner), inner_(std::move(inner)), slot_(owner->BladeSlot(blade)) {}

  size_t Add(AccessChannel* channel) override {
    // Every channel the engine holds came from TimedSystem::OpenChannel. The wrapped
    // group must see the system's own channel: the systems static_cast their members.
    AccessChannel* own = static_cast<TimedChannel*>(channel)->inner();
    const uint64_t t0 = TimedSystem::NowNs();
    const size_t member = inner_->Add(own);
    owner_->Record(owner_->SerialSlot(), Call::kGroupAdd, t0, TimedSystem::NowNs());
    return member;
  }

  MIND_PARALLEL_PHASE [[nodiscard]] uint64_t ValidMask() const override {
    const uint64_t t0 = TimedSystem::NowNs();
    const uint64_t mask = inner_->ValidMask();
    owner_->Record(slot_, Call::kValidMask, t0, TimedSystem::NowNs());
    return mask;
  }

  MIND_PARALLEL_PHASE uint64_t CommitMerged(GroupLane* lanes, size_t n, SimTime horizon,
                                            SimTime think, Histogram& hist) override {
    const uint64_t t0 = TimedSystem::NowNs();
    const uint64_t committed = inner_->CommitMerged(lanes, n, horizon, think, hist);
    owner_->Record(slot_, Call::kCommitMerged, t0, TimedSystem::NowNs());
    owner_->slots_[slot_].group_committed += committed;
    for (size_t i = 0; i < n; ++i) {
      owner_->ops_retired_[lanes[i].thread_index] += lanes[i].committed;
    }
    return committed;
  }

 private:
  TimedSystem* owner_;
  std::unique_ptr<ChannelGroup> inner_;
  size_t slot_;
};

class TimedOwnerOps final : public OwnerDrainOps {
 public:
  TimedOwnerOps(TimedSystem* owner, std::unique_ptr<OwnerDrainOps> inner)
      : owner_(owner), inner_(std::move(inner)) {}

  MIND_PARALLEL_PHASE [[nodiscard]] bool Eligible(ThreadId tid, ComputeBladeId blade,
                                                  VirtAddr va, AccessType type,
                                                  SimTime now) const override {
    const size_t slot = owner_->BladeSlot(blade);
    const uint64_t t0 = TimedSystem::NowNs();
    const bool eligible = inner_->Eligible(tid, blade, va, type, now);
    owner_->Record(slot, Call::kEligible, t0, TimedSystem::NowNs(), owner_->ThreadIndex(tid));
    if (eligible) {
      ++owner_->slots_[slot].eligible_true;
    }
    return eligible;
  }

  MIND_SERIALIZED_PATH [[nodiscard]] SimTime MinEligibleCost() const override {
    const uint64_t t0 = TimedSystem::NowNs();
    const SimTime cost = inner_->MinEligibleCost();
    owner_->Record(owner_->SerialSlot(), Call::kMinEligibleCost, t0, TimedSystem::NowNs());
    return cost;
  }

  MIND_SERIALIZED_PATH [[nodiscard]] SimTime NextSerialBoundary() const override {
    const uint64_t t0 = TimedSystem::NowNs();
    const SimTime boundary = inner_->NextSerialBoundary();
    owner_->Record(owner_->SerialSlot(), Call::kNextSerialBoundary, t0, TimedSystem::NowNs());
    return boundary;
  }

  MIND_PARALLEL_PHASE AccessResult AccessOwned(int shard, ThreadId tid, ComputeBladeId blade,
                                               VirtAddr va, AccessType type,
                                               SimTime now) override {
    const uint64_t t0 = TimedSystem::NowNs();
    AccessResult r = inner_->AccessOwned(shard, tid, blade, va, type, now);
    owner_->RecordDrained(owner_->ShardSlot(shard), Call::kAccessOwned, t0,
                          TimedSystem::NowNs(), owner_->ThreadIndex(tid), r);
    return r;
  }

  MIND_SERIALIZED_PATH void Fold() override {
    const uint64_t t0 = TimedSystem::NowNs();
    inner_->Fold();
    owner_->Record(owner_->SerialSlot(), Call::kFold, t0, TimedSystem::NowNs());
  }

 private:
  TimedSystem* owner_;
  std::unique_ptr<OwnerDrainOps> inner_;
};

// ---------------------------------------------------------------------------
// TimedSystem
// ---------------------------------------------------------------------------

TimedSystem::TimedSystem(std::unique_ptr<mind::MemorySystem> inner)
    : inner_(std::move(inner)),
      blades_(inner_->num_compute_blades()),
      // Shards never outnumber blades (the engine clamps), so one slot per blade suffices.
      slots_(1 + 2 * static_cast<size_t>(blades_)),
      id_(g_next_decorator_id.fetch_add(1)) {}

TimedSystem::~TimedSystem() = default;

int TimedSystem::HostThread() {
  if (t_host_thread.decorator != id_) {
    t_host_thread.decorator = id_;
    t_host_thread.index = std::min(next_host_thread_.fetch_add(1), kMaxHostThreads - 1);
  }
  return t_host_thread.index;
}

uint32_t TimedSystem::ThreadIndex(ThreadId tid) const {
  for (const auto& [id, index] : tid_to_index_) {
    if (id == tid) {
      return index;
    }
  }
  return kNoThread;
}

int TimedSystem::ShardOfSlot(size_t slot, int shards) const {
  if (slot == SerialSlot()) {
    return -1;
  }
  if (slot <= static_cast<size_t>(blades_)) {
    return static_cast<int>(slot - 1) % shards;
  }
  return static_cast<int>(slot - 1 - static_cast<size_t>(blades_));
}

void TimedSystem::Record(size_t slot, Call call, uint64_t start_ns, uint64_t end_ns,
                         uint32_t thread_index, uint64_t op_index) {
  SlotStats& s = slots_[slot];
  const auto c = static_cast<size_t>(call);
  const uint64_t dur = end_ns - start_ns;
  const int host = HostThread();
  ++s.calls[c];
  s.ns[c] += dur;
  if (host == 0) {
    s.coordinator_ns[c] += dur;
  }
  if (s.spans.size() < kMaxSpansPerSlot) {
    s.spans.push_back(
        Span{start_ns, end_ns, op_index, thread_index, static_cast<uint16_t>(host), call});
  } else {
    ++s.spans_dropped;
  }
}

void TimedSystem::RecordDrained(size_t slot, Call call, uint64_t start_ns, uint64_t end_ns,
                                uint32_t thread, const AccessResult& r) {
  const uint64_t op = ops_retired_[thread]++;
  Record(slot, call, start_ns, end_ns, thread, op);
  SlotStats& s = slots_[slot];
  if (call == Call::kAccess) {
    s.access_host_ns.Record(end_ns - start_ns);
  }
  if (!r.status.ok()) {
    ++s.access_failed;
  }
  if (r.local_hit) {
    ++s.drained_hits;
  }
}

void TimedSystem::EndRun() {
  run_end_ns_ = NowNs();
  Record(SerialSlot(), Call::kRun, run_start_ns_, run_end_ns_);
}

SlotStats TimedSystem::Totals() const {
  SlotStats total;
  for (const SlotStats& s : slots_) {
    total.MergeCounts(s);
  }
  return total;
}

mind::Result<ThreadId> TimedSystem::RegisterThread(ComputeBladeId blade) {
  auto tid = inner_->RegisterThread(blade);
  if (tid.ok()) {
    tid_to_index_.emplace_back(*tid, static_cast<uint32_t>(tid_to_index_.size()));
    ops_retired_.push_back(0);
  }
  return tid;
}

AccessResult TimedSystem::Access(ThreadId tid, ComputeBladeId blade, VirtAddr va,
                                 AccessType type, SimTime now) {
  const uint64_t t0 = NowNs();
  AccessResult r = inner_->Access(tid, blade, va, type, now);
  RecordDrained(SerialSlot(), Call::kAccess, t0, NowNs(), ThreadIndex(tid), r);
  return r;
}

std::unique_ptr<AccessChannel> TimedSystem::OpenChannel(ThreadId tid, ComputeBladeId blade) {
  auto channel = inner_->OpenChannel(tid, blade);
  if (channel == nullptr) {
    return nullptr;
  }
  return std::make_unique<TimedChannel>(this, std::move(channel), ThreadIndex(tid), blade);
}

std::unique_ptr<ChannelGroup> TimedSystem::OpenChannelGroup(ComputeBladeId blade) {
  auto group = inner_->OpenChannelGroup(blade);
  if (group == nullptr) {
    return nullptr;
  }
  return std::make_unique<TimedGroup>(this, std::move(group), blade);
}

std::unique_ptr<OwnerDrainOps> TimedSystem::OpenOwnerDrain(int num_shards) {
  auto ops = inner_->OpenOwnerDrain(num_shards);
  if (ops == nullptr) {
    return nullptr;
  }
  return std::make_unique<TimedOwnerOps>(this, std::move(ops));
}

}  // namespace perfbench
