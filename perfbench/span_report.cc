#include "perfbench/span_report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

namespace perfbench {

using mind::PhaseProfiler;

SpanTree::SpanTree(const TimedSystem& system, const PhaseProfiler* profiler, int shards)
    : system_(system), profiler_(profiler), shards_(shards),
      origin_ns_(system.run_start_ns()) {
  nodes_.push_back(Node{system.run_start_ns(), system.run_end_ns(), -1, -1, -1, nullptr});

  // Phase intervals, indexed per (lane, phase) in start order for containment lookups.
  const size_t lanes = profiler != nullptr ? profiler->num_lanes() : 0;
  const size_t serial_lane = lanes == 0 ? 0 : profiler->serial_lane();
  std::vector<std::vector<size_t>> by_lane_phase(lanes * LayerBudget::kPhases);
  for (size_t l = 0; l < lanes; ++l) {
    const PhaseProfiler::Lane& lane = profiler->lane(l);
    intervals_dropped_ += lane.intervals_dropped;
    for (const PhaseProfiler::Interval& iv : lane.intervals) {
      const uint64_t start = profiler->origin_ns() + iv.start_ns;
      const auto phase = static_cast<int>(iv.phase);
      by_lane_phase[l * LayerBudget::kPhases + static_cast<size_t>(phase)].push_back(
          nodes_.size());
      nodes_.push_back(Node{start, start + iv.dur_ns, 0, static_cast<int>(l), phase, nullptr});
    }
  }
  for (auto& list : by_lane_phase) {
    std::sort(list.begin(), list.end(),
              [&](size_t a, size_t b) { return nodes_[a].start_ns < nodes_[b].start_ns; });
  }
  // The interval of list `l` containing [start, end], or -1. Lists never overlap within
  // themselves (one lane runs one phase at a time), so only the last interval starting at
  // or before `start` can contain it.
  auto containing = [&](const std::vector<size_t>& list, uint64_t start,
                        uint64_t end) -> int64_t {
    auto it = std::upper_bound(list.begin(), list.end(), start, [&](uint64_t s, size_t idx) {
      return s < nodes_[idx].start_ns;
    });
    if (it == list.begin()) {
      return -1;
    }
    const size_t idx = *(it - 1);
    return nodes_[idx].end_ns >= end ? static_cast<int64_t>(idx) : -1;
  };

  if (lanes != 0) {
    const std::vector<size_t>& drains =
        by_lane_phase[serial_lane * LayerBudget::kPhases +
                      static_cast<size_t>(PhaseProfiler::Phase::kSerialDrain)];
    for (size_t i = 1; i < nodes_.size(); ++i) {
      if (nodes_[i].phase == static_cast<int>(PhaseProfiler::Phase::kSerialDrain)) {
        continue;
      }
      const int64_t drain = containing(drains, nodes_[i].start_ns, nodes_[i].end_ns);
      nodes_[i].parent = drain >= 0 ? drain : 0;
    }
  }

  for (size_t slot = 0; slot < system.slots().size(); ++slot) {
    const SlotStats& stats = system.slots()[slot];
    spans_dropped_ += stats.spans_dropped;
    for (const Span& span : stats.spans) {
      if (span.call == Call::kRun) {
        continue;  // Node 0.
      }
      int64_t parent = 0;
      if (lanes != 0) {
        size_t candidates[2] = {serial_lane, 0};
        size_t n = 2;
        if (span.host_thread != 0) {
          const int shard = system.ShardOfSlot(slot, shards_);
          candidates[0] = shard < 0 ? serial_lane : static_cast<size_t>(shard);
          n = 1;
        }
        uint64_t best_dur = UINT64_MAX;
        for (size_t c = 0; c < n; ++c) {
          for (int p = 0; p < LayerBudget::kPhases; ++p) {
            const int64_t idx =
                containing(by_lane_phase[candidates[c] * LayerBudget::kPhases +
                                         static_cast<size_t>(p)],
                           span.start_ns, span.end_ns);
            if (idx >= 0) {
              const uint64_t dur = nodes_[idx].end_ns - nodes_[idx].start_ns;
              if (dur < best_dur) {
                best_dur = dur;
                parent = idx;
              }
            }
          }
        }
      }
      nodes_.push_back(Node{span.start_ns, span.end_ns, parent, -1, -1, &span});
    }
  }
}

LayerBudget SpanTree::Budget() const {
  using Phase = PhaseProfiler::Phase;
  const PhaseProfiler& profiler = *profiler_;
  LayerBudget b;
  b.run_ns = nodes_[0].end_ns - nodes_[0].start_ns;
  const size_t serial = profiler.serial_lane();
  // Shard lanes on the Run thread: shard 0's when worker threads ran the others, every
  // shard's when the engine ran them one after another (one shard, or one host core).
  const bool threaded = serial > 1 && std::thread::hardware_concurrency() > 1;
  const size_t coordinator_lanes = threaded ? 1 : serial;
  for (size_t l = 0; l < coordinator_lanes; ++l) {
    const PhaseProfiler::Lane& lane = profiler.lane(l);
    b.phase_ns[static_cast<int>(Phase::kScan)] += lane.total_ns[static_cast<int>(Phase::kScan)];
    b.phase_ns[static_cast<int>(Phase::kCommit)] +=
        lane.total_ns[static_cast<int>(Phase::kCommit)];
  }
  const PhaseProfiler::Lane& serial_lane = profiler.lane(serial);
  b.phase_ns[static_cast<int>(Phase::kSerialDrain)] =
      serial_lane.total_ns[static_cast<int>(Phase::kSerialDrain)];
  for (size_t i = 1; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.span == nullptr && n.lane == static_cast<int>(serial) &&
        n.phase == static_cast<int>(Phase::kBarrierWait) && n.parent != 0) {
      b.nested_barrier_ns += n.end_ns - n.start_ns;
    }
  }
  b.nested_exact = serial_lane.intervals_dropped == 0;
  if (b.nested_exact) {
    b.phase_ns[static_cast<int>(Phase::kBarrierWait)] =
        serial_lane.total_ns[static_cast<int>(Phase::kBarrierWait)] - b.nested_barrier_ns;
  }

  const SlotStats total = system_.Totals();
  auto coord = [&](Call c) { return total.coordinator_ns[static_cast<int>(c)]; };
  b.phase_core_ns[static_cast<int>(Phase::kScan)] =
      coord(Call::kSubmit) + coord(Call::kRunValid) + coord(Call::kValidMask);
  b.phase_core_ns[static_cast<int>(Phase::kCommit)] =
      coord(Call::kCommit) + coord(Call::kCommitMerged);
  b.phase_baselines_ns[static_cast<int>(Phase::kSerialDrain)] =
      coord(Call::kAccess) + coord(Call::kAccessOwned) + coord(Call::kEligible) +
      coord(Call::kNextSerialBoundary) + coord(Call::kFold);
  b.outside_decorated_ns = coord(Call::kMinEligibleCost) + coord(Call::kGroupAdd);

  int64_t residual = static_cast<int64_t>(b.run_ns) - static_cast<int64_t>(b.outside_decorated_ns);
  for (int p = 0; p < LayerBudget::kPhases; ++p) {
    residual -= static_cast<int64_t>(b.phase_ns[p]);
  }
  b.residual_ns = residual;
  return b;
}

bool SpanTree::WriteChromeJson(const std::string& path, size_t max_spans) const {
  std::vector<size_t> calls;
  for (size_t i = 1; i < nodes_.size(); ++i) {
    if (nodes_[i].span != nullptr) {
      calls.push_back(i);
    }
  }
  std::sort(calls.begin(), calls.end(),
            [&](size_t a, size_t b) { return nodes_[a].start_ns < nodes_[b].start_ns; });
  const size_t omitted = calls.size() > max_spans ? calls.size() - max_spans : 0;
  calls.resize(calls.size() - omitted);

  std::string out;
  out.reserve(256 + 160 * (nodes_.size() - omitted));
  out.append("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  char buf[512];
  bool first = true;
  auto emit = [&](size_t i, const char* name, int tid) {
    const Node& n = nodes_[i];
    const double ts_us = static_cast<double>(n.start_ns - origin_ns_) / 1e3;
    const double dur_us = static_cast<double>(n.end_ns - n.start_ns) / 1e3;
    int len = std::snprintf(buf, sizeof(buf),
                            "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                            "\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%zu,"
                            "\"parent\":%lld",
                            first ? "" : ",\n", name, n.span != nullptr ? "call" : "replay",
                            ts_us, dur_us, tid, i, static_cast<long long>(n.parent));
    out.append(buf, static_cast<size_t>(len));
    if (n.span != nullptr && n.span->thread_index != kNoThread) {
      len = std::snprintf(buf, sizeof(buf), ",\"thread\":%u,\"op\":%llu",
                          n.span->thread_index,
                          static_cast<unsigned long long>(n.span->op_index));
      out.append(buf, static_cast<size_t>(len));
    }
    out.append("}}");
    first = false;
  };
  emit(0, CallName(Call::kRun), 0);
  for (size_t i = 1; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.span == nullptr) {
      const std::string name =
          std::string("phase/") +
          PhaseProfiler::PhaseName(static_cast<PhaseProfiler::Phase>(n.phase));
      // Lane tracks sit beside the host-thread tracks.
      emit(i, name.c_str(), 100 + n.lane);
    }
  }
  for (const size_t i : calls) {
    emit(i, CallName(nodes_[i].span->call), nodes_[i].span->host_thread);
  }
  const int len = std::snprintf(
      buf, sizeof(buf),
      "\n],\"otherData\":{\"spans_written\":%zu,\"spans_omitted\":%zu,"
      "\"spans_dropped\":%llu,\"intervals_dropped\":%llu}}\n",
      calls.size(), omitted, static_cast<unsigned long long>(spans_dropped_),
      static_cast<unsigned long long>(intervals_dropped_));
  out.append(buf, static_cast<size_t>(len));
  std::ofstream f(path, std::ios::trunc);
  f << out;
  return f.good();
}

}  // namespace perfbench
