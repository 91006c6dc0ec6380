// TraceScope: the per-run collection of trace sinks plus the deterministic
// merge, digest and Perfetto/Chrome trace_event JSON export.
//
// Topology (docs/observability.md):
//   * one CONTROL sink — written only on serialized paths (the systems' Access
//     hooks, AdvanceTo, epoch/fault hooks). All semantic events land here,
//     already in exact global (clock, thread) order, and ONLY semantic events
//     do: with the ring holding the pure semantic stream, drop-oldest overflow
//     displaces the same events for every execution mode, which is what makes
//     SemanticBytes() bit-identical across shard counts, grouping modes and
//     threading modes for a fixed seed + fault schedule.
//   * one ring-buffer sink PER SHARD — a scratch mailbox in the sense of
//     docs/determinism.md: written only by the worker currently executing that
//     shard's parallel phase (channel/group commit execution events), merged
//     here at the report boundary by a stable (clock, tid, kind) sort.
//
// Finalize() must be called after the worker join (the engine does this at the
// end of Run); merged()/digest/export are only meaningful afterwards.
#ifndef MIND_SRC_OBS_TRACE_SCOPE_H_
#define MIND_SRC_OBS_TRACE_SCOPE_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace mind {

class PhaseProfiler;

class TraceScope {
 public:
  static constexpr size_t kDefaultCapacityPerSink = 1 << 16;

  explicit TraceScope(int num_shards, size_t capacity_per_sink = kDefaultCapacityPerSink);

  // The serialized-path sink (the systems' semantic events land here).
  [[nodiscard]] TraceSink* control() { return &control_; }
  // Shard s's execution-event mailbox; single-writer per phase discipline.
  [[nodiscard]] TraceSink* shard(int s) { return shards_[static_cast<size_t>(s)].get(); }
  [[nodiscard]] int num_shards() const { return static_cast<int>(shards_.size()); }

  // Merges all sinks into one timeline (stable sort by (clock, tid, kind));
  // call once after the last emission.
  void Finalize();
  [[nodiscard]] bool finalized() const { return finalized_; }
  [[nodiscard]] const std::vector<TraceEvent>& merged() const { return merged_; }
  [[nodiscard]] uint64_t dropped() const;

  // Canonical little-endian byte serialization of the SEMANTIC events in
  // control-sink emission order. This is the determinism witness: bit-identical
  // across 1/2/4/8 shards x groups on/off for the same seed + fault schedule.
  [[nodiscard]] std::string SemanticBytes() const;
  // FNV-1a over SemanticBytes(), for cheap cross-run comparison in reports.
  [[nodiscard]] uint64_t SemanticDigest() const;
  [[nodiscard]] size_t semantic_events() const;
  [[nodiscard]] size_t execution_events() const;

  // Chrome trace_event JSON ("traceEvents" array of X/i events, simulated ns
  // rendered on the microsecond timebase; pid=blade, tid=thread). When
  // `profiler` is non-null its wall-clock lanes are appended as a separate
  // process track. Loadable in Perfetto / chrome://tracing; validated by
  // tools/trace_export.py.
  void WriteChromeJson(std::ostream& os, const PhaseProfiler* profiler = nullptr) const;
  // Convenience file writer; returns false (and reports nothing else) on I/O error.
  [[nodiscard]] bool WriteChromeJsonFile(const std::string& path,
                                         const PhaseProfiler* profiler = nullptr) const;

 private:
  TraceSink control_;
  std::vector<std::unique_ptr<TraceSink>> shards_;
  std::vector<TraceEvent> merged_;
  bool finalized_ = false;
};

}  // namespace mind

#endif  // MIND_SRC_OBS_TRACE_SCOPE_H_
