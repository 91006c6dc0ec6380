// Span tree over one traced replay: the benchmark's Run span, the engine's PhaseProfiler
// intervals, and the decorator's per-call spans, each with its parent.
//
// Parents are found by containment. A phase interval's parent is the serialized-drain
// interval that encloses it (owner-parallel sub-rounds and their barrier waits run inside
// a drain) or else the Run span. A decorated call's parent is the innermost interval of
// the lane that ran it: on the thread that called Run that is shard 0's lane or the serial
// lane, on a worker thread the lane of the shard owning the call's blade or shard slot.
// A layer's self time is its span's duration minus the time its child spans cover.
#ifndef MIND_PERFBENCH_SPAN_REPORT_H_
#define MIND_PERFBENCH_SPAN_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/timed_system.h"
#include "src/obs/phase_profiler.h"

namespace perfbench {

// Where the Run span's wall time went on the thread that called Run. Every nanosecond is
// in exactly one bucket: a top-level profiler phase (split into the decorated calls it
// contains and the engine's own time), a decorated call outside every phase, or the
// residual the profiler and the decorator leave unexplained.
//
// Phase totals come from the profiler's lane totals, which are exact. Decorated calls are
// attributed to phases by kind, which the engine fixes: Submit, RunValid and ValidMask
// run only in scan phases, Commit and CommitMerged only in commit phases, the
// OwnerDrainOps calls and Access only inside drains, and MinEligibleCost and
// ChannelGroup::Add before the first round. Owner-parallel sub-rounds and the barrier
// waits that close them run inside drains; telling those apart from the waits after scan
// and commit phases takes the profiler's stored intervals. When the serial lane dropped
// some, the top-level barrier waits stay inside the residual instead.
struct LayerBudget {
  static constexpr int kPhases = mind::PhaseProfiler::kNumPhases;
  uint64_t run_ns = 0;
  uint64_t phase_ns[kPhases] = {};            // Top-level phases on the Run thread.
  uint64_t phase_baselines_ns[kPhases] = {};  // Decorated `baselines` calls inside them.
  uint64_t phase_core_ns[kPhases] = {};       // Decorated `core` calls inside them.
  uint64_t outside_decorated_ns = 0;          // Decorated calls before the first round.
  int64_t residual_ns = 0;                    // Run wall minus everything above.
  uint64_t nested_barrier_ns = 0;  // Barrier waits inside drains (inside phase_ns).
  bool nested_exact = true;        // False: top-level barrier waits are in the residual.
};

class SpanTree {
 public:
  // `shards` is the run's effective shard count; `profiler` may be null.
  SpanTree(const TimedSystem& system, const mind::PhaseProfiler* profiler, int shards);

  // Needs the profiler.
  [[nodiscard]] LayerBudget Budget() const;

  // Chrome trace_event JSON: one "X" event per span, args carrying id and parent (and the
  // thread/op ids of Access spans). Writes at most `max_spans` decorated spans — the
  // earliest — and records how many it left out. False on I/O error.
  [[nodiscard]] bool WriteChromeJson(const std::string& path, size_t max_spans) const;

 private:
  struct Node {
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    int64_t parent = -1;  // Index into nodes_; -1 for the Run span.
    int lane = -1;        // Profiler lane for phase nodes.
    int phase = -1;       // PhaseProfiler::Phase for phase nodes.
    const Span* span = nullptr;  // Decorated call (null for Run and phase nodes).
  };

  const TimedSystem& system_;
  const mind::PhaseProfiler* profiler_;
  int shards_;
  uint64_t origin_ns_ = 0;
  std::vector<Node> nodes_;  // [0] = Run, then phase intervals, then decorated calls.
  uint64_t intervals_dropped_ = 0;
  uint64_t spans_dropped_ = 0;
};

}  // namespace perfbench

#endif  // MIND_PERFBENCH_SPAN_REPORT_H_
