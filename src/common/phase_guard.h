// The determinism phase contract (docs/determinism.md): its static tags and their
// dynamic mirror.
//
// Phase tags mark which side of the replay engine's contract a function executes on:
//
//   MIND_SERIALIZED_PATH  — runs only on the global (clock, thread)-ordered merge step or
//                           in single-owner setup/teardown. May draw from seeded Rng
//                           streams and mutate global SystemCounters / histograms
//                           directly.
//   MIND_PARALLEL_PHASE   — runs inside a parallel phase (channel scan/commit), whose ops
//                           execute outside global (clock, thread) order relative to the
//                           per-op reference path. Must not draw RNG, must not touch global
//                           counters except through per-shard scratch mailboxes folded at
//                           the phase barrier.
//
// Under Clang the tags expand to [[clang::annotate]]; under any compiler the macro token
// itself is what tools/detlint.py keys on. Lambdas cannot take attributes portably — tag
// them with a trailing comment on the definition line instead:
// `auto f = [&] { ... };  // MIND_PARALLEL_PHASE`.
//
// The dynamic mirror: the replay engine brackets every parallel phase execution in a
// ParallelPhaseScope. Serialized-only primitives — above all Rng draws — assert
// MIND_ASSERT_SERIALIZED_CONTEXT() at their entry, so a contract violation that slips past
// tools/detlint.py (e.g. a draw behind a function pointer the linter cannot follow) still
// dies loudly in any debug/sanitizer build instead of silently breaking bit-identical
// replay. Release builds (NDEBUG) compile the check out.
#ifndef MIND_SRC_COMMON_PHASE_GUARD_H_
#define MIND_SRC_COMMON_PHASE_GUARD_H_

#include <cassert>

#if defined(__clang__) && !defined(SWIG)
#define MIND_SERIALIZED_PATH [[clang::annotate("mind::serialized_path")]]
#define MIND_PARALLEL_PHASE [[clang::annotate("mind::parallel_phase")]]
#else
#define MIND_SERIALIZED_PATH
#define MIND_PARALLEL_PHASE
#endif

namespace mind {
namespace detail {
inline thread_local bool g_in_parallel_phase = false;
}  // namespace detail

// True while the calling thread is executing inside a parallel phase.
inline bool InParallelPhase() { return detail::g_in_parallel_phase; }

// RAII bracket the phase executor places around parallel-phase work. Nests safely
// (restores the previous value), though phases do not currently nest.
class ParallelPhaseScope {
 public:
  ParallelPhaseScope() : prev_(detail::g_in_parallel_phase) {
    detail::g_in_parallel_phase = true;
  }
  ~ParallelPhaseScope() { detail::g_in_parallel_phase = prev_; }

  ParallelPhaseScope(const ParallelPhaseScope&) = delete;
  ParallelPhaseScope& operator=(const ParallelPhaseScope&) = delete;

 private:
  bool prev_;
};

// Entry assertion for MIND_SERIALIZED_PATH primitives whose misuse would break
// determinism (Rng draws, fault-plane loss decisions).
#define MIND_ASSERT_SERIALIZED_CONTEXT()                      \
  assert(!::mind::InParallelPhase() &&                        \
         "serialized-path primitive called inside a parallel " \
         "phase; see docs/determinism.md")

}  // namespace mind

#endif  // MIND_SRC_COMMON_PHASE_GUARD_H_
