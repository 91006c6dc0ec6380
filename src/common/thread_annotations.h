// Static concurrency/determinism annotations — the vocabulary of the contract that
// docs/determinism.md states in prose and tools/detlint.py + Clang's Thread Safety
// Analysis enforce mechanically.
//
// Two independent annotation families live here:
//
//  1. Clang Thread Safety Analysis (TSA) macros (MIND_CAPABILITY, MIND_GUARDED_BY,
//     MIND_REQUIRES, ...). These expand to the `thread_safety` attributes under Clang and
//     to nothing elsewhere, so the GCC tier-1 build is unaffected while the CI
//     static-analysis job compiles with `-Wthread-safety -Werror=thread-safety`. Use them
//     on real mutex-protected state (see src/common/mutex.h for the annotated wrappers —
//     libstdc++'s std::mutex carries no capability attributes, so raw std::mutex members
//     are invisible to the analysis).
//
//  2. Phase tags (MIND_SERIALIZED_PATH / MIND_PARALLEL_PHASE). These mark which side of
//     the replay engine's determinism contract a function executes on:
//
//       MIND_SERIALIZED_PATH  — runs only on the global (clock, thread)-ordered merge
//                               step or in single-owner setup/teardown. May draw from
//                               seeded Rng streams and mutate global SystemCounters /
//                               histograms directly.
//       MIND_PARALLEL_PHASE   — runs concurrently across shard workers inside a phase
//                               (channel scan/commit). Must not draw RNG, must not
//                               touch global counters except through per-shard scratch
//                               mailboxes folded at the phase barrier.
//
//     Under Clang they expand to [[clang::annotate]]; under any compiler the macro token
//     itself is what tools/detlint.py keys on. Lambdas cannot take attributes portably — tag them with a
//     trailing comment on the definition line instead: `auto f = [&] { ... };  // MIND_PARALLEL_PHASE`.
#ifndef MIND_SRC_COMMON_THREAD_ANNOTATIONS_H_
#define MIND_SRC_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && !defined(SWIG)
#define MIND_THREAD_ANNOTATION_ATTRIBUTE_(x) __attribute__((x))
#else
#define MIND_THREAD_ANNOTATION_ATTRIBUTE_(x)  // no-op outside Clang
#endif

// ---- Clang Thread Safety Analysis -------------------------------------------------

#define MIND_CAPABILITY(x) MIND_THREAD_ANNOTATION_ATTRIBUTE_(capability(x))

#define MIND_SCOPED_CAPABILITY MIND_THREAD_ANNOTATION_ATTRIBUTE_(scoped_lockable)

#define MIND_GUARDED_BY(x) MIND_THREAD_ANNOTATION_ATTRIBUTE_(guarded_by(x))

#define MIND_PT_GUARDED_BY(x) MIND_THREAD_ANNOTATION_ATTRIBUTE_(pt_guarded_by(x))

#define MIND_REQUIRES(...) \
  MIND_THREAD_ANNOTATION_ATTRIBUTE_(requires_capability(__VA_ARGS__))

#define MIND_REQUIRES_SHARED(...) \
  MIND_THREAD_ANNOTATION_ATTRIBUTE_(requires_shared_capability(__VA_ARGS__))

#define MIND_ACQUIRE(...) \
  MIND_THREAD_ANNOTATION_ATTRIBUTE_(acquire_capability(__VA_ARGS__))

#define MIND_ACQUIRE_SHARED(...) \
  MIND_THREAD_ANNOTATION_ATTRIBUTE_(acquire_shared_capability(__VA_ARGS__))

#define MIND_RELEASE(...) \
  MIND_THREAD_ANNOTATION_ATTRIBUTE_(release_capability(__VA_ARGS__))

#define MIND_TRY_ACQUIRE(...) \
  MIND_THREAD_ANNOTATION_ATTRIBUTE_(try_acquire_capability(__VA_ARGS__))

#define MIND_EXCLUDES(...) MIND_THREAD_ANNOTATION_ATTRIBUTE_(locks_excluded(__VA_ARGS__))

#define MIND_RETURN_CAPABILITY(x) MIND_THREAD_ANNOTATION_ATTRIBUTE_(lock_returned(x))

#define MIND_NO_THREAD_SAFETY_ANALYSIS \
  MIND_THREAD_ANNOTATION_ATTRIBUTE_(no_thread_safety_analysis)

// ---- Determinism phase tags (consumed by tools/detlint.py) ------------------------

#if defined(__clang__) && !defined(SWIG)
#define MIND_SERIALIZED_PATH [[clang::annotate("mind::serialized_path")]]
#define MIND_PARALLEL_PHASE [[clang::annotate("mind::parallel_phase")]]
#else
#define MIND_SERIALIZED_PATH
#define MIND_PARALLEL_PHASE
#endif

#endif  // MIND_SRC_COMMON_THREAD_ANNOTATIONS_H_
