#ifndef LAPSE_UTIL_THREAD_ANNOTATIONS_H_
#define LAPSE_UTIL_THREAD_ANNOTATIONS_H_

// Clang thread-safety-analysis attributes (no-ops on GCC and MSVC).
//
// The locking discipline of this codebase is machine-checked: every lock
// type is a capability, fields are tied to the lock that guards them with
// LAPSE_GUARDED_BY, and functions that must be called with a lock held say
// so with LAPSE_REQUIRES. The `static-analysis` CI job compiles the whole
// tree with `clang++ -Wthread-safety -Werror`, so a violation -- or an
// access added without its annotation -- is a build error, not a TSan
// lottery ticket.
//
// Conventions used in this repo:
//  * util::Mutex / util::MutexLock / util::CondVar (util/sync.h) are the
//    annotated replacements for std::mutex / std::lock_guard /
//    std::condition_variable. libstdc++'s types carry no capability
//    attributes, so locking through them is invisible to the analysis.
//  * ps::Latch is a capability; ps::LatchGuard is its scoped guard.
//  * Per-key state guarded by its key's latch (LatchTable holds one latch
//    per key, picked at run time by the key) cannot name a single
//    capability in LAPSE_GUARDED_BY. Those fields are marked with
//    the no-op LAPSE_GUARDED_BY_KEY_LATCH, and the real checking moves to
//    the functions: internal helpers take the key's `Latch&` as a
//    parameter and declare LAPSE_REQUIRES(latch), which Clang verifies at
//    every call site against the latch the caller actually holds. Callers
//    bind the latch to a local reference first (`Latch& latch =
//    latches.ForKey(k); LatchGuard guard(latch);`) so the held capability
//    and the argument are the same expression.
//
// Attribute reference:
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html

#if defined(__clang__)
#define LAPSE_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define LAPSE_THREAD_ANNOTATION__(x)  // no-op on GCC/MSVC
#endif

// Type is a lockable capability (goes on the lock class itself).
#define LAPSE_CAPABILITY(x) LAPSE_THREAD_ANNOTATION__(capability(x))

// Type is an RAII object that acquires a capability in its constructor and
// releases it in its destructor.
#define LAPSE_SCOPED_CAPABILITY LAPSE_THREAD_ANNOTATION__(scoped_lockable)

// Field may only be read/written while holding the given capability.
#define LAPSE_GUARDED_BY(x) LAPSE_THREAD_ANNOTATION__(guarded_by(x))

// Pointer field whose *pointee* is guarded by the given capability.
#define LAPSE_PT_GUARDED_BY(x) LAPSE_THREAD_ANNOTATION__(pt_guarded_by(x))

// Documented no-op: the field is guarded by its key's latch in a
// LatchTable -- a data-dependent capability (latch k for key k) the static
// analysis cannot name. The invariant is enforced instead by LAPSE_REQUIRES(latch)
// on every function that touches the field (see header comment).
#define LAPSE_GUARDED_BY_KEY_LATCH

// Caller must hold the given capability (exclusively) to call.
#define LAPSE_REQUIRES(...) \
  LAPSE_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

// Caller must NOT hold the given capability (deadlock prevention).
#define LAPSE_EXCLUDES(...) \
  LAPSE_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

// Function acquires the capability and holds it past the return.
#define LAPSE_ACQUIRE(...) \
  LAPSE_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

// Function releases the capability (which the caller must hold).
#define LAPSE_RELEASE(...) \
  LAPSE_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

// Function attempts the acquisition; holds it iff the return value equals
// the first argument.
#define LAPSE_TRY_ACQUIRE(...) \
  LAPSE_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

// Function returns a reference to the given capability (capability
// aliasing for getters).
#define LAPSE_RETURN_CAPABILITY(x) \
  LAPSE_THREAD_ANNOTATION__(lock_returned(x))

// Escape hatch: function body is exempt from the analysis. Every use needs
// a comment explaining why the pattern cannot be expressed.
#define LAPSE_NO_THREAD_SAFETY_ANALYSIS \
  LAPSE_THREAD_ANNOTATION__(no_thread_safety_analysis)

#endif  // LAPSE_UTIL_THREAD_ANNOTATIONS_H_
