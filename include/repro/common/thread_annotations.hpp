// Clang thread-safety annotation macros (no-ops on other compilers).
//
// These wrap Clang's capability analysis attributes so every piece of
// shared mutable state in the library can declare, in the type system,
// which lock protects it. Building with clang and `-Wthread-safety`
// (wired up by the `static-analysis` CI job and the clang rows of the
// build matrix) then proves at compile time — on every file, on every
// PR — that each GUARDED_BY member is only touched with its capability
// held, that REQUIRES contracts hold at every call site, and that
// scoped locks release on all paths. GCC and other compilers see empty
// macros and compile the same code unchanged. Lock *order* is not an
// annotation: each common::Mutex carries a LockRank that is checked at
// run time on every acquisition (repro/common/mutex.hpp).
//
// Naming follows the Clang documentation's canonical macro set
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html), prefixed
// REPRO_ to stay out of other libraries' way.
#pragma once

#if defined(__clang__)
#define REPRO_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define REPRO_THREAD_ANNOTATION_(x)  // no-op off clang
#endif

/// Marks a class as a lock-like capability (e.g. "mutex").
#define REPRO_CAPABILITY(x) REPRO_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII class whose constructor acquires and destructor
/// releases a capability.
#define REPRO_SCOPED_CAPABILITY REPRO_THREAD_ANNOTATION_(scoped_lockable)

/// Data member readable/writable only with the given capability held.
#define REPRO_GUARDED_BY(x) REPRO_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member whose *pointee* is protected by the capability.
#define REPRO_PT_GUARDED_BY(x) REPRO_THREAD_ANNOTATION_(pt_guarded_by(x))

/// The function must be called with the capability held and does not
/// release it.
#define REPRO_REQUIRES(...) \
  REPRO_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// The function acquires the capability.
#define REPRO_ACQUIRE(...) \
  REPRO_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// The function releases the capability.
#define REPRO_RELEASE(...) \
  REPRO_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// The function must NOT be called with the capability held (guards
/// against self-deadlock on non-reentrant locks).
#define REPRO_EXCLUDES(...) \
  REPRO_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Asserts (at runtime) that the calling thread holds the capability;
/// informs the analysis without acquiring anything.
#define REPRO_ASSERT_CAPABILITY(x) \
  REPRO_THREAD_ANNOTATION_(assert_capability(x))

/// The function returns a reference to the given capability.
#define REPRO_RETURN_CAPABILITY(x) REPRO_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: disables the analysis inside one function. Every use
/// must carry a comment explaining why the analysis cannot see the
/// invariant (repro-lint's review surface for such exemptions).
#define REPRO_NO_THREAD_SAFETY_ANALYSIS \
  REPRO_THREAD_ANNOTATION_(no_thread_safety_analysis)

/// Documentation-only annotations read by repro-lint's coverage pass
/// (ISSUE 9). Neither expands to a compiler attribute — they record
/// the synchronization story of fields no lock guards:
///
/// CONST_AFTER_INIT: written during construction (or a single-threaded
/// setup phase that ends before any concurrent access) and immutable
/// afterwards, so unsynchronized reads are safe.
#define REPRO_CONST_AFTER_INIT
/// THREAD_CONFINED("owner"): only ever touched by the named thread
/// (e.g. the journal writer), so it needs no lock at all.
#define REPRO_THREAD_CONFINED(owner)
