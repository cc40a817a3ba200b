//===- support/Check.h - Invariant checks that survive NDEBUG ---*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// GPUWMM_CHECK: an invariant check that stays on in Release builds.
///
/// `assert` compiles out under NDEBUG, which is how users and the tier-1
/// suite build. The checks behind the engine-identity contract (compiled
/// plan layouts, run termination, program well-formedness, memory bounds)
/// must fail loudly in those builds too: each is an integer compare next
/// to a whole simulated run. A failed check prints file:line, the
/// condition and a message to stderr, then aborts.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_SUPPORT_CHECK_H
#define GPUWMM_SUPPORT_CHECK_H

#include <cstdio>
#include <cstdlib>

namespace gpuwmm {

[[noreturn, gnu::cold, gnu::noinline]] inline void
checkFailed(const char *File, int Line, const char *Cond, const char *Msg) {
  std::fprintf(stderr, "%s:%d: check failed: %s (%s)\n", File, Line, Msg,
               Cond);
  std::fflush(stderr);
  std::abort();
}

} // namespace gpuwmm

/// Aborts with file:line, \p Msg and the condition text unless \p Cond
/// holds — in every build type.
#define GPUWMM_CHECK(Cond, Msg)                                                \
  do {                                                                         \
    if (__builtin_expect(!(Cond), 0))                                          \
      ::gpuwmm::checkFailed(__FILE__, __LINE__, #Cond, Msg);                   \
  } while (0)

#endif // GPUWMM_SUPPORT_CHECK_H
