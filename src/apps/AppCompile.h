//===- apps/AppCompile.h - App kernels on the batched engine ----*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowering of the Tab. 4 application kernels to the batched flat
/// op-stream engine (DESIGN.md Sec. 19).
///
/// The regular kernels — sdk-red(-nf), cub-scan(-nf), cbe-dot, cbe-ht and
/// tpo-tm — compile once per (app, chip shape, fence policy) into a
/// BatchProgram: compile-time loops unrolled, lane roles (leader vs.
/// worker) split into per-lane op ranges, data-dependent loops (lock
/// spins, lookback polls, task-queue polling) expressed with register
/// branches, barriers as the engine's Barrier op,
/// and both built-in and policy fences baked into the stream at their
/// arming sites. Addresses are baked by replaying the context's
/// deterministic patch-aligned bump allocator; every run checks the
/// replayed layout against the live one.
///
/// apps::runApplicationOnce executes a lowerable kernel's plan in place of
/// the coroutine launch — traced, sink-attached and sequential runs
/// included — bit-identical to the coroutine engine draw for draw, tick
/// for tick and event for event, for any context history. An untraced
/// run that livelocks (tpo-tm's lost push) ends as soon as its timeout is
/// provable, with the same verdict and tick count (sim/BatchExec.h). Apps
/// with irregular control (ct-octree, ls-bh(-nf)) report !appLowerable and
/// stay on the coroutine path, as does everything under --engine=scalar.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_APPS_APPCOMPILE_H
#define GPUWMM_APPS_APPCOMPILE_H

#include "apps/Application.h"
#include "sim/BatchExec.h"

namespace gpuwmm {
namespace apps {

/// True iff compileApplication can lower \p K to the batched engine.
bool appLowerable(AppKind K);

/// A compiled application kernel: the op stream plus the allocation
/// layout the plan's baked addresses assume. Immutable once built.
struct AppPlan {
  sim::BatchProgram BP;
  uint64_t MaxTicks = 0; ///< The app's per-launch tick budget.
  /// allocatedWords() right after Application::setup — the replayed bump
  /// allocator's high-water mark, checked against every live run.
  unsigned SetupAllocWords = 0;
};

/// Compiles \p K for \p Chip under inserted-fence policy \p Policy
/// (null = none). Cached per (app, chip shape, policy mask); the returned
/// reference stays valid for the thread's lifetime. \p K must be
/// appLowerable.
const AppPlan &compileApplication(AppKind K, const sim::ChipProfile &Chip,
                                  const sim::FencePolicy *Policy);

} // namespace apps
} // namespace gpuwmm

#endif // GPUWMM_APPS_APPCOMPILE_H
