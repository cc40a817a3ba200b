//===- apps/AppCompile.h - App kernels on the batched engine ----*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Tab. 4 application kernels as compiled plans (DESIGN.md Sec. 19).
///
/// The regular kernels — sdk-red(-nf), cub-scan(-nf), cbe-dot, cbe-ht and
/// tpo-tm — are written once, as lowerings to the flat op stream of
/// sim/BatchExec.h, each in its app's source file: compile-time loops
/// unrolled, lane roles (leader vs. worker) split into per-lane op
/// ranges, data-dependent loops (lock spins, lookback polls, task-queue
/// polling) expressed with register branches, barriers as the engine's
/// Barrier op, and both built-in and policy fences baked into the stream
/// at their arming sites. A plan compiles once per (app, chip shape,
/// fence policy). Addresses are baked by replaying the context's
/// deterministic patch-aligned bump allocator over a buffer layout the
/// app's setup shares; every run checks the replayed layout against the
/// live one.
///
/// Each lowered app's run() launches its plan through sim::Device, so
/// every caller (runApplicationOnce, the Fig. 5 cost study) takes the
/// same path: runBatchProgram by default, or under --engine=scalar
/// sim::runProgram's interpretation of the same plan on the coroutine
/// scheduler. An untraced compiled run that livelocks (tpo-tm's lost
/// push) ends as soon as its timeout is provable, with the same verdict
/// and tick count (sim/BatchExec.h). Apps with irregular control
/// (ct-octree, ls-bh(-nf)) report !appLowerable and stay coroutine
/// kernels on both engines.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_APPS_APPCOMPILE_H
#define GPUWMM_APPS_APPCOMPILE_H

#include "apps/Application.h"
#include "sim/BatchExec.h"

namespace gpuwmm {
namespace apps {

/// True iff \p K is written as a plan (compileApplication lowers it).
bool appLowerable(AppKind K);

/// A compiled application kernel: the op stream plus the allocation
/// layout the plan's baked addresses assume. Immutable once built.
struct AppPlan {
  sim::BatchProgram BP;
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
