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
/// Every kernel of the ten apps is written once, as a lowering to the flat
/// op stream of sim/BatchExec.h, in its app's source file: compile-time
/// loops unrolled, lane roles (leader vs. worker) split into per-lane op
/// ranges, data-dependent loops (lock spins, lookback polls, queue polls,
/// tree descents and traversals) expressed with register branches,
/// arithmetic that free ops cannot spell out cheaply (ls-bh's signed
/// opening test and traversal stack, the quadrant and leaf-cell
/// arithmetic) as Step functions, barriers as the engine's Barrier op, and
/// both built-in and policy fences baked into the stream at their arming
/// sites. A plan is the ordered list of kernels an app launches (four for
/// ls-bh, one for the others) and compiles once per (app, chip shape,
/// fence policy). Addresses are baked by replaying the context's
/// deterministic patch-aligned bump allocator over a buffer layout the
/// app's setup shares; every run checks the replayed layout against the
/// live one.
///
/// Each app's run() launches its plan through sim::Device, so every
/// caller (runApplicationOnce, the Fig. 5 cost study, ls-bh's SC
/// reference) takes the same path: runBatchProgram by default, or under
/// --engine=scalar the reference engine (the Scheduler) stepping the same
/// plan. An untraced compiled run that livelocks
/// (tpo-tm's lost push) ends as soon as its timeout is provable, with the
/// same verdict and tick count (sim/BatchExec.h).
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_APPS_APPCOMPILE_H
#define GPUWMM_APPS_APPCOMPILE_H

#include "apps/Application.h"
#include "sim/BatchExec.h"

#include <vector>

namespace gpuwmm {
namespace apps {

/// True for every app: each is written as a plan. Kept for callers that
/// still split their accounting by engine.
bool appLowerable(AppKind K);

/// A compiled application: the op streams of the kernels it launches, in
/// launch order, plus the allocation layout their baked addresses assume.
/// Immutable once built.
struct AppPlan {
  std::vector<sim::BatchProgram> Kernels;
  /// allocatedWords() right after Application::setup — the replayed bump
  /// allocator's high-water mark, checked against every live run.
  unsigned SetupAllocWords = 0;
};

/// Compiles \p K for \p Chip under inserted-fence policy \p Policy
/// (null = none). Cached per (app, chip shape, policy mask); the returned
/// reference stays valid for the thread's lifetime.
const AppPlan &compileApplication(AppKind K, const sim::ChipProfile &Chip,
                                  const sim::FencePolicy *Policy);

} // namespace apps
} // namespace gpuwmm

#endif // GPUWMM_APPS_APPCOMPILE_H
