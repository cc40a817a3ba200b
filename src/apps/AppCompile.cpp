//===- apps/AppCompile.cpp - Plan cache for the app kernels ------------------===//
//
// The plan cache and launch path of the application kernels (DESIGN.md
// Sec. 19). Each kernel is written once, as a PlanBuilder lowering in its
// app's source file next to its setup, site names and post-condition.
// Writing a kernel as a plan follows these rules:
//
//  * unroll every compile-time loop (grid-stride slices, block
//    reductions, the per-thread key loop, a node's four children) and
//    split lane roles: each lane gets its own op range, so
//    "if (threadIdx != 0) return" ends a lane's program early;
//  * keep data-dependent loops (lock spins, lookback polls, queue polls,
//    tree descents) as register branches: free ops run at the head of
//    the resume that issues the next suspending op, where a thread
//    evaluates its conditions;
//  * fold free arithmetic into fused suspending ops (LoadAcc,
//    LoadMulAcc) where convenient, and write what free ops cannot say
//    briefly (signed 64-bit arithmetic, a register-indexed stack) as a
//    Step function over a window of the lane's registers: register state
//    is invisible to the memory model;
//  * bake fences into the stream: a built-in fence is a FenceDevice op (a
//    Sleep(1) in the -nf variants), and an inserted policy fence after an
//    armed site is Sleep(FenceBaseLatency) then FenceDevice: the fence
//    is its own instruction after the access, so its drain lands
//    FenceBaseLatency ticks later, leaving the reordering window a
//    trailing fence cannot close (e.g. after an unlock);
//  * allocate buffers through a layout shared with setup, replaying
//    MemorySystem::alloc's patch-aligned bump allocator (checked against
//    the live layout every run);
//  * start each kernel with PlanBuilder::launch; PlanBuilder::finish flags
//    kernels with a backward branch: only those try runBatchProgram's
//    provable-timeout check.
//
// Both engines run the same plan: runBatchProgram, or under
// --engine=scalar the reference engine (the Scheduler) stepping it.
// Engine identity tests therefore cannot catch a wrong
// lowering; the seed-4 campaign, Fig. 5 cost and fence-site event-stream
// goldens (ParallelTests, HarnessTests, EngineIdentityTests), recorded
// from the hand-written coroutine kernels the lowerings replaced, pin the
// lowerings on both engines.
//
//===----------------------------------------------------------------------===//

#include "apps/AppCompile.h"

#include "apps/AppsInternal.h"
#include "sim/FencePolicy.h"

#include <memory>
#include <utility>
#include <vector>

using namespace gpuwmm;
using namespace gpuwmm::apps;

bool apps::appLowerable(AppKind) { return true; }

namespace {

//===----------------------------------------------------------------------===//
// Compilation + cache
//===----------------------------------------------------------------------===//

uint32_t policyMask(AppKind K, const sim::FencePolicy *Policy) {
  if (!Policy)
    return 0;
  const unsigned NumSites = appNumSites(K);
  GPUWMM_CHECK(Policy->numSites() == NumSites,
               "fence policy does not match the app's sites");
  GPUWMM_CHECK(NumSites <= 32, "policy mask too narrow");
  uint32_t Mask = 0;
  for (unsigned S = 0; S != NumSites; ++S)
    if (Policy->fenceAfter(static_cast<int>(S)))
      Mask |= 1u << S;
  return Mask;
}

AppPlan compile(AppKind K, const sim::ChipProfile &Chip, uint32_t Mask) {
  const bool Builtin = appHasBuiltinFences(K) && !isNoFenceVariant(K);
  detail::PlanBuilder B(Chip, Mask);
  switch (K) {
  case AppKind::SdkRed:
  case AppKind::SdkRedNf:
    detail::emitSdkRed(B, Builtin);
    break;
  case AppKind::CubScan:
  case AppKind::CubScanNf:
    detail::emitCubScan(B, Builtin);
    break;
  case AppKind::CbeDot:
    detail::emitCbeDot(B);
    break;
  case AppKind::CbeHt:
    detail::emitCbeHt(B);
    break;
  case AppKind::TpoTm:
    detail::emitTpoTm(B);
    break;
  case AppKind::CtOctree:
    detail::emitCtOctree(B);
    break;
  case AppKind::LsBh:
  case AppKind::LsBhNf:
    detail::emitLsBh(B, Builtin);
    break;
  }
  return B.finish();
}

/// Plan-cache key: everything a plan bakes in. Chips enter through the
/// two fields compilation reads (patch alignment for addresses, the
/// policy fence's base latency), not through identity — two chips that
/// agree on both share a plan correctly.
struct PlanKey {
  AppKind K;
  uint32_t Mask;
  unsigned PatchWords;
  unsigned FenceBase;
  bool operator==(const PlanKey &) const = default;
};

} // namespace

const AppPlan &apps::compileApplication(AppKind K,
                                        const sim::ChipProfile &Chip,
                                        const sim::FencePolicy *Policy) {
  const PlanKey Key{K, policyMask(K, Policy), Chip.PatchSizeWords,
                    Chip.FenceBaseLatency};
  // Worker-local cache, linear scan: campaigns touch a handful of
  // (app, chip) pairs and fence-insertion reductions a few dozen masks.
  thread_local std::vector<std::pair<PlanKey, std::unique_ptr<AppPlan>>>
      Cache;
  for (const auto &[CachedKey, Plan] : Cache)
    if (CachedKey == Key)
      return *Plan;
  Cache.emplace_back(Key,
                     std::make_unique<AppPlan>(compile(K, Chip, Key.Mask)));
  return *Cache.back().second;
}

bool apps::detail::runPlan(sim::Device &Dev, AppKind K, unsigned SetupWords) {
  const AppPlan &Plan = compileApplication(K, Dev.chip(), Dev.fencePolicy());
  GPUWMM_CHECK(SetupWords == Plan.SetupAllocWords,
               "allocation layout diverged from the compiled plan");
  for (const sim::BatchProgram &Kernel : Plan.Kernels)
    if (!Dev.run(Kernel).completed())
      return false;
  return true;
}
