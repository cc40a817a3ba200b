//===- apps/AppsInternal.h - Private app factory hooks ----------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal factory functions wiring each case-study implementation into
/// the registry in Application.cpp (apps with an -nf variant take their
/// kind, which picks the plan), and the plan builder the lowered
/// kernels are written against (AppCompile.h). Not part of the public API.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_APPS_APPSINTERNAL_H
#define GPUWMM_APPS_APPSINTERNAL_H

#include "apps/AppCompile.h"

#include "sim/ChipProfile.h"
#include "support/Check.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

namespace gpuwmm {
namespace apps {
namespace detail {

std::unique_ptr<Application> makeCbeDot();
std::unique_ptr<Application> makeCbeHashtable();
std::unique_ptr<Application> makeCtOctree();
std::unique_ptr<Application> makeTpoTaskMgmt();
std::unique_ptr<Application> makeSdkReduction(AppKind K);
std::unique_ptr<Application> makeCubScan(AppKind K);
std::unique_ptr<Application> makeLsBarnesHut(AppKind K);

/// Builds an app's plan: for each kernel it launches, in launch order,
/// the op stream of every lane, in lane order, with register slots, fences
/// and the buffer layout baked in. A lowered kernel reads as the kernel:
/// one loop over its lanes, each lane's body written as the CUDA code's
/// statements, one suspending op per access.
class PlanBuilder {
public:
  using Code = sim::BatchOp::Code;

  /// \p PolicyMask has bit S set iff the inserted-fence policy fences
  /// site S.
  PlanBuilder(const sim::ChipProfile &Chip, uint32_t PolicyMask)
      : Chip(Chip), Mask(PolicyMask) {}

  /// Starts the next kernel with this launch shape; lanes, registers and
  /// ops up to the next launch belong to it.
  void launch(unsigned GridDim, unsigned BlockDim) {
    sim::BatchProgram &BP = Plan.Kernels.emplace_back();
    BP.GridDim = GridDim;
    BP.BlockDim = BlockDim;
    BP.Lanes.resize(static_cast<size_t>(GridDim) * BlockDim);
  }

  /// Replays MemorySystem::alloc: align the next free word up to the
  /// patch size, return the aligned base, bump by \p Words. Setup
  /// allocates the same buffers in the same order on the device.
  sim::Addr alloc(unsigned Words) {
    const unsigned P = Chip.PatchSizeWords;
    Next = (Next + P - 1) / P * P;
    const sim::Addr Base = Next;
    Next += Words;
    return Base;
  }

  /// \p N fresh, consecutive per-lane register slots (a step window when
  /// N > 1); returns the first.
  uint16_t regs(unsigned N) {
    sim::BatchProgram &BP = kernel();
    GPUWMM_CHECK(BP.NumSlots + N <= 0xffff, "register slots exhausted");
    BP.NumSlots += N;
    return static_cast<uint16_t>(BP.NumSlots - N);
  }
  uint16_t reg() { return regs(1); }

  void beginLane(unsigned Tid) {
    LaneTid = Tid;
    kernel().Lanes[Tid].Begin = size();
  }
  void endLane() { kernel().Lanes[LaneTid].End = size(); }

  uint32_t size() const {
    return static_cast<uint32_t>(Plan.Kernels.back().Ops.size());
  }

  uint32_t emit(Code C, uint16_t Slot = 0, uint16_t Slot2 = 0,
                sim::Addr A = 0, sim::Word Imm = 0) {
    kernel().Ops.push_back({C, Slot, Slot2, A, Imm});
    return size() - 1;
  }

  /// A Step op: \p F over the \p N registers from \p Window.
  void step(sim::StepFn F, uint16_t Window, unsigned N) {
    std::vector<sim::StepFn> &Steps = kernel().Steps;
    const auto It = std::find(Steps.begin(), Steps.end(), F);
    const size_t Idx = It - Steps.begin();
    if (It == Steps.end())
      Steps.push_back(F);
    emit(Code::Step, Window, static_cast<uint16_t>(N), 0,
         static_cast<sim::Word>(Idx));
  }

  /// A site-instrumented memory op: the op itself, then — when the
  /// policy fences the site — the inserted fence's two resumes: its
  /// base latency (Sleep(FenceBaseLatency)), then its drain
  /// (FenceDevice). Branches re-enter at the memory op, never mid-fence.
  uint32_t emitMem(Code C, int Site, uint16_t Slot, uint16_t Slot2,
                   sim::Addr A, sim::Word Imm = 0) {
    const uint32_t Idx = emit(C, Slot, Slot2, A, Imm);
    if (Site >= 0 && (Mask >> Site) & 1u) {
      emit(Code::Sleep, 0, 0, 0, Chip.FenceBaseLatency);
      emit(Code::FenceDevice);
    }
    return Idx;
  }

  /// A built-in fence (the kernel's own __threadfence()): a device fence
  /// when enabled, a one-tick no-op in the -nf variants.
  void builtinFence(bool Enabled) {
    if (Enabled)
      emit(Code::FenceDevice);
    else
      emit(Code::Sleep, 0, 0, 0, 1);
  }

  /// lock(mutex): spin on atomicCAS(mutex, 0, 1), site \p Site, with the
  /// random backoff yield(1 + rand(3)) after each failed attempt (it
  /// breaks deterministic starvation cycles, as contended spinlocks do on
  /// real hardware). \p Index, if not NoIndex, names a register added to
  /// the mutex address. \p RLock holds the compare value, then the old
  /// word.
  static constexpr uint16_t NoIndex = 0xffff;
  void spinLock(int Site, uint16_t RLock, sim::Addr Mutex,
                uint16_t Index = NoIndex) {
    const uint32_t Spin = emit(Code::MovImm, RLock, 0, 0, 0);
    if (Index == NoIndex)
      emitMem(Code::AtomicCas, Site, RLock, 0, Mutex, 1);
    else
      emitMem(Code::AtomicCasIdx, Site, RLock, Index, Mutex, 1);
    const uint32_t BrCrit = emit(Code::BrEq, RLock, 0, 0, 0);
    emit(Code::SleepRand, 0, 0, 1, 3);
    emit(Code::Jump, 0, 0, Spin);
    patch(BrCrit, size());
  }

  /// Retargets a branch/jump emitted earlier to \p Target.
  void patch(uint32_t OpIdx, uint32_t Target) {
    kernel().Ops[OpIdx].A = Target;
  }

  /// The finished plan; flags each kernel with a backward branch, so only
  /// looping kernels try runBatchProgram's provable-timeout check.
  AppPlan finish() {
    Plan.SetupAllocWords = Next;
    for (sim::BatchProgram &BP : Plan.Kernels) {
      BP.NumSlots = std::max(BP.NumSlots, 1u);
      for (uint32_t I = 0; I != BP.Ops.size(); ++I) {
        const sim::BatchOp &O = BP.Ops[I];
        BP.HasBackwardBranch |=
            O.C >= Code::Jump && O.C <= Code::BrLtRR && O.A <= I;
      }
    }
    return std::move(Plan);
  }

private:
  sim::BatchProgram &kernel() { return Plan.Kernels.back(); }

  const sim::ChipProfile &Chip;
  uint32_t Mask;
  AppPlan Plan;
  unsigned LaneTid = 0;
  sim::Addr Next = 0;
};

/// The lowered kernels, each in its app's source file.
void emitCbeDot(PlanBuilder &B);
void emitCbeHt(PlanBuilder &B);
void emitSdkRed(PlanBuilder &B, bool BuiltinFences);
void emitCubScan(PlanBuilder &B, bool BuiltinFences);
void emitTpoTm(PlanBuilder &B);
void emitCtOctree(PlanBuilder &B);
void emitLsBh(PlanBuilder &B, bool BuiltinFences);

/// ls-bh's bodies, and its sequentially consistent reference: the final
/// positions of the fenced plan run from initial positions \p X, \p Y
/// (LsBhNumBodies words each).
///
///  * lsBhHostReference evaluates the plan's integer algorithm on the
///    host. It returns false, leaving \p OutX and \p OutY unspecified,
///    wherever one of the plan's guards (node pool, descent or traversal
///    budget, traversal stack) would trip.
///  * lsBhPlanReference simulates the plan in sequential mode on a device
///    of \p Chip.
///  * lsBhReference, what setup() uses, is the host reference, falling
///    back to the plan reference where the host one declines; it counts
///    each fallback in lsBhReferenceFallbacks() (process-wide).
inline constexpr unsigned LsBhNumBodies = 32;
bool lsBhHostReference(const std::vector<sim::Word> &X,
                       const std::vector<sim::Word> &Y,
                       std::vector<sim::Word> &OutX,
                       std::vector<sim::Word> &OutY);
void lsBhPlanReference(const sim::ChipProfile &Chip,
                       const std::vector<sim::Word> &X,
                       const std::vector<sim::Word> &Y,
                       std::vector<sim::Word> &OutX,
                       std::vector<sim::Word> &OutY);
void lsBhReference(const sim::ChipProfile &Chip,
                   const std::vector<sim::Word> &X,
                   const std::vector<sim::Word> &Y,
                   std::vector<sim::Word> &OutX,
                   std::vector<sim::Word> &OutY);
uint64_t lsBhReferenceFallbacks();

/// The run() of every app: launches \p K's plan for \p Dev's chip and
/// fence policy on \p Dev, kernel by kernel, stopping at the first that
/// does not complete. \p SetupWords is the device's allocatedWords() at
/// the end of setup, checked against the plan's replayed layout. False if
/// a launch faulted.
bool runPlan(sim::Device &Dev, AppKind K, unsigned SetupWords);

} // namespace detail
} // namespace apps
} // namespace gpuwmm

#endif // GPUWMM_APPS_APPSINTERNAL_H
