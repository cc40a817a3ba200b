//===- apps/AppCompile.cpp - App kernels on the batched engine ----------------===//
//
// Lowering rules (DESIGN.md Sec. 19). The coroutine kernels execute as
// "free computation, then one co_await op" per resume; fidelity to the
// scalar engine needs only the suspending ops' side effects, sleeps and
// RNG draws to land in the same resumes, in the same order. The lowerings
// below therefore:
//
//  * unroll every compile-time loop (grid-stride slices, block
//    reductions, the per-thread key loop) and split lane roles — each
//    lane gets its own op range, so "if (threadIdx != 0) co_return"
//    becomes a shorter lane program;
//  * keep data-dependent loops (lock spins, lookback polls) as register
//    branches: free ops run at the head of the resume that issues the
//    next suspending op, exactly where the coroutine body evaluates its
//    conditions;
//  * fold free arithmetic into fused suspending ops (LoadAcc,
//    LoadMulAcc) where convenient — register state is invisible to the
//    memory model, so only op-for-op resume alignment matters;
//  * bake fences into the stream: a built-in fence is a FenceDevice op
//    (or a Sleep(1) in the -nf variants, matching the disabled
//    opBuiltinFence), and an inserted policy fence becomes the exact
//    two-resume sequence the scalar PendingFenceStage machinery executes
//    — Sleep(FenceBaseLatency), then FenceDevice — emitted directly
//    after each armed site, including inside spin loops (branch targets
//    re-enter at the memory op, never mid-fence);
//  * bake addresses by replaying MemorySystem::alloc's patch-aligned
//    bump allocator over the app's setup allocation sequence (checked
//    against the live layout every run);
//  * flag plans with a backward branch (PlanBuilder::finish): only those
//    try runBatchProgram's provable-timeout check.
//
// Site-id tables mirror the file-local Site enums of the app sources
// (SdkReduction.cpp, CubScan.cpp, CbeDot.cpp, CbeHashtable.cpp,
// TpoTaskMgmt.cpp); the AppBatch and event-stream identity grids run
// every app under fence policies, so any drift between the tables and
// the kernels fails the tier-1 suite.
//
//===----------------------------------------------------------------------===//

#include "apps/AppCompile.h"

#include "sim/ChipProfile.h"
#include "sim/FencePolicy.h"
#include "support/Check.h"

#include <memory>
#include <utility>
#include <vector>

using namespace gpuwmm;
using namespace gpuwmm::apps;
using sim::Addr;
using sim::BatchOp;
using sim::Word;
using Code = sim::BatchOp::Code;

bool apps::appLowerable(AppKind K) {
  switch (K) {
  case AppKind::CbeHt:
  case AppKind::CbeDot:
  case AppKind::SdkRed:
  case AppKind::SdkRedNf:
  case AppKind::CubScan:
  case AppKind::CubScanNf:
  case AppKind::TpoTm:
    return true;
  case AppKind::CtOctree: // Dynamic work queues (data-dependent fan-out).
  case AppKind::LsBh:     // Tree build with retry loops over child slots.
  case AppKind::LsBhNf:
    return false;
  }
  return false;
}

namespace {

//===----------------------------------------------------------------------===//
// PlanBuilder
//===----------------------------------------------------------------------===//

class PlanBuilder {
public:
  PlanBuilder(const sim::ChipProfile &Chip, uint32_t PolicyMask,
              unsigned GridDim, unsigned BlockDim)
      : Chip(Chip), Mask(PolicyMask) {
    Plan.BP.GridDim = GridDim;
    Plan.BP.BlockDim = BlockDim;
    Plan.BP.Lanes.resize(static_cast<size_t>(GridDim) * BlockDim);
  }

  /// Replays MemorySystem::alloc: align NextFree up to the patch size,
  /// return the aligned base, bump by Words.
  Addr alloc(unsigned Words) {
    const unsigned P = Chip.PatchSizeWords;
    Next = (Next + P - 1) / P * P;
    const Addr Base = Next;
    Next += Words;
    return Base;
  }

  /// A fresh per-lane register slot.
  uint16_t reg() {
    GPUWMM_CHECK(Plan.BP.NumSlots < 0xffff, "register slots exhausted");
    return static_cast<uint16_t>(Plan.BP.NumSlots++);
  }

  void beginLane(unsigned Tid) {
    LaneTid = Tid;
    Plan.BP.Lanes[Tid].Begin = size();
  }
  void endLane() { Plan.BP.Lanes[LaneTid].End = size(); }

  uint32_t size() const {
    return static_cast<uint32_t>(Plan.BP.Ops.size());
  }

  uint32_t emit(Code C, uint16_t Slot = 0, uint16_t Slot2 = 0, Addr A = 0,
                Word Imm = 0) {
    Plan.BP.Ops.push_back({C, Slot, Slot2, A, Imm});
    return size() - 1;
  }

  /// A site-instrumented memory op: the op itself, then — when the
  /// policy fences the site — the two-resume inserted-fence sequence the
  /// scalar armPolicyFence/PendingFenceStage machinery produces.
  uint32_t emitMem(Code C, int Site, uint16_t Slot, uint16_t Slot2, Addr A,
                   Word Imm = 0) {
    const uint32_t Idx = emit(C, Slot, Slot2, A, Imm);
    if (Site >= 0 && (Mask >> Site) & 1u) {
      emit(Code::Sleep, 0, 0, 0, Chip.FenceBaseLatency);
      emit(Code::FenceDevice);
    }
    return Idx;
  }

  /// A built-in fence: opFenceDevice when enabled, the disabled
  /// opBuiltinFence's one-tick sleep in the -nf variants.
  void builtinFence(bool Enabled) {
    if (Enabled)
      emit(Code::FenceDevice);
    else
      emit(Code::Sleep, 0, 0, 0, 1);
  }

  /// lock(mutex): spin on atomicCAS(mutex, 0, 1), site \p Site, with the
  /// random backoff yield(1 + rand(3)) after each failed attempt.
  void spinLock(int Site, uint16_t RLock, Addr Mutex) {
    const uint32_t Spin = size();
    emitMem(Code::AtomicCas, Site, RLock, 0, Mutex, 1u << 16);
    const uint32_t BrCrit = emit(Code::BrEq, RLock, 0, 0, 0);
    emit(Code::SleepRand, 0, 0, 1, 3);
    emit(Code::Jump, 0, 0, Spin);
    patch(BrCrit, size());
  }

  /// Retargets a branch/jump emitted earlier to \p Target.
  void patch(uint32_t OpIdx, uint32_t Target) {
    Plan.BP.Ops[OpIdx].A = Target;
  }

  AppPlan finish(uint64_t MaxTicks) {
    Plan.MaxTicks = MaxTicks;
    Plan.SetupAllocWords = Next;
    Plan.BP.NumSlots = std::max(Plan.BP.NumSlots, 1u);
    for (uint32_t I = 0; I != size(); ++I) {
      const BatchOp &O = Plan.BP.Ops[I];
      Plan.BP.HasBackwardBranch |=
          O.C >= Code::Jump && O.C <= Code::BrLtRR && O.A <= I;
    }
    return std::move(Plan);
  }

private:
  const sim::ChipProfile &Chip;
  uint32_t Mask;
  AppPlan Plan;
  unsigned LaneTid = 0;
  Addr Next = 0;
};

//===----------------------------------------------------------------------===//
// sdk-red / sdk-red-nf (SdkReduction.cpp)
//===----------------------------------------------------------------------===//

namespace sdkred {
enum : int {
  SiteLoadInput = 0,
  SitePartialSt,
  SiteCounterAdd,
  SitePartialLd,
  SiteOutSt
};
constexpr unsigned N = 256, GridDim = 8, BlockDim = 32;
} // namespace sdkred

void emitSdkRed(PlanBuilder &B, bool BuiltinFences) {
  using namespace sdkred;
  const Addr In = B.alloc(N);
  const Addr Cache = B.alloc(GridDim * BlockDim);
  const Addr Partials = B.alloc(GridDim);
  const Addr Counter = B.alloc(1);
  const Addr Out = B.alloc(1);

  for (unsigned Tid = 0; Tid != GridDim * BlockDim; ++Tid) {
    const unsigned Blk = Tid / BlockDim, L = Tid % BlockDim;
    B.beginLane(Tid);

    // Temp = 0; grid-stride sum (stride == N: one iteration at I = Tid).
    const uint16_t RT = B.reg();
    B.emit(Code::MovImm, RT);
    B.emitMem(Code::LoadAcc, SiteLoadInput, RT, 0, In + Tid);
    // st(cache[tid], Temp); syncthreads.
    B.emitMem(Code::WbStore, sim::NoSite, RT, 0, Cache + Tid);
    B.emit(Code::Barrier);
    if (L != 0) { // if (threadIdx != 0) co_return;
      B.endLane();
      continue;
    }

    // Leader: block reduction over the cache.
    const uint16_t RSum = B.reg();
    B.emit(Code::MovImm, RSum);
    for (unsigned I = 0; I != BlockDim; ++I)
      B.emitMem(Code::LoadAcc, sim::NoSite, RSum, 0,
                Cache + Blk * BlockDim + I);
    B.emitMem(Code::WbStore, SitePartialSt, RSum, 0, Partials + Blk);
    B.builtinFence(BuiltinFences); // The SDK __threadfence().
    const uint16_t RTicket = B.reg();
    B.emitMem(Code::AtomicAddReg, SiteCounterAdd, RTicket, 0, Counter, 1);
    // if (Ticket != gridDim - 1) co_return;
    const uint32_t Br = B.emit(Code::BrNe, RTicket, 0, 0, GridDim - 1);

    // Last block standing combines every partial.
    const uint16_t RTot = B.reg();
    B.emit(Code::MovImm, RTot);
    for (unsigned P = 0; P != GridDim; ++P)
      B.emitMem(Code::LoadAcc, SitePartialLd, RTot, 0, Partials + P);
    B.emitMem(Code::WbStore, SiteOutSt, RTot, 0, Out);
    B.patch(Br, B.size()); // co_return == lane end.
    B.endLane();
  }
}

//===----------------------------------------------------------------------===//
// cub-scan / cub-scan-nf (CubScan.cpp)
//===----------------------------------------------------------------------===//

namespace cubscan {
enum : int {
  SiteInLd = 0,
  SiteAggSt,
  SiteFlagAggSt,
  SiteFlagLd,
  SiteAggLd,
  SiteInclLd,
  SiteInclSt,
  SiteFlagInclSt,
  SiteOutSt
};
constexpr unsigned GridDim = 8, BlockDim = 32, N = GridDim * BlockDim;
constexpr Word FlagEmpty = 0, FlagAgg = 1, FlagIncl = 2;
} // namespace cubscan

void emitCubScan(PlanBuilder &B, bool BuiltinFences) {
  using namespace cubscan;
  const Addr In = B.alloc(N);
  const Addr Cache = B.alloc(N);
  const Addr Aggregates = B.alloc(GridDim);
  const Addr Inclusives = B.alloc(GridDim);
  const Addr Flags = B.alloc(GridDim);
  const Addr Exclusive = B.alloc(GridDim);
  const Addr Out = B.alloc(N);

  for (unsigned Tid = 0; Tid != N; ++Tid) {
    const unsigned Blk = Tid / BlockDim, L = Tid % BlockDim;
    B.beginLane(Tid);

    // Stage the value in the shared-memory cache.
    const uint16_t RV = B.reg();
    B.emitMem(Code::Load, SiteInLd, RV, 0, In + Tid);
    B.emitMem(Code::WbStore, sim::NoSite, RV, 0, Cache + Tid);
    B.emit(Code::Barrier);

    if (L == 0) {
      // Leader: block-local inclusive scan in shared memory.
      const uint16_t RRun = B.reg();
      B.emit(Code::MovImm, RRun);
      for (unsigned I = 0; I != BlockDim; ++I) {
        B.emitMem(Code::LoadAcc, sim::NoSite, RRun, 0,
                  Cache + Blk * BlockDim + I);
        B.emitMem(Code::WbStore, sim::NoSite, RRun, 0,
                  Cache + Blk * BlockDim + I);
      }
      // Handshake 1: publish the block aggregate.
      B.emitMem(Code::WbStore, SiteAggSt, RRun, 0, Aggregates + Blk);
      B.builtinFence(BuiltinFences); // CUB's first __threadfence().
      B.emitMem(Code::Store, SiteFlagAggSt, 0, 0, Flags + Blk, FlagAgg);

      // Decoupled lookback for the exclusive prefix.
      const uint16_t RPrefix = B.reg();
      B.emit(Code::MovImm, RPrefix);
      if (Blk != 0) {
        const uint16_t RJ = B.reg();
        const uint16_t RFlag = B.reg();
        B.emit(Code::MovImm, RJ, 0, 0, Blk - 1);
        const uint32_t Poll = B.size();
        B.emitMem(Code::LoadIdx, SiteFlagLd, RFlag, RJ, Flags);
        const uint32_t BrHave = B.emit(Code::BrNe, RFlag, 0, 0, FlagEmpty);
        B.emit(Code::Sleep, 0, 0, 0, 2); // yield(2) while empty.
        B.emit(Code::Jump, 0, 0, Poll);
        B.patch(BrHave, B.size());
        const uint32_t BrIncl = B.emit(Code::BrEq, RFlag, 0, 0, FlagIncl);
        B.emitMem(Code::LoadAccIdx, SiteAggLd, RPrefix, RJ, Aggregates);
        const uint32_t BrDone = B.emit(Code::BrEq, RJ, 0, 0, 0);
        B.emit(Code::AddImm, RJ, RJ, 0, 0xffffffffu); // --J.
        B.emit(Code::Jump, 0, 0, Poll);
        B.patch(BrIncl, B.size());
        B.emitMem(Code::LoadAccIdx, SiteInclLd, RPrefix, RJ, Inclusives);
        B.patch(BrDone, B.size());
      }
      // Handshake 2: publish the inclusive prefix.
      const uint16_t RIncl = B.reg();
      B.emit(Code::AddRR, RIncl, RPrefix, RRun);
      B.emitMem(Code::WbStore, SiteInclSt, RIncl, 0, Inclusives + Blk);
      B.builtinFence(BuiltinFences); // CUB's second __threadfence().
      B.emitMem(Code::Store, SiteFlagInclSt, 0, 0, Flags + Blk, FlagIncl);
      B.emitMem(Code::WbStore, sim::NoSite, RPrefix, 0, Exclusive + Blk);
    }
    B.emit(Code::Barrier);

    // out[gid] = exclusive[block] + scanned[tid].
    const uint16_t RP = B.reg();
    B.emitMem(Code::Load, sim::NoSite, RP, 0, Exclusive + Blk);
    B.emitMem(Code::LoadAcc, sim::NoSite, RP, 0, Cache + Tid);
    B.emitMem(Code::WbStore, SiteOutSt, RP, 0, Out + Tid);
    B.endLane();
  }
}

//===----------------------------------------------------------------------===//
// cbe-dot (CbeDot.cpp)
//===----------------------------------------------------------------------===//

namespace cbedot {
enum : int {
  SiteLoadInput = 0,
  SiteLockCAS,
  SiteLoadC,
  SiteStoreC,
  SiteUnlockExch
};
constexpr unsigned N = 256, GridDim = 4, BlockDim = 32;
} // namespace cbedot

void emitCbeDot(PlanBuilder &B) {
  using namespace cbedot;
  const Addr A = B.alloc(N);
  const Addr Bv = B.alloc(N);
  const Addr Cache = B.alloc(GridDim * BlockDim);
  const Addr Mutex = B.alloc(1);
  const Addr C = B.alloc(1);
  const unsigned Stride = GridDim * BlockDim; // 128: two iterations.

  for (unsigned Tid = 0; Tid != GridDim * BlockDim; ++Tid) {
    const unsigned Blk = Tid / BlockDim, L = Tid % BlockDim;
    B.beginLane(Tid);

    // Grid-stride partial products: Temp += a[i] * b[i], i in
    // {gid, gid + 128}. The multiply-accumulate folds into the b-load's
    // resume; the scalar body computes it as free code one resume later,
    // which no memory op can observe.
    const uint16_t RA = B.reg();
    const uint16_t RT = B.reg();
    B.emit(Code::MovImm, RT);
    for (unsigned I = Tid; I < N; I += Stride) {
      B.emitMem(Code::Load, SiteLoadInput, RA, 0, A + I);
      B.emitMem(Code::LoadMulAcc, SiteLoadInput, RT, RA, Bv + I);
    }
    B.emitMem(Code::WbStore, sim::NoSite, RT, 0, Cache + Tid);
    B.emit(Code::Barrier);
    if (L != 0) { // if (cacheIndex != 0) co_return;
      B.endLane();
      continue;
    }

    const uint16_t RSum = B.reg();
    B.emit(Code::MovImm, RSum);
    for (unsigned I = 0; I != BlockDim; ++I)
      B.emitMem(Code::LoadAcc, sim::NoSite, RSum, 0,
                Cache + Blk * BlockDim + I);

    B.spinLock(SiteLockCAS, B.reg(), Mutex);

    // *c += blockSum; unlock(mutex).
    const uint16_t ROld = B.reg();
    const uint16_t RNew = B.reg();
    B.emitMem(Code::Load, SiteLoadC, ROld, 0, C);
    B.emit(Code::AddRR, RNew, ROld, RSum);
    B.emitMem(Code::WbStore, SiteStoreC, RNew, 0, C);
    B.emitMem(Code::AtomicExch, SiteUnlockExch, 0, 0, Mutex, 0);
    B.endLane();
  }
}

//===----------------------------------------------------------------------===//
// cbe-ht (CbeHashtable.cpp)
//===----------------------------------------------------------------------===//

namespace cbeht {
enum : int {
  SiteLockCAS = 0,
  SiteHeadLd,
  SiteNextSt,
  SiteKeySt,
  SiteHeadSt,
  SiteUnlockExch
};
constexpr unsigned NumBuckets = 8, GridDim = 2, BlockDim = 32;
constexpr unsigned KeysPerThread = 2;
constexpr unsigned NumKeys = GridDim * BlockDim * KeysPerThread;
} // namespace cbeht

void emitCbeHt(PlanBuilder &B) {
  using namespace cbeht;
  const Addr Keys = B.alloc(NumKeys);
  const Addr Heads = B.alloc(NumBuckets);
  const Addr Mutexes = B.alloc(NumBuckets);
  const Addr NodeKeys = B.alloc(NumKeys);
  const Addr NodeNexts = B.alloc(NumKeys);

  for (unsigned Tid = 0; Tid != GridDim * BlockDim; ++Tid) {
    B.beginLane(Tid);
    const uint16_t RKey = B.reg();
    const uint16_t RB = B.reg();
    const uint16_t RLock = B.reg();
    const uint16_t RHead = B.reg();

    for (unsigned I = 0; I != KeysPerThread; ++I) {
      const unsigned NodeIdx = Tid * KeysPerThread + I;
      B.emitMem(Code::Load, sim::NoSite, RKey, 0, Keys + NodeIdx);
      // bucket = (key * 2654435761) % NumBuckets (free, data-dependent).
      B.emit(Code::MulImm, RB, RKey, 0, 2654435761u);
      B.emit(Code::ModImm, RB, RB, 0, NumBuckets);

      // lock(mutexes[bucket]) with random backoff.
      const uint32_t Spin = B.size();
      B.emitMem(Code::AtomicCasIdx, SiteLockCAS, RLock, RB, Mutexes,
                1u << 16);
      const uint32_t BrCrit = B.emit(Code::BrEq, RLock, 0, 0, 0);
      B.emit(Code::SleepRand, 0, 0, 1, 3); // yield(1 + rand(3)).
      B.emit(Code::Jump, 0, 0, Spin);
      B.patch(BrCrit, B.size());

      // Link the node in front of the bucket chain.
      B.emitMem(Code::LoadIdx, SiteHeadLd, RHead, RB, Heads);
      B.emitMem(Code::WbStore, SiteNextSt, RHead, 0, NodeNexts + NodeIdx);
      B.emitMem(Code::WbStore, SiteKeySt, RKey, 0, NodeKeys + NodeIdx);
      B.emitMem(Code::StoreIdx, SiteHeadSt, 0, RB, Heads, NodeIdx);
      B.emitMem(Code::AtomicExchIdx, SiteUnlockExch, 0, RB, Mutexes, 0);
    }
    B.endLane();
  }
}

//===----------------------------------------------------------------------===//
// tpo-tm (TpoTaskMgmt.cpp)
//===----------------------------------------------------------------------===//

namespace tpotm {
enum : int {
  SiteLockCAS = 0,
  SiteHeadLd,
  SiteTailLd,
  SiteBufLd,
  SiteBufSt,
  SiteTailSt,
  SiteUnlockExch
};
constexpr unsigned GridDim = 4, BlockDim = 16;
constexpr unsigned RootTasks = 24, ChildrenPerRoot = 2;
constexpr unsigned TotalTasks = RootTasks * (1 + ChildrenPerRoot);
constexpr unsigned QueueCap = TotalTasks + 8;
constexpr Word EmptySlot = 0xffffffffu;
} // namespace tpotm

void emitTpoTm(PlanBuilder &B) {
  using namespace tpotm;
  const Addr Buf = B.alloc(QueueCap);
  const Addr Head = B.alloc(1);
  const Addr Tail = B.alloc(1);
  const Addr Mutex = B.alloc(1);
  const Addr Done = B.alloc(1);
  const Addr ExecCounts = B.alloc(TotalTasks);
  const Addr ErrorFlag = B.alloc(1);

  for (unsigned Tid = 0; Tid != GridDim * BlockDim; ++Tid) {
    B.beginLane(Tid);
    const uint16_t RDone = B.reg();
    const uint16_t RLock = B.reg();
    const uint16_t RH = B.reg();
    const uint16_t RT = B.reg();
    const uint16_t RTask = B.reg();
    const uint16_t RId = B.reg();
    const uint16_t RId2 = B.reg();
    const uint16_t RSlot = B.reg();

    // while (ld(done) < TotalTasks) — the exit jump is patched to the
    // lane end below.
    const uint32_t Loop = B.size();
    B.emitMem(Code::Load, sim::NoSite, RDone, 0, Done);
    const uint32_t BrWork = B.emit(Code::BrLt, RDone, 0, 0, TotalTasks);
    const uint32_t Exit = B.emit(Code::Jump);
    B.patch(BrWork, B.size());

    // Pop under the lock: Task = H < T ? buf[H] (and ++head) : empty.
    B.spinLock(SiteLockCAS, RLock, Mutex);
    B.emitMem(Code::Load, SiteHeadLd, RH, 0, Head);
    B.emitMem(Code::Load, SiteTailLd, RT, 0, Tail);
    B.emit(Code::MovImm, RTask, 0, 0, EmptySlot);
    const uint32_t BrPop = B.emit(Code::BrLtRR, RH, RT);
    const uint32_t ToUnlock = B.emit(Code::Jump);
    B.patch(BrPop, B.size());
    B.emitMem(Code::LoadIdx, SiteBufLd, RTask, RH, Buf);
    B.emitMem(Code::AtomicAdd, sim::NoSite, 0, 0, Head, 1);
    B.patch(ToUnlock, B.size());
    B.emitMem(Code::AtomicExch, SiteUnlockExch, 0, 0, Mutex, 0);

    // An empty queue: yield(3), then poll again.
    const uint32_t BrGot = B.emit(Code::BrNe, RTask, 0, 0, EmptySlot);
    B.emit(Code::Sleep, 0, 0, 0, 3);
    B.emit(Code::Jump, 0, 0, Loop);
    B.patch(BrGot, B.size());

    // A stale descriptor (Id >= TotalTasks): flag it and count it.
    B.emit(Code::AndImm, RId, RTask, 0, 0xffffu);
    const uint32_t BrValid = B.emit(Code::BrLt, RId, 0, 0, TotalTasks);
    B.emitMem(Code::Store, sim::NoSite, 0, 0, ErrorFlag, 1);
    B.emitMem(Code::AtomicAdd, sim::NoSite, 0, 0, Done, 1);
    B.emit(Code::Jump, 0, 0, Loop);
    B.patch(BrValid, B.size());

    // Execute the task; a root task pushes its children.
    B.emitMem(Code::AtomicAddIdx, sim::NoSite, 0, RId, ExecCounts, 1);
    B.emit(Code::AndImm, RTask, RTask, 0, 0x10000u);
    const uint32_t BrChild = B.emit(Code::BrEq, RTask, 0, 0, 0);
    B.emit(Code::AddRR, RId2, RId, RId);
    for (unsigned C = 0; C != ChildrenPerRoot; ++C) {
      B.spinLock(SiteLockCAS, RLock, Mutex);
      B.emitMem(Code::Load, SiteTailLd, RSlot, 0, Tail);
      const uint32_t BrRoom = B.emit(Code::BrLt, RSlot, 0, 0, QueueCap);
      B.emitMem(Code::Store, sim::NoSite, 0, 0, ErrorFlag, 1);
      const uint32_t ToRelease = B.emit(Code::Jump);
      B.patch(BrRoom, B.size());
      // buf[slot] = packTask(RootTasks + 2 * Id + C, false); tail = slot+1.
      B.emitMem(Code::WbStoreIdx, SiteBufSt, RId2, RSlot, Buf,
                RootTasks + C);
      B.emitMem(Code::WbStore, SiteTailSt, RSlot, 0, Tail, 1);
      B.patch(ToRelease, B.size());
      B.emitMem(Code::AtomicExch, SiteUnlockExch, 0, 0, Mutex, 0);
    }
    B.patch(BrChild, B.size());
    B.emitMem(Code::AtomicAdd, sim::NoSite, 0, 0, Done, 1);
    B.emit(Code::Jump, 0, 0, Loop);
    B.patch(Exit, B.size()); // co_return == lane end.
    B.endLane();
  }
}

//===----------------------------------------------------------------------===//
// Compilation + cache
//===----------------------------------------------------------------------===//

uint32_t policyMask(AppKind K, const sim::FencePolicy *Policy) {
  if (!Policy)
    return 0;
  const unsigned NumSites = appNumSites(K);
  GPUWMM_CHECK(NumSites <= 32, "policy mask too narrow");
  uint32_t Mask = 0;
  for (unsigned S = 0; S != NumSites; ++S)
    if (Policy->fenceAfter(static_cast<int>(S)))
      Mask |= 1u << S;
  return Mask;
}

AppPlan compile(AppKind K, const sim::ChipProfile &Chip, uint32_t Mask) {
  const bool Builtin = appHasBuiltinFences(K) && !isNoFenceVariant(K);
  const uint64_t MaxTicks = makeApp(K)->maxTicks();
  switch (K) {
  case AppKind::SdkRed:
  case AppKind::SdkRedNf: {
    PlanBuilder B(Chip, Mask, sdkred::GridDim, sdkred::BlockDim);
    emitSdkRed(B, Builtin);
    return B.finish(MaxTicks);
  }
  case AppKind::CubScan:
  case AppKind::CubScanNf: {
    PlanBuilder B(Chip, Mask, cubscan::GridDim, cubscan::BlockDim);
    emitCubScan(B, Builtin);
    return B.finish(MaxTicks);
  }
  case AppKind::CbeDot: {
    PlanBuilder B(Chip, Mask, cbedot::GridDim, cbedot::BlockDim);
    emitCbeDot(B);
    return B.finish(MaxTicks);
  }
  case AppKind::CbeHt: {
    PlanBuilder B(Chip, Mask, cbeht::GridDim, cbeht::BlockDim);
    emitCbeHt(B);
    return B.finish(MaxTicks);
  }
  case AppKind::TpoTm: {
    PlanBuilder B(Chip, Mask, tpotm::GridDim, tpotm::BlockDim);
    emitTpoTm(B);
    return B.finish(MaxTicks);
  }
  default:
    GPUWMM_CHECK(false, "app does not lower (check appLowerable first)");
    return AppPlan();
  }
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
  GPUWMM_CHECK(appLowerable(K), "app does not lower to the batched engine");
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
