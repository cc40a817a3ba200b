//===- sim/BatchExec.cpp - Batched flat op-stream executor -------------------===//
//
// The run loop below is a replica of the reference engine's
// Scheduler::launch and Scheduler::run (sim/Scheduler.h), which steps the
// same op stream tick by tick over every SM. Fidelity notes, keyed to
// that source:
//
//  * Residency: block B -> SM B % NumSMs (or a random SM per block, in
//    block order, under randomisation); warps never straddle blocks; under
//    randomisation every SM's warp list is shuffled in SM index order
//    (empty lists draw nothing, so iterating only [0, NumSMs) is
//    draw-identical to the reference loop over a possibly larger scratch).
//  * A resume executes exactly one op and sleeps — or, past the lane's
//    last op, completes the lane. Both count toward the warp's issue.
//  * An AwaitLoad whose ticket is pending parks the lane with its PC
//    unadvanced; the wake loop binds the value and advances the PC, so the
//    next resume executes the *following* op. The reference engine binds
//    every result at the lane's next resume instead; registers are
//    lane-private, so nothing observes the difference.
//  * Idle fast-forward (deterministic mode only): when every live lane is
//    sleeping and the memory system is quiescent, the reference engine's
//    intervening ticks draw nothing and have no effect beyond advancing
//    the clock and each non-empty SM's rotor by one per tick. Jumping
//    Now to (first wake tick - 1) and advancing the rotors by the span
//    is therefore bit-identical, including the timeout tick. Lanes parked
//    at a barrier are excluded from the wake scan (they wake only through
//    a release, which requires a sleeping lane's resume first).
//  * Free ops (register arithmetic, branches) run at the head of the
//    resume that issues the lane's next suspending op, through the
//    runFreeOp both engines share. Register state is invisible to the
//    memory model, so only the suspending ops' side effects, sleeps and
//    draws carry fidelity.
//  * Barriers replicate the reference engine's arrival and release: the
//    arriving lane parks (still resident in its warp, ineligible), the
//    last live arriver emits the BarrierRelease trace event, then releases
//    every parked lane of its block in ascending Tid order with a
//    draw-free block fence and wake at Now + 1, and a lane completing
//    while block-mates are parked raises the divergence flag, which the
//    main loop surfaces at the top of the next tick — all in the
//    reference engine's exact order.
//
//===----------------------------------------------------------------------===//

#include "sim/BatchExec.h"

#include "sim/ChipProfile.h"
#include "sim/ExecutionContext.h"
#include "sim/MemorySystem.h"
#include "sim/Scheduler.h"
#include "sim/TraceSink.h"
#include "support/Check.h"
#include "support/Rng.h"

#include <algorithm>

using namespace gpuwmm;
using namespace gpuwmm::sim;

//===----------------------------------------------------------------------===//
// Engine mode resolution
//===----------------------------------------------------------------------===//

namespace {

/// The installed engine mode. Written once before any workers start,
/// read-only afterwards.
EngineMode InstalledEngineMode = EngineMode::Auto;

} // namespace

EngineMode sim::engineMode() { return InstalledEngineMode; }

void sim::setEngineMode(EngineMode M) { InstalledEngineMode = M; }

const char *sim::engineModeName(EngineMode M) {
  switch (M) {
  case EngineMode::Auto:
    return "auto";
  case EngineMode::Scalar:
    return "scalar";
  }
  return "unknown";
}

std::optional<EngineMode> sim::parseEngineMode(std::string_view Name) {
  if (Name == "auto")
    return EngineMode::Auto;
  if (Name == "scalar")
    return EngineMode::Scalar;
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// The executor
//===----------------------------------------------------------------------===//

namespace {

// Lane states. A lane at a barrier stays in its warp's live list but
// fails the eligibility test, exactly as the reference engine's AtBarrier
// state does.
constexpr uint8_t LaneSleeping = 0;
constexpr uint8_t LaneOnTicket = 1;
constexpr uint8_t LaneDone = 2;
constexpr uint8_t LaneAtBarrier = 3;

using AbsReg = BatchScratch::ProofBuffers::AbsReg;

/// The provable-timeout check (DESIGN.md Sec. 19). Explores every live
/// lane's op range from its PC over its concrete registers: a load returns
/// the current global word unless an explored op may write that address,
/// a branch on an unknown value takes both arms, and the may-write set
/// grows to a fixpoint across lanes. holds() is true iff no lane can reach
/// its end, a Barrier, an AsyncLoad or an AwaitLoad, and every explored
/// write has a known in-bounds address; the run can then only time out.
///
/// Sound under the caller's preconditions (memory quiescent, no lane at a
/// barrier or on a ticket, no divergence pending): a word outside the
/// may-write set keeps its global value until something writes it, and the
/// first such write would have to be issued by an explored op. Lanes own
/// disjoint register slots (every lowering allocates them per lane).
/// Its buffers live in the scratch's ProofBuffers, so an attempt
/// allocates nothing once they are warm.
class TimeoutProof {
public:
  TimeoutProof(const BatchProgram &BP, const MemorySystem &Mem,
               BatchScratch &S, const Word *Regs)
      : BP(BP), Mem(Mem), S(S), Regs(Regs), Writes(S.Proof.Writes),
        NewWrites(S.Proof.NewWrites), SlotIdx(S.Proof.SlotIdx),
        Slots(S.Proof.Slots), At(S.Proof.At), Seen(S.Proof.Seen),
        Cur(S.Proof.Cur), Work(S.Proof.Work),
        NumSlots(std::max(1u, BP.NumSlots)) {
    if (SlotIdx.size() < NumSlots)
      SlotIdx.resize(NumSlots, NoSlot);
  }

  bool holds() {
    const unsigned NumThreads = BP.GridDim * BP.BlockDim;
    Writes.clear();
    for (;;) {
      NewWrites.clear();
      for (unsigned Tid = 0; Tid != NumThreads; ++Tid)
        if (S.State[Tid] != LaneDone && !exploreLane(Tid))
          return false;
      std::sort(NewWrites.begin(), NewWrites.end());
      NewWrites.erase(std::unique(NewWrites.begin(), NewWrites.end()),
                      NewWrites.end());
      // Exploration is monotone in the may-write set, so NewWrites
      // contains Writes; equal sizes mean the fixpoint.
      if (NewWrites.size() == Writes.size())
        return true;
      Writes.swap(NewWrites);
    }
  }

private:
  static constexpr uint32_t NoSlot = ~0u;

  bool exploreLane(unsigned Tid) {
    const BatchLane L = BP.Lanes[Tid];
    const uint32_t Start = S.PC[Tid];
    if (Start == L.End)
      return false; // Completes at its next resume.
    // Track every slot the lane's ops name (a superset of the registers
    // it uses), seeded with their current values.
    Slots.clear();
    const auto AddSlot = [&](uint32_t Sl) {
      if (Sl < NumSlots && SlotIdx[Sl] == NoSlot) {
        SlotIdx[Sl] = static_cast<uint32_t>(Slots.size());
        Slots.push_back(Sl);
      }
    };
    for (uint32_t PC = L.Begin; PC != L.End; ++PC) {
      const BatchOp &O = BP.Ops[PC];
      AddSlot(O.Slot);
      if (O.C == BatchOp::Code::Step)
        for (uint32_t J = 1; J < O.Slot2; ++J)
          AddSlot(O.Slot + J);
      else
        AddSlot(O.Slot2);
      if (O.C == BatchOp::Code::AddRR)
        AddSlot(O.A);
    }
    K = Slots.size();
    Begin = L.Begin;
    End = L.End;
    At.assign(static_cast<size_t>(End - Begin) * K, AbsReg());
    Seen.assign(End - Begin, 0);
    Cur.resize(K);
    for (size_t J = 0; J != K; ++J)
      Cur[J] = {Regs[Slots[J]], true};
    Work.clear();
    bool Ok = flowTo(Start);
    while (Ok && !Work.empty()) {
      const uint32_t PC = Work.back();
      Work.pop_back();
      std::copy_n(At.begin() + static_cast<ptrdiff_t>((PC - Begin) * K), K,
                  Cur.begin());
      Ok = step(PC);
    }
    for (const uint32_t Sl : Slots)
      SlotIdx[Sl] = NoSlot;
    return Ok;
  }

  AbsReg &reg(uint32_t Sl) { return Cur[SlotIdx[Sl]]; }

  /// The abstract address A + Regs[Slot2] of an indexed op.
  AbsReg indexed(const BatchOp &O) {
    const AbsReg I = reg(O.Slot2);
    return {O.A + I.V, I.Known};
  }

  /// What a load from \p A returns from here on.
  AbsReg read(AbsReg A) const {
    if (!A.Known || A.V >= Mem.allocatedWords() ||
        std::binary_search(Writes.begin(), Writes.end(), A.V))
      return {};
    return {Mem.hostRead(A.V), true};
  }

  /// Adds \p A to the may-write set; false if it is unknown or out of
  /// bounds.
  bool write(AbsReg A) {
    if (!A.Known || A.V >= Mem.allocatedWords())
      return false;
    NewWrites.push_back(A.V);
    return true;
  }

  /// Joins Cur into op \p T's state; false if \p T ends the lane.
  bool flowTo(uint32_t T) {
    if (T < Begin || T >= End)
      return false;
    AbsReg *Dst = &At[static_cast<size_t>(T - Begin) * K];
    bool Changed = !Seen[T - Begin];
    if (Changed) {
      Seen[T - Begin] = 1;
      std::copy_n(Cur.begin(), K, Dst);
    } else {
      for (size_t J = 0; J != K; ++J)
        if (Dst[J].Known && (!Cur[J].Known || Cur[J].V != Dst[J].V)) {
          Dst[J].Known = false;
          Changed = true;
        }
    }
    if (Changed)
      Work.push_back(T);
    return true;
  }

  /// A branch: one successor when the condition is known, both if not.
  bool branch(const BatchOp &O, uint32_t PC, AbsReg Cond) {
    if (Cond.Known)
      return flowTo(Cond.V ? O.A : PC + 1);
    return flowTo(PC + 1) && flowTo(O.A);
  }

  /// Applies op \p PC to Cur and flows to its successors.
  bool step(uint32_t PC) {
    using Code = BatchOp::Code;
    const BatchOp &O = BP.Ops[PC];
    switch (O.C) {
    case Code::Barrier:
    case Code::AsyncLoad:
    case Code::AwaitLoad:
      return false;
    case Code::Jitter:
    case Code::FenceDevice:
    case Code::Sleep:
    case Code::SleepRand:
      break;
    case Code::Load:
      reg(O.Slot) = read({O.A, true});
      break;
    case Code::LoadIdx:
      reg(O.Slot) = read(indexed(O));
      break;
    case Code::LoadAcc:
    case Code::LoadAccIdx: {
      const AbsReg V =
          read(O.C == Code::LoadAcc ? AbsReg{O.A, true} : indexed(O));
      AbsReg &D = reg(O.Slot);
      D = {D.V + V.V, D.Known && V.Known};
      break;
    }
    case Code::LoadMulAcc: {
      const AbsReg V = read({O.A, true});
      const AbsReg M = reg(O.Slot2);
      AbsReg &D = reg(O.Slot);
      D = {D.V + M.V * V.V, D.Known && M.Known && V.Known};
      break;
    }
    case Code::Store:
    case Code::WbStore:
    case Code::AtomicAdd:
    case Code::AtomicExch:
      if (!write({O.A, true}))
        return false;
      break;
    case Code::StoreIdx:
    case Code::WbStoreIdx:
    case Code::AtomicAddIdx:
    case Code::AtomicExchIdx:
      if (!write(indexed(O)))
        return false;
      break;
    case Code::AtomicAddReg:
    case Code::AtomicCas:
    case Code::AtomicCasIdx:
      if (!write(O.C == Code::AtomicCasIdx ? indexed(O) : AbsReg{O.A, true}))
        return false;
      reg(O.Slot) = {}; // The old value of a written word.
      break;
    case Code::MovImm:
      reg(O.Slot) = {O.Imm, true};
      break;
    case Code::AddImm:
    case Code::MulImm:
    case Code::ModImm:
    case Code::AndImm: {
      const AbsReg X = reg(O.Slot2);
      Word V = 0;
      bool Known = X.Known;
      if (O.C == Code::AddImm)
        V = X.V + O.Imm;
      else if (O.C == Code::MulImm)
        V = X.V * O.Imm;
      else if (O.C == Code::AndImm)
        V = X.V & O.Imm;
      else if (O.Imm != 0)
        V = X.V % O.Imm;
      else
        Known = false;
      reg(O.Slot) = {V, Known};
      break;
    }
    case Code::AddRR: {
      const AbsReg X = reg(O.Slot2), Y = reg(O.A);
      reg(O.Slot) = {X.V + Y.V, X.Known && Y.Known};
      break;
    }
    case Code::Step: // Opaque: the whole window becomes unknown.
      for (uint32_t J = 0; J != O.Slot2; ++J)
        reg(O.Slot + J) = {};
      break;
    case Code::Jump:
      return flowTo(O.A);
    case Code::BrEq: {
      const AbsReg X = reg(O.Slot);
      return branch(O, PC, {X.V == O.Imm, X.Known});
    }
    case Code::BrNe: {
      const AbsReg X = reg(O.Slot);
      return branch(O, PC, {X.V != O.Imm, X.Known});
    }
    case Code::BrLt: {
      const AbsReg X = reg(O.Slot);
      return branch(O, PC, {X.V < O.Imm, X.Known});
    }
    case Code::BrLtRR: {
      const AbsReg X = reg(O.Slot), Y = reg(O.Slot2);
      return branch(O, PC, {X.V < Y.V, X.Known && Y.Known});
    }
    }
    return flowTo(PC + 1);
  }

  const BatchProgram &BP;
  const MemorySystem &Mem;
  const BatchScratch &S;
  const Word *Regs;
  // The scratch's ProofBuffers (documented there).
  std::vector<Addr> &Writes;
  std::vector<Addr> &NewWrites;
  std::vector<uint32_t> &SlotIdx;
  std::vector<uint32_t> &Slots;
  std::vector<AbsReg> &At; ///< K entries per op.
  std::vector<uint8_t> &Seen;
  std::vector<AbsReg> &Cur;
  std::vector<uint32_t> &Work;
  const uint32_t NumSlots; ///< Register slots of the program (at least 1).
  size_t K = 0;                ///< Slots.size().
  uint32_t Begin = 0, End = 0; ///< The current lane's op range.
};

} // namespace

RunResult sim::runBatchProgram(const BatchProgram &BP,
                               const ChipProfile &Chip, MemorySystem &Mem,
                               Rng &R, BatchScratch &S, Word *Regs,
                               const SchedulerConfig &Cfg) {
  const unsigned NumThreads = BP.GridDim * BP.BlockDim;
  GPUWMM_CHECK(NumThreads != 0 && BP.Lanes.size() == NumThreads,
               "batch program lane table does not match its launch shape");
  Mem.registerThreads(NumThreads);

  // Lane state: everything starts Sleeping at wake tick 0 (eligible on
  // tick 1), as the reference engine's freshly launched threads do.
  S.State.assign(NumThreads, LaneSleeping);
  S.WakeTick.assign(NumThreads, 0);
  S.PC.resize(NumThreads);
  for (unsigned T = 0; T != NumThreads; ++T)
    S.PC[T] = BP.Lanes[T].Begin;
  S.TicketWaiters.clear();
  S.TicketWaiters.reserve(NumThreads);
  S.BlockLive.assign(BP.GridDim, BP.BlockDim);
  S.BlockAtBarrier.assign(BP.GridDim, 0);

  // Residency. Under deterministic scheduling the layout is a pure
  // function of (grid, block, SMs) and launch draws nothing, so it is
  // cached across runs; under randomisation it is redrawn per run in the
  // reference engine's exact draw order.
  const unsigned NumSMs = Chip.NumSMs;
  const bool HaveCached = !Cfg.RandomiseThreads && S.CachedGrid == BP.GridDim &&
                          S.CachedBlock == BP.BlockDim && S.CachedSMs == NumSMs;
  if (!HaveCached) {
    // Every list is reserved for the whole launch, as Scheduler::launch
    // does, so random placement never grows one on a warm context.
    const unsigned LaunchWarps =
        BP.GridDim * ((BP.BlockDim + WarpSize - 1) / WarpSize);
    if (S.SMWarps.size() < NumSMs)
      S.SMWarps.resize(NumSMs);
    for (std::vector<BatchScratch::Warp> &Ws : S.SMWarps) {
      Ws.clear();
      Ws.reserve(LaunchWarps);
    }
    S.ActiveSMs.reserve(NumSMs);
    S.BlockToSM.resize(BP.GridDim);
    for (unsigned B = 0; B != BP.GridDim; ++B)
      S.BlockToSM[B] = B % NumSMs;
    if (Cfg.RandomiseThreads)
      for (unsigned B = 0; B != BP.GridDim; ++B)
        S.BlockToSM[B] = static_cast<unsigned>(R.below(NumSMs));
    unsigned NumWarps = 0;
    for (unsigned B = 0; B != BP.GridDim; ++B)
      for (unsigned W = 0; W * WarpSize < BP.BlockDim; ++W)
        S.SMWarps[S.BlockToSM[B]].push_back(
            {B * BP.BlockDim + W * WarpSize,
             std::min(WarpSize, BP.BlockDim - W * WarpSize), B, NumWarps++});
    if (S.WarpLive.size() < NumWarps)
      S.WarpLive.resize(NumWarps);
    if (Cfg.RandomiseThreads)
      for (unsigned SM = 0; SM != NumSMs; ++SM)
        R.shuffle(S.SMWarps[SM]);
    S.ActiveSMs.clear();
    for (unsigned SM = 0; SM != NumSMs; ++SM)
      if (!S.SMWarps[SM].empty())
        S.ActiveSMs.push_back(SM);
    if (Cfg.RandomiseThreads) {
      S.invalidateResidency();
    } else {
      S.CachedGrid = BP.GridDim;
      S.CachedBlock = BP.BlockDim;
      S.CachedSMs = NumSMs;
    }
  }
  // Rotors start at zero each launch. Only resident SMs' rotors are ever
  // read, so zeroing just those is the full assign.
  if (S.SMRotor.size() < NumSMs)
    S.SMRotor.resize(NumSMs);
  for (const unsigned SM : S.ActiveSMs)
    S.SMRotor[SM] = 0;

  // Fill each resident warp's live-lane list with all of its lanes.
  for (const unsigned SM : S.ActiveSMs)
    for (const BatchScratch::Warp &W : S.SMWarps[SM]) {
      std::vector<uint32_t> &LL = S.WarpLive[W.LiveIdx];
      LL.clear();
      for (unsigned L = 0; L != W.NumThreads; ++L)
        LL.push_back(W.FirstTid + L);
    }

  const BatchOp *const Ops = BP.Ops.data();
  const StepFn *const Steps = BP.Steps.data();
  unsigned Live = NumThreads;
  uint64_t Now = 0;
  bool DivergenceFlag = false;
  // The provable-timeout schedule: the next quiet checkpoint, the next
  // unconditional attempt, and the store count at the last checkpoint.
  uint64_t NextCheck = TimeoutCheckInterval;
  uint64_t NextBackstop = TimeoutBackstopInterval;
  uint64_t CheckStores = Mem.stats().Stores;
  RunResult Result;

  while (Live > 0) {
    ++Now;
    // The reference loop checks the divergence flag at the top of the next
    // tick, before the timeout: a lane completing past a barrier its
    // block-mates still wait at surfaces one tick later.
    if (DivergenceFlag) {
      Result.Status = RunStatus::BarrierDivergence;
      break;
    }
    if (Now > Cfg.MaxTicks) {
      Result.Status = RunStatus::Timeout;
      break;
    }

    Mem.tick(Now);

    // Wake async-load waiters whose tickets completed. The parked lane's
    // PC still addresses its AwaitLoad op; binding the value and stepping
    // the PC here makes the next resume run the following op.
    for (size_t I = 0; I != S.TicketWaiters.size();) {
      const unsigned Tid = S.TicketWaiters[I];
      const BatchOp &O = Ops[S.PC[Tid]];
      const unsigned Ticket = static_cast<unsigned>(Regs[O.Slot]);
      if (S.State[Tid] == LaneOnTicket && Mem.asyncDone(Ticket)) {
        Regs[O.Slot] = Mem.asyncValue(Ticket);
        ++S.PC[Tid];
        S.State[Tid] = LaneSleeping;
        S.WakeTick[Tid] = Now;
        S.TicketWaiters[I] = S.TicketWaiters.back();
        S.TicketWaiters.pop_back();
        continue;
      }
      ++I;
    }

    bool Issued = false;
    // True once any op schedules a wake at Now + 1: the earliest possible
    // wake is then next tick, so the idle fast-forward cannot jump and
    // its scan is skipped without changing behaviour.
    bool WakeNextTick = false;
    for (const unsigned SM : S.ActiveSMs) {
      std::vector<BatchScratch::Warp> &Ws = S.SMWarps[SM];
      const unsigned NumWs = static_cast<unsigned>(Ws.size());
      unsigned Budget = Cfg.IssueWidthPerSM;
      unsigned Start = S.SMRotor[SM];
      if (Cfg.RandomiseThreads)
        Start = static_cast<unsigned>(R.below(NumWs));
      for (unsigned K = 0; K != NumWs && Budget != 0; ++K) {
        // (Start + K) mod NumWs without the divide: both are < NumWs.
        const unsigned Idx =
            Start + K < NumWs ? Start + K : Start + K - NumWs;
        const BatchScratch::Warp &W = Ws[Idx];
        // Warp-priority jitter under randomisation.
        if (Cfg.RandomiseThreads && R.chance(0.15))
          continue;
        bool WarpIssued = false;
        std::vector<uint32_t> &LL = S.WarpLive[W.LiveIdx];
        const size_t NumLive = LL.size();
        size_t Out = 0;
        for (size_t I = 0; I != NumLive; ++I) {
          const unsigned Tid = LL[I];
          LL[Out++] = static_cast<uint32_t>(Tid);
          if (S.State[Tid] != LaneSleeping || S.WakeTick[Tid] > Now)
            continue;
          WarpIssued = true;

          // --- Resume: free ops, then one suspending op (or finish the
          // --- lane). The free prefix is the lane's register arithmetic
          // --- and control flow, evaluated in the resume that issues the
          // --- next suspending op.
          uint32_t PC = S.PC[Tid];
          const uint32_t End = BP.Lanes[Tid].End;
          while (PC != End && Ops[PC].C >= BatchOp::Code::MovImm)
            PC = runFreeOp(Ops[PC], Regs, Steps, PC);
          if (PC == End) {
            // The lane's final resume: it completes. A block
            // with lanes parked at a barrier can now never release it.
            S.State[Tid] = LaneDone;
            --Live;
            --S.BlockLive[W.Block];
            if (S.BlockAtBarrier[W.Block] > 0)
              DivergenceFlag = true;
            --Out; // Drop the lane from the live list.
            continue;
          }
          const BatchOp &O = Ops[PC];
          switch (O.C) {
          case BatchOp::Code::Jitter:
            S.WakeTick[Tid] = Now + 1 + R.below(O.Imm);
            break;
          case BatchOp::Code::Store:
            Mem.store(Tid, W.Block, O.A, O.Imm);
            S.WakeTick[Tid] = Now + 1;
            break;
          case BatchOp::Code::Load:
            Regs[O.Slot] = Mem.load(Tid, W.Block, O.A);
            S.WakeTick[Tid] = Now + 1;
            break;
          case BatchOp::Code::AsyncLoad:
            Regs[O.Slot] = Mem.issueAsyncLoad(Tid, O.A);
            S.WakeTick[Tid] = Now + 1;
            break;
          case BatchOp::Code::AwaitLoad: {
            const unsigned Ticket = static_cast<unsigned>(Regs[O.Slot]);
            if (!Mem.asyncDone(Ticket)) {
              // Park with the PC unadvanced; the wake loop completes it.
              S.State[Tid] = LaneOnTicket;
              S.TicketWaiters.push_back(Tid);
              continue;
            }
            Regs[O.Slot] = Mem.asyncValue(Ticket);
            S.WakeTick[Tid] = Now + 1;
            break;
          }
          case BatchOp::Code::AtomicAdd:
            (void)Mem.atomicAdd(Tid, O.A, O.Imm);
            S.WakeTick[Tid] = Now + std::max(1u, Chip.AtomicLatency);
            break;
          case BatchOp::Code::FenceDevice:
            S.WakeTick[Tid] = Now + std::max(1u, Mem.fenceDevice(Tid));
            break;
          case BatchOp::Code::WbStore:
            Mem.store(Tid, W.Block, O.A, Regs[O.Slot] + O.Imm);
            S.WakeTick[Tid] = Now + 1;
            break;
          case BatchOp::Code::Sleep:
            S.WakeTick[Tid] = Now + std::max(1u, O.Imm);
            break;
          case BatchOp::Code::SleepRand:
            // The draw and the sleep share this resume, as in the
            // reference engine.
            S.WakeTick[Tid] =
                Now + std::max<uint64_t>(1, O.A + R.below(O.Imm));
            break;
          case BatchOp::Code::Barrier: {
            // Park the lane; the last live arriver releases the whole
            // block within its own resume (Scheduler::releaseBarrier):
            // the release event first, then a fence for each parked lane
            // in ascending Tid order.
            S.State[Tid] = LaneAtBarrier;
            S.PC[Tid] = PC + 1;
            const unsigned B = W.Block;
            if (++S.BlockAtBarrier[B] == S.BlockLive[B]) {
              if (TraceSink *TS = Mem.traceSink())
                TS->event({TraceEventKind::BarrierRelease, LoadSource::Memory,
                           false, 0, B, 0, 0, 0, 0, Now});
              const unsigned FirstTid = B * BP.BlockDim;
              for (unsigned L = 0; L != BP.BlockDim; ++L) {
                const unsigned T2 = FirstTid + L;
                if (S.State[T2] != LaneAtBarrier)
                  continue;
                (void)Mem.fenceBlock(T2, B);
                S.State[T2] = LaneSleeping;
                S.WakeTick[T2] = Now + 1;
              }
              S.BlockAtBarrier[B] = 0;
              WakeNextTick = true;
            }
            continue; // PC already stored; no generic postlude.
          }
          case BatchOp::Code::LoadAcc:
            Regs[O.Slot] += Mem.load(Tid, W.Block, O.A);
            S.WakeTick[Tid] = Now + 1;
            break;
          case BatchOp::Code::LoadIdx:
            Regs[O.Slot] = Mem.load(Tid, W.Block, O.A + Regs[O.Slot2]);
            S.WakeTick[Tid] = Now + 1;
            break;
          case BatchOp::Code::LoadAccIdx:
            Regs[O.Slot] += Mem.load(Tid, W.Block, O.A + Regs[O.Slot2]);
            S.WakeTick[Tid] = Now + 1;
            break;
          case BatchOp::Code::LoadMulAcc:
            Regs[O.Slot] += Regs[O.Slot2] * Mem.load(Tid, W.Block, O.A);
            S.WakeTick[Tid] = Now + 1;
            break;
          case BatchOp::Code::StoreIdx:
            Mem.store(Tid, W.Block, O.A + Regs[O.Slot2], O.Imm);
            S.WakeTick[Tid] = Now + 1;
            break;
          case BatchOp::Code::AtomicAddReg:
            Regs[O.Slot] = Mem.atomicAdd(Tid, O.A, O.Imm);
            S.WakeTick[Tid] = Now + std::max(1u, Chip.AtomicLatency);
            break;
          case BatchOp::Code::AtomicCas:
            Regs[O.Slot] = Mem.atomicCAS(Tid, O.A, Regs[O.Slot], O.Imm);
            S.WakeTick[Tid] = Now + std::max(1u, Chip.AtomicLatency);
            break;
          case BatchOp::Code::AtomicCasIdx:
            Regs[O.Slot] =
                Mem.atomicCAS(Tid, O.A + Regs[O.Slot2], Regs[O.Slot], O.Imm);
            S.WakeTick[Tid] = Now + std::max(1u, Chip.AtomicLatency);
            break;
          case BatchOp::Code::AtomicExch:
            (void)Mem.atomicExch(Tid, O.A, O.Imm);
            S.WakeTick[Tid] = Now + std::max(1u, Chip.AtomicLatency);
            break;
          case BatchOp::Code::AtomicExchIdx:
            (void)Mem.atomicExch(Tid, O.A + Regs[O.Slot2], O.Imm);
            S.WakeTick[Tid] = Now + std::max(1u, Chip.AtomicLatency);
            break;
          case BatchOp::Code::AtomicAddIdx:
            (void)Mem.atomicAdd(Tid, O.A + Regs[O.Slot2], O.Imm);
            S.WakeTick[Tid] = Now + std::max(1u, Chip.AtomicLatency);
            break;
          case BatchOp::Code::WbStoreIdx:
            Mem.store(Tid, W.Block, O.A + Regs[O.Slot2], Regs[O.Slot] + O.Imm);
            S.WakeTick[Tid] = Now + 1;
            break;
          default:
            GPUWMM_CHECK(false, "free op in suspending-op dispatch");
          }
          WakeNextTick |= S.WakeTick[Tid] == Now + 1;
          S.PC[Tid] = PC + 1;
        }
        if (Out != NumLive)
          LL.resize(Out);
        if (WarpIssued) {
          --Budget;
          Issued = true;
        }
      }
      const unsigned Next = S.SMRotor[SM] + 1;
      S.SMRotor[SM] = Next < NumWs ? Next : 0;
    }

    if (!Issued && Live > 0 && !Mem.hasPendingWork() &&
        S.TicketWaiters.empty()) {
      bool AnySleeping = false;
      for (const unsigned SM : S.ActiveSMs)
        for (const BatchScratch::Warp &W : S.SMWarps[SM])
          for (const uint32_t Tid : S.WarpLive[W.LiveIdx])
            AnySleeping |= S.State[Tid] == LaneSleeping;
      if (!AnySleeping) {
        // Reference tie-break: live lanes stuck at a barrier classify as
        // barrier divergence, anything else is a plain deadlock.
        bool AnyAtBarrier = false;
        for (const unsigned AB : S.BlockAtBarrier)
          AnyAtBarrier |= AB != 0;
        Result.Status = AnyAtBarrier ? RunStatus::BarrierDivergence
                                     : RunStatus::Deadlock;
        break;
      }
    }

    // Provable timeout: stop as soon as no lane can ever finish. The run
    // ends exactly as the full simulation would (Timeout at MaxTicks + 1);
    // only the skipped ticks' memory statistics and RNG draws are missing.
    // Traced runs never stop early: their event stream is the result. A
    // checkpoint attempts the proof only after a window without plain
    // stores (a livelock spins on loads and atomics; a run still storing
    // is usually making progress); the backstop attempts it regardless.
    if (BP.HasBackwardBranch && Live > 0 &&
        (Now >= NextCheck || Now >= NextBackstop)) {
      bool Attempt = false;
      if (Now >= NextCheck) {
        NextCheck = Now + TimeoutCheckInterval;
        const uint64_t Stores = Mem.stats().Stores;
        Attempt = Stores == CheckStores;
        CheckStores = Stores;
      }
      if (Now >= NextBackstop) {
        NextBackstop = Now + TimeoutBackstopInterval;
        Attempt = true;
      }
      if (Attempt && !Mem.traceSink() && !DivergenceFlag &&
          S.TicketWaiters.empty() && Mem.quiescent() &&
          std::all_of(S.BlockAtBarrier.begin(), S.BlockAtBarrier.end(),
                      [](unsigned AB) { return AB == 0; }) &&
          TimeoutProof(BP, Mem, S, Regs).holds()) {
        Now = Cfg.MaxTicks + 1;
        Result.Status = RunStatus::Timeout;
        break;
      }
    }

    // Idle fast-forward: with the memory system quiescent and every live
    // lane sleeping, the ticks up to the first wake draw nothing and
    // change nothing but the clock and the rotors. A wake already set for
    // Now + 1 caps the jump target at the next tick, so the scan is
    // skipped (the common case: most ops sleep exactly one tick). A
    // pending divergence ends the run next tick, so it never jumps.
    if (!WakeNextTick && !DivergenceFlag && !Cfg.RandomiseThreads &&
        Live > 0 && !Mem.hasPendingWork() && S.TicketWaiters.empty()) {
      uint64_t MinWake = ~0ull;
      for (const unsigned SM : S.ActiveSMs)
        for (const BatchScratch::Warp &W : S.SMWarps[SM])
          for (const uint32_t Tid : S.WarpLive[W.LiveIdx])
            if (S.State[Tid] == LaneSleeping)
              MinWake = std::min(MinWake, S.WakeTick[Tid]);
      const uint64_t Target = std::min(MinWake, Cfg.MaxTicks + 1);
      if (Target > Now + 1) {
        const uint64_t D = Target - 1 - Now;
        Now = Target - 1;
        for (const unsigned SM : S.ActiveSMs)
          S.SMRotor[SM] = static_cast<unsigned>(
              (S.SMRotor[SM] + D) % S.SMWarps[SM].size());
      }
    }
  }

  // Kernel boundaries synchronise: everything becomes visible.
  Mem.drainAll();
  Result.Ticks = Now;
  Result.Mem = Mem.stats();
  return Result;
}

RunResult sim::runProgram(const BatchProgram &BP, ExecutionContext &Ctx,
                          const ChipProfile &Chip, Word *Regs,
                          const SchedulerConfig &Cfg) {
  if (engineMode() != EngineMode::Scalar)
    return runBatchProgram(BP, Chip, Ctx.memory(), Ctx.rng(),
                           Ctx.batchScratch(), Regs, Cfg);
  Scheduler S(Chip, Ctx.memory(), Ctx.rng(), Cfg, &Ctx.schedulerScratch());
  S.launch(BP, Regs);
  return S.run();
}
