//===- sim/Scheduler.cpp - SIMT warp scheduler -------------------------------===//

#include "sim/Scheduler.h"

#include "sim/ChipProfile.h"
#include "sim/TraceSink.h"
#include "support/Check.h"

#include <algorithm>
#include <cassert>

using namespace gpuwmm;
using namespace gpuwmm::sim;

void Scheduler::Scratch::clear() {
  Threads.clear();
  Blocks.clear();
  for (std::vector<Warp> &Ws : SMWarps)
    Ws.clear();
  SMRotor.clear();
  BlockToSM.clear();
  TicketWaiters.clear();
}

Scheduler::Scheduler(const ChipProfile &Chip, MemorySystem &Mem, Rng &R,
                     const SchedulerConfig &Config, Scratch *ExtScratch)
    : Chip(Chip), Mem(Mem), R(R), Config(Config),
      OwnedScratch(ExtScratch ? nullptr : new Scratch),
      S(ExtScratch ? *ExtScratch : *OwnedScratch) {}

Scheduler::~Scheduler() { S.clear(); }

void Scheduler::launch(const BatchProgram &Prog, Word *RegFile) {
  assert(S.Threads.empty() && "scheduler already launched");
  const unsigned GridDim = Prog.GridDim, BlockDim = Prog.BlockDim;
  const unsigned NumThreads = GridDim * BlockDim;
  GPUWMM_CHECK(NumThreads != 0 && Prog.Lanes.size() == NumThreads,
               "batch program lane table does not match its launch shape");
  BP = &Prog;
  Regs = RegFile;
  Mem.registerThreads(NumThreads);
  S.Threads.resize(NumThreads);
  S.Blocks.assign(GridDim, BlockState{});
  // Capacity for the worst case (every warp on one SM, every thread on a
  // ticket), so random placement never grows a list mid-stream.
  const unsigned NumWarps = GridDim * ((BlockDim + WarpSize - 1) / WarpSize);
  if (S.SMWarps.size() < Chip.NumSMs)
    S.SMWarps.resize(Chip.NumSMs);
  for (std::vector<Warp> &Ws : S.SMWarps) {
    Ws.clear();
    Ws.reserve(NumWarps);
  }
  S.TicketWaiters.reserve(NumThreads);
  S.SMRotor.assign(Chip.NumSMs, 0);

  // Block placement: deterministic round-robin natively; random placement
  // under thread randomisation (blocks move as units, so block membership
  // is honoured).
  S.BlockToSM.resize(GridDim);
  for (unsigned B = 0; B != GridDim; ++B)
    S.BlockToSM[B] = B % Chip.NumSMs;
  if (Config.RandomiseThreads)
    for (unsigned B = 0; B != GridDim; ++B)
      S.BlockToSM[B] = static_cast<unsigned>(R.below(Chip.NumSMs));

  for (unsigned B = 0; B != GridDim; ++B) {
    BlockState &BS = S.Blocks[B];
    BS.FirstTid = B * BlockDim;
    BS.NumThreads = BlockDim;
    BS.Live = BlockDim;

    // Warps never straddle blocks (CUDA guarantees this).
    for (unsigned W = 0; W * WarpSize < BlockDim; ++W) {
      Warp Wp;
      Wp.FirstTid = BS.FirstTid + W * WarpSize;
      Wp.NumThreads = std::min(WarpSize, BlockDim - W * WarpSize);
      S.SMWarps[S.BlockToSM[B]].push_back(Wp);
    }

    for (unsigned L = 0; L != BlockDim; ++L) {
      const unsigned Tid = BS.FirstTid + L;
      SimThread &T = S.Threads[Tid];
      T = SimThread();
      T.Block = B;
      T.PC = Prog.Lanes[Tid].Begin;
    }
  }
  Live = NumThreads;

  // Under randomisation, also shuffle each SM's resident warp order (warps
  // stay intact: thread ids within a warp are never permuted apart).
  if (Config.RandomiseThreads)
    for (auto &Ws : S.SMWarps)
      R.shuffle(Ws);
}

bool Scheduler::threadEligible(const SimThread &T) const {
  return T.State == ThreadState::Sleeping && T.WakeTick <= Now;
}

void Scheduler::sleep(SimThread &T, unsigned Latency) {
  T.State = ThreadState::Sleeping;
  T.WakeTick = Now + std::max(1u, Latency);
}

void Scheduler::bindResult(SimThread &T) {
  using Code = BatchOp::Code;
  const BatchOp &O = BP->Ops[T.PC - 1];
  switch (O.C) {
  case Code::Load:
  case Code::LoadIdx:
  case Code::AsyncLoad:
  case Code::AwaitLoad:
  case Code::AtomicAddReg:
  case Code::AtomicCas:
  case Code::AtomicCasIdx:
    Regs[O.Slot] = T.RetVal;
    break;
  case Code::LoadAcc:
  case Code::LoadAccIdx:
    Regs[O.Slot] += T.RetVal;
    break;
  case Code::LoadMulAcc:
    Regs[O.Slot] += Regs[O.Slot2] * T.RetVal;
    break;
  default: // No result.
    break;
  }
}

void Scheduler::resumeThread(unsigned Tid) {
  using Code = BatchOp::Code;
  SimThread &T = S.Threads[Tid];
  assert(threadEligible(T) && "resuming an ineligible thread");
  if (T.Bind) {
    bindResult(T);
    T.Bind = false;
  }
  // Free ops: the lane's register arithmetic and control flow up to its
  // next suspending op.
  const BatchOp *const Ops = BP->Ops.data();
  const uint32_t End = BP->Lanes[Tid].End;
  while (T.PC != End && Ops[T.PC].C >= Code::MovImm)
    T.PC = runFreeOp(Ops[T.PC], Regs, BP->Steps.data(), T.PC);
  if (T.PC == End) {
    T.State = ThreadState::Done;
    --Live;
    BlockState &BS = S.Blocks[T.Block];
    assert(BS.Live > 0);
    --BS.Live;
    // A thread exiting while block siblings wait at a barrier is barrier
    // divergence: undefined behaviour in CUDA, a fatal fault here.
    if (BS.AtBarrier > 0)
      DivergenceFlag = true;
    // Note: the thread's buffered stores are NOT drained on exit; they
    // continue to drain asynchronously, as on real hardware. The kernel
    // boundary (end of run) performs the full drain.
    return;
  }

  // One suspending op: its memory effect now, its result at the next
  // resume.
  const BatchOp &O = Ops[T.PC++];
  T.Bind = true;
  const unsigned B = T.Block;
  switch (O.C) {
  case Code::Jitter:
    sleep(T, 1 + static_cast<unsigned>(R.below(O.Imm)));
    break;
  case Code::Store:
    Mem.store(Tid, B, O.A, O.Imm);
    sleep(T, 1);
    break;
  case Code::WbStore:
    Mem.store(Tid, B, O.A, Regs[O.Slot] + O.Imm);
    sleep(T, 1);
    break;
  case Code::StoreIdx:
    Mem.store(Tid, B, O.A + Regs[O.Slot2], O.Imm);
    sleep(T, 1);
    break;
  case Code::WbStoreIdx:
    Mem.store(Tid, B, O.A + Regs[O.Slot2], Regs[O.Slot] + O.Imm);
    sleep(T, 1);
    break;
  case Code::Load:
  case Code::LoadAcc:
  case Code::LoadMulAcc:
    T.RetVal = Mem.load(Tid, B, O.A);
    sleep(T, 1);
    break;
  case Code::LoadIdx:
  case Code::LoadAccIdx:
    T.RetVal = Mem.load(Tid, B, O.A + Regs[O.Slot2]);
    sleep(T, 1);
    break;
  case Code::AsyncLoad:
    T.RetVal = Mem.issueAsyncLoad(Tid, O.A);
    sleep(T, 1);
    break;
  case Code::AwaitLoad: {
    const unsigned Ticket = static_cast<unsigned>(Regs[O.Slot]);
    if (Mem.asyncDone(Ticket)) {
      T.RetVal = Mem.asyncValue(Ticket);
      sleep(T, 1);
      break;
    }
    // Parked: the wake loop delivers the value.
    T.State = ThreadState::OnTicket;
    T.Ticket = Ticket;
    S.TicketWaiters.push_back(Tid);
    break;
  }
  case Code::AtomicAdd:
  case Code::AtomicAddReg:
    T.RetVal = Mem.atomicAdd(Tid, O.A, O.Imm);
    sleep(T, Chip.AtomicLatency);
    break;
  case Code::AtomicAddIdx:
    T.RetVal = Mem.atomicAdd(Tid, O.A + Regs[O.Slot2], O.Imm);
    sleep(T, Chip.AtomicLatency);
    break;
  case Code::AtomicCas:
    T.RetVal = Mem.atomicCAS(Tid, O.A, Regs[O.Slot], O.Imm);
    sleep(T, Chip.AtomicLatency);
    break;
  case Code::AtomicCasIdx:
    T.RetVal = Mem.atomicCAS(Tid, O.A + Regs[O.Slot2], Regs[O.Slot], O.Imm);
    sleep(T, Chip.AtomicLatency);
    break;
  case Code::AtomicExch:
    T.RetVal = Mem.atomicExch(Tid, O.A, O.Imm);
    sleep(T, Chip.AtomicLatency);
    break;
  case Code::AtomicExchIdx:
    T.RetVal = Mem.atomicExch(Tid, O.A + Regs[O.Slot2], O.Imm);
    sleep(T, Chip.AtomicLatency);
    break;
  case Code::FenceDevice:
    sleep(T, Mem.fenceDevice(Tid));
    break;
  case Code::Sleep:
    sleep(T, O.Imm);
    break;
  case Code::SleepRand:
    sleep(T, O.A + static_cast<unsigned>(R.below(O.Imm)));
    break;
  case Code::Barrier:
    arriveAtBarrier(Tid);
    break;
  default:
    GPUWMM_CHECK(false, "free op in suspending-op dispatch");
  }
}

RunResult Scheduler::run() {
  RunResult Result;
  while (Live > 0) {
    ++Now;
    if (DivergenceFlag) {
      Result.Status = RunStatus::BarrierDivergence;
      break;
    }
    if (Now > Config.MaxTicks) {
      Result.Status = RunStatus::Timeout;
      break;
    }

    Mem.tick(Now);

    // Wake async-load waiters whose tickets completed.
    for (size_t I = 0; I != S.TicketWaiters.size();) {
      const unsigned Tid = S.TicketWaiters[I];
      SimThread &T = S.Threads[Tid];
      if (T.State == ThreadState::OnTicket && Mem.asyncDone(T.Ticket)) {
        T.RetVal = Mem.asyncValue(T.Ticket);
        T.State = ThreadState::Sleeping;
        T.WakeTick = Now;
        S.TicketWaiters[I] = S.TicketWaiters.back();
        S.TicketWaiters.pop_back();
        continue;
      }
      ++I;
    }

    bool Issued = false;
    for (unsigned SM = 0; SM != S.SMRotor.size(); ++SM) {
      auto &Ws = S.SMWarps[SM];
      if (Ws.empty())
        continue;
      unsigned Budget = Config.IssueWidthPerSM;
      unsigned Start = S.SMRotor[SM];
      if (Config.RandomiseThreads)
        Start = static_cast<unsigned>(R.below(Ws.size()));
      for (unsigned K = 0; K != Ws.size() && Budget != 0; ++K) {
        const Warp &W = Ws[(Start + K) % Ws.size()];
        // Warp-priority jitter under randomisation.
        if (Config.RandomiseThreads && R.chance(0.15))
          continue;
        bool WarpIssued = false;
        for (unsigned L = 0; L != W.NumThreads; ++L) {
          const unsigned Tid = W.FirstTid + L;
          if (!threadEligible(S.Threads[Tid]))
            continue;
          resumeThread(Tid);
          WarpIssued = true;
        }
        if (WarpIssued) {
          --Budget;
          Issued = true;
        }
      }
      S.SMRotor[SM] = (S.SMRotor[SM] + 1) % Ws.size();
    }

    if (!Issued && Live > 0 && !Mem.hasPendingWork() &&
        S.TicketWaiters.empty()) {
      // Nothing ran: deadlocked unless some thread is merely sleeping (it
      // will become eligible at its wake tick).
      bool AnySleeping = false;
      for (const SimThread &T : S.Threads)
        AnySleeping |= T.State == ThreadState::Sleeping;
      if (!AnySleeping) {
        bool AnyAtBarrier = false;
        for (const BlockState &BS : S.Blocks)
          AnyAtBarrier |= BS.AtBarrier > 0;
        Result.Status = AnyAtBarrier ? RunStatus::BarrierDivergence
                                     : RunStatus::Deadlock;
        break;
      }
    }
  }

  // Kernel boundaries synchronise: everything becomes visible.
  Mem.drainAll();
  Result.Ticks = Now;
  Result.Mem = Mem.stats();
  return Result;
}

//===----------------------------------------------------------------------===//
// Barriers
//===----------------------------------------------------------------------===//

void Scheduler::arriveAtBarrier(unsigned Tid) {
  SimThread &T = S.Threads[Tid];
  BlockState &BS = S.Blocks[T.Block];
  T.State = ThreadState::AtBarrier;
  ++BS.AtBarrier;
  if (BS.AtBarrier == BS.Live)
    releaseBarrier(T.Block);
}

void Scheduler::releaseBarrier(unsigned Block) {
  BlockState &BS = S.Blocks[Block];
  // The barrier-release event precedes the per-participant block-fence
  // promotions it implies (the sink lives on the memory system so the
  // whole execution shares one event stream).
  if (TraceSink *TS = Mem.traceSink())
    TS->event({TraceEventKind::BarrierRelease, LoadSource::Memory, false, 0,
               Block, 0, 0, 0, 0, Now});
  // CUDA guarantees block-level memory consistency at barriers: every
  // participant's buffered stores become visible to the block.
  for (unsigned L = 0; L != BS.NumThreads; ++L) {
    const unsigned Tid = BS.FirstTid + L;
    SimThread &T = S.Threads[Tid];
    if (T.State != ThreadState::AtBarrier)
      continue;
    Mem.fenceBlock(Tid, Block);
    T.State = ThreadState::Sleeping;
    T.WakeTick = Now + 1;
  }
  BS.AtBarrier = 0;
}
