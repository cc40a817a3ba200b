//===- sim/Scheduler.cpp - SIMT warp scheduler -------------------------------===//

#include "sim/Scheduler.h"

#include "sim/ThreadContext.h"

#include <algorithm>
#include <cassert>

using namespace gpuwmm;
using namespace gpuwmm::sim;

Scheduler::Scratch::Scratch() = default;
Scheduler::Scratch::~Scratch() = default;

void Scheduler::Scratch::clear() {
  Threads.clear(); // Destroys the kernel coroutines.
  Contexts.clear();
  Blocks.clear();
  for (std::vector<Warp> &Ws : SMWarps)
    Ws.clear();
  SMRotor.clear();
  TicketWaiters.clear();
}

Scheduler::Scheduler(const ChipProfile &Chip, MemorySystem &Mem, Rng &R,
                     const SchedulerConfig &Config, Scratch *ExtScratch)
    : Chip(Chip), Mem(Mem), R(R), Config(Config),
      OwnedScratch(ExtScratch ? nullptr : new Scratch),
      S(ExtScratch ? *ExtScratch : *OwnedScratch) {}

Scheduler::~Scheduler() { S.clear(); }

void Scheduler::launch(const LaunchConfig &LC, const KernelFn &Fn) {
  assert(S.Threads.empty() && "scheduler already launched");
  Launch = LC;
  const unsigned NumThreads = LC.totalThreads();
  Mem.registerThreads(NumThreads);
  S.Threads.resize(NumThreads);
  S.Contexts.reserve(NumThreads); // Reserve first: addresses must be stable.
  S.Blocks.assign(LC.GridDim, BlockState{});
  if (S.SMWarps.size() < Chip.NumSMs)
    S.SMWarps.resize(Chip.NumSMs);
  for (std::vector<Warp> &Ws : S.SMWarps)
    Ws.clear();
  S.SMRotor.assign(Chip.NumSMs, 0);

  // Block placement: deterministic round-robin natively; random placement
  // under thread randomisation (blocks move as units, so block membership
  // is honoured).
  std::vector<unsigned> BlockToSM(LC.GridDim);
  for (unsigned B = 0; B != LC.GridDim; ++B)
    BlockToSM[B] = B % Chip.NumSMs;
  if (Config.RandomiseThreads)
    for (unsigned B = 0; B != LC.GridDim; ++B)
      BlockToSM[B] = static_cast<unsigned>(R.below(Chip.NumSMs));

  for (unsigned B = 0; B != LC.GridDim; ++B) {
    BlockState &BS = S.Blocks[B];
    BS.FirstTid = B * LC.BlockDim;
    BS.NumThreads = LC.BlockDim;
    BS.Live = LC.BlockDim;

    // Warps never straddle blocks (CUDA guarantees this).
    for (unsigned W = 0; W * WarpSize < LC.BlockDim; ++W) {
      Warp Wp;
      Wp.FirstTid = BS.FirstTid + W * WarpSize;
      Wp.NumThreads = std::min(WarpSize, LC.BlockDim - W * WarpSize);
      S.SMWarps[BlockToSM[B]].push_back(Wp);
    }

    for (unsigned L = 0; L != LC.BlockDim; ++L) {
      const unsigned Tid = BS.FirstTid + L;
      S.Contexts.emplace_back(*this, Tid, B, L, LC);
      SimThread &T = S.Threads[Tid];
      T.Block = B;
      T.Coro = Fn(S.Contexts.back());
      assert(T.Coro.valid() && "kernel factory returned an invalid kernel");
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

void Scheduler::resumeThread(unsigned Tid) {
  SimThread &T = S.Threads[Tid];
  assert(threadEligible(T) && "resuming an ineligible thread");
  // A pending inserted fence executes as its own instruction before the
  // kernel proceeds: first the fence's round-trip latency elapses, then
  // its drain takes effect.
  if (T.PendingFenceStage == 1) {
    T.PendingFenceStage = 2;
    sleep(T, Chip.FenceBaseLatency);
    return;
  }
  if (T.PendingFenceStage == 2) {
    T.PendingFenceStage = 0;
    sleep(T, Mem.fenceDevice(Tid));
    return;
  }
  T.State = ThreadState::Running;
  T.Coro.resume();
  if (T.Coro.done()) {
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
  assert(T.State != ThreadState::Running &&
         "kernel step must end in an awaited operation");
}

RunResult Scheduler::run() {
  RunResult Result;
  while (Live > 0) {
    ++Now;
    if (DivergenceFlag || FaultFlag) {
      Result.Status = DivergenceFlag ? RunStatus::BarrierDivergence
                                     : RunStatus::KernelFault;
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
// Thread operations
//===----------------------------------------------------------------------===//

void Scheduler::armPolicyFence(SimThread &T, int Site) {
  if (!Policy || !Policy->fenceAfter(Site))
    return;
  T.PendingFenceStage = 1;
}

void Scheduler::opStore(unsigned Tid, Addr A, Word V, int Site) {
  SimThread &T = S.Threads[Tid];
  Mem.store(Tid, T.Block, A, V);
  sleep(T, 1);
  armPolicyFence(T, Site);
}

void Scheduler::opLoad(unsigned Tid, Addr A, int Site) {
  SimThread &T = S.Threads[Tid];
  T.RetVal = Mem.load(Tid, T.Block, A);
  sleep(T, 1);
  armPolicyFence(T, Site);
}

void Scheduler::opAtomicCAS(unsigned Tid, Addr A, Word Cmp, Word Val,
                            int Site) {
  SimThread &T = S.Threads[Tid];
  T.RetVal = Mem.atomicCAS(Tid, A, Cmp, Val);
  sleep(T, Chip.AtomicLatency);
  armPolicyFence(T, Site);
}

void Scheduler::opAtomicExch(unsigned Tid, Addr A, Word Val, int Site) {
  SimThread &T = S.Threads[Tid];
  T.RetVal = Mem.atomicExch(Tid, A, Val);
  sleep(T, Chip.AtomicLatency);
  armPolicyFence(T, Site);
}

void Scheduler::opAtomicAdd(unsigned Tid, Addr A, Word Val, int Site) {
  SimThread &T = S.Threads[Tid];
  T.RetVal = Mem.atomicAdd(Tid, A, Val);
  sleep(T, Chip.AtomicLatency);
  armPolicyFence(T, Site);
}

void Scheduler::opFenceDevice(unsigned Tid) {
  sleep(S.Threads[Tid], Mem.fenceDevice(Tid));
}

void Scheduler::opFenceBlock(unsigned Tid) {
  SimThread &T = S.Threads[Tid];
  sleep(T, Mem.fenceBlock(Tid, T.Block));
}

void Scheduler::opAsyncIssue(unsigned Tid, Addr A) {
  SimThread &T = S.Threads[Tid];
  T.RetVal = Mem.issueAsyncLoad(Tid, A);
  sleep(T, 1);
}

void Scheduler::opAsyncWait(unsigned Tid, unsigned Ticket) {
  SimThread &T = S.Threads[Tid];
  if (Mem.asyncDone(Ticket)) {
    T.RetVal = Mem.asyncValue(Ticket);
    sleep(T, 1);
    return;
  }
  T.State = ThreadState::OnTicket;
  T.Ticket = Ticket;
  S.TicketWaiters.push_back(Tid);
}

void Scheduler::opBarrier(unsigned Tid) {
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

void Scheduler::opYield(unsigned Tid, unsigned Ticks) {
  sleep(S.Threads[Tid], std::max(1u, Ticks));
}

void Scheduler::opFault(unsigned Tid) {
  (void)Tid;
  FaultFlag = true;
}

Word Scheduler::retVal(unsigned Tid) const { return S.Threads[Tid].RetVal; }
