//===- sim/Scheduler.h - SIMT warp scheduler --------------------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SIMT scheduler, the reference engine (--engine=scalar): it runs one
/// launch of a compiled program (sim/BatchExec.h), groups the launched
/// threads into warps and blocks, places blocks onto SMs, and advances
/// execution tick by tick over every SM. Each thread steps its lane's op
/// range with a program counter: a resume binds the previous suspending
/// op's result to its register, runs the free ops up to the next
/// suspending op and issues that one against the memory system. Implements
/// CUDA barriers (with divergence detection) and the thread-randomisation
/// heuristic of the paper's Sec. 3.5 (permuted block placement plus warp
/// scheduling jitter, always honouring warp and block membership).
///
/// The scheduler's launch-lifetime containers live in a Scheduler::Scratch
/// that can be supplied by an ExecutionContext: the scheduler clears it
/// (capacity preserved) when it finishes, so back-to-back launches on a
/// reused context allocate nothing (DESIGN.md Sec. 12).
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_SIM_SCHEDULER_H
#define GPUWMM_SIM_SCHEDULER_H

#include "sim/BatchExec.h"
#include "sim/MemorySystem.h"
#include "sim/Types.h"
#include "support/Rng.h"

#include <memory>
#include <vector>

namespace gpuwmm {
namespace sim {

/// Execution state of one simulated thread.
enum class ThreadState {
  Sleeping,  ///< Eligible to run once WakeTick is reached.
  AtBarrier, ///< Parked at __syncthreads.
  OnTicket,  ///< Parked awaiting an async-load completion.
  Done       ///< Reached the end of its op range.
};

/// Executes one program launch to completion.
class Scheduler {
public:
  /// The scheduler's launch-lifetime containers, recyclable across
  /// launches. The owning scheduler fills these at launch() and clears
  /// them (capacity preserved) in its destructor; contents are internal
  /// to the scheduler.
  struct Scratch {
    struct SimThread {
      ThreadState State = ThreadState::Sleeping;
      uint64_t WakeTick = 0;
      uint32_t PC = 0; ///< Next op of the lane's range.
      unsigned Ticket = 0;
      /// The last suspending op's result, bound to its register when the
      /// thread next resumes.
      Word RetVal = 0;
      /// Ops[PC - 1] is a suspending op whose result is still to bind.
      bool Bind = false;
      unsigned Block = 0;
    };

    struct Warp {
      unsigned FirstTid = 0;
      unsigned NumThreads = 0;
    };

    struct BlockState {
      unsigned Live = 0;       ///< Threads not yet Done.
      unsigned AtBarrier = 0;  ///< Threads parked at the barrier.
      unsigned FirstTid = 0;
      unsigned NumThreads = 0;
    };

    std::vector<SimThread> Threads;
    std::vector<BlockState> Blocks;
    std::vector<std::vector<Warp>> SMWarps; ///< Warps resident on each SM.
    std::vector<unsigned> SMRotor;          ///< Round-robin start per SM.
    std::vector<unsigned> BlockToSM;
    std::vector<unsigned> TicketWaiters;

    /// Destroys launch state, keeping capacity.
    void clear();
  };

  /// \p S supplies recyclable containers (an ExecutionContext's, usually);
  /// when null the scheduler privately owns a scratch.
  Scheduler(const ChipProfile &Chip, MemorySystem &Mem, Rng &R,
            const SchedulerConfig &Config, Scratch *S = nullptr);
  ~Scheduler();

  Scheduler(const Scheduler &) = delete;
  Scheduler &operator=(const Scheduler &) = delete;

  /// Creates the grid's threads, each with its PC at the start of its
  /// lane's op range. \p BP and \p Regs (BP.NumSlots words, shared by all
  /// lanes) must outlive run().
  void launch(const BatchProgram &BP, Word *Regs);

  /// Runs the launched grid to completion (or divergence, deadlock or
  /// timeout).
  RunResult run();

private:
  using SimThread = Scratch::SimThread;
  using Warp = Scratch::Warp;
  using BlockState = Scratch::BlockState;

  /// Puts \p T to sleep for \p Latency ticks.
  void sleep(SimThread &T, unsigned Latency);

  /// Writes the result of the suspending op before T.PC to its register.
  void bindResult(SimThread &T);

  void resumeThread(unsigned Tid);
  void arriveAtBarrier(unsigned Tid);
  void releaseBarrier(unsigned Block);
  bool threadEligible(const SimThread &T) const;

  const ChipProfile &Chip;
  MemorySystem &Mem;
  Rng &R;
  SchedulerConfig Config;

  std::unique_ptr<Scratch> OwnedScratch; ///< Engaged when none was passed.
  Scratch &S;

  const BatchProgram *BP = nullptr;
  Word *Regs = nullptr;
  uint64_t Now = 0;
  unsigned Live = 0;
  bool DivergenceFlag = false;
};

} // namespace sim
} // namespace gpuwmm

#endif // GPUWMM_SIM_SCHEDULER_H
