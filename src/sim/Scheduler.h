//===- sim/Scheduler.h - SIMT warp scheduler --------------------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SIMT scheduler: owns the simulated threads of one kernel launch,
/// groups them into warps and blocks, places blocks onto SMs, and advances
/// execution tick by tick. Implements CUDA barriers (with divergence
/// detection), per-site fence policies, and the thread-randomisation
/// heuristic of the paper's Sec. 3.5 (permuted block placement plus warp
/// scheduling jitter, always honouring warp and block membership).
///
/// The scheduler's launch-lifetime containers live in a Scheduler::Scratch
/// that can be supplied by an ExecutionContext: the scheduler clears it
/// (capacity preserved) when it finishes, so back-to-back launches on a
/// reused context allocate nothing beyond the coroutine frames themselves
/// (DESIGN.md Sec. 12).
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_SIM_SCHEDULER_H
#define GPUWMM_SIM_SCHEDULER_H

#include "sim/FencePolicy.h"
#include "sim/Kernel.h"
#include "sim/MemorySystem.h"
#include "sim/Types.h"
#include "support/Rng.h"

#include <memory>
#include <vector>

namespace gpuwmm {
namespace sim {

class ThreadContext;

/// Execution state of one simulated thread.
enum class ThreadState {
  Sleeping,  ///< Eligible to run once WakeTick is reached.
  Running,   ///< Currently inside a resume (transient).
  AtBarrier, ///< Parked at __syncthreads.
  OnTicket,  ///< Parked awaiting an async-load completion.
  Done       ///< Coroutine finished.
};

/// Executes one kernel launch to completion.
class Scheduler {
public:
  /// The scheduler's launch-lifetime containers, recyclable across
  /// launches. The owning scheduler fills these at launch() and clears
  /// them (capacity preserved) in its destructor; contents are internal
  /// to the scheduler.
  struct Scratch {
    // Out-of-line special members: Contexts holds the (here incomplete)
    // ThreadContext type, so instantiation must happen in Scheduler.cpp.
    Scratch();
    ~Scratch();
    Scratch(const Scratch &) = delete;
    Scratch &operator=(const Scratch &) = delete;

    struct SimThread {
      Kernel Coro;
      ThreadState State = ThreadState::Sleeping;
      uint64_t WakeTick = 0;
      unsigned Ticket = 0;
      Word RetVal = 0;
      unsigned Block = 0;
      /// Inserted-fence micro-sequencer: a policy fence is a separate
      /// instruction after the access, so its drain lands FenceBaseLatency
      /// ticks later — leaving the genuine reordering window a trailing
      /// fence cannot close (e.g. after an unlock).
      unsigned PendingFenceStage = 0;
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
    /// Stable for a launch: reserved to the thread count before any
    /// element is created, so coroutines may hold references into it.
    std::vector<ThreadContext> Contexts;
    std::vector<BlockState> Blocks;
    std::vector<std::vector<Warp>> SMWarps; ///< Warps resident on each SM.
    std::vector<unsigned> SMRotor;          ///< Round-robin start per SM.
    std::vector<unsigned> TicketWaiters;

    /// Destroys launch state (coroutines included), keeping capacity.
    void clear();
  };

  /// \p S supplies recyclable containers (an ExecutionContext's, usually);
  /// when null the scheduler privately owns a scratch.
  Scheduler(const ChipProfile &Chip, MemorySystem &Mem, Rng &R,
            const SchedulerConfig &Config, Scratch *S = nullptr);
  ~Scheduler();

  Scheduler(const Scheduler &) = delete;
  Scheduler &operator=(const Scheduler &) = delete;

  /// Creates the grid's threads and their coroutines.
  void launch(const LaunchConfig &LC, const KernelFn &Fn);

  /// Installs the per-site fence policy (not owned; may be null).
  void setFencePolicy(const FencePolicy *P) { Policy = P; }

  /// Runs the launched grid to completion (or fault/timeout).
  RunResult run();

  // --- Operations invoked by ThreadContext ---------------------------------

  void opStore(unsigned Tid, Addr A, Word V, int Site);
  void opLoad(unsigned Tid, Addr A, int Site);
  void opAtomicCAS(unsigned Tid, Addr A, Word Cmp, Word Val, int Site);
  void opAtomicExch(unsigned Tid, Addr A, Word Val, int Site);
  void opAtomicAdd(unsigned Tid, Addr A, Word Val, int Site);
  void opFenceDevice(unsigned Tid);
  void opFenceBlock(unsigned Tid);
  void opAsyncIssue(unsigned Tid, Addr A);
  void opAsyncWait(unsigned Tid, unsigned Ticket);
  void opBarrier(unsigned Tid);
  void opYield(unsigned Tid, unsigned Ticks);
  void opFault(unsigned Tid);

  Word retVal(unsigned Tid) const;
  Rng &rng() { return R; }
  uint64_t now() const { return Now; }

private:
  using SimThread = Scratch::SimThread;
  using Warp = Scratch::Warp;
  using BlockState = Scratch::BlockState;

  /// Puts \p T to sleep for \p Latency ticks.
  void sleep(SimThread &T, unsigned Latency);

  /// Arms the delayed policy fence after an access at \p Site.
  void armPolicyFence(SimThread &T, int Site);

  void resumeThread(unsigned Tid);
  void releaseBarrier(unsigned Block);
  bool threadEligible(const SimThread &T) const;

  const ChipProfile &Chip;
  MemorySystem &Mem;
  Rng &R;
  SchedulerConfig Config;

  const FencePolicy *Policy = nullptr;

  std::unique_ptr<Scratch> OwnedScratch; ///< Engaged when none was passed.
  Scratch &S;

  LaunchConfig Launch;
  uint64_t Now = 0;
  unsigned Live = 0;
  bool FaultFlag = false;
  bool DivergenceFlag = false;
};

} // namespace sim
} // namespace gpuwmm

#endif // GPUWMM_SIM_SCHEDULER_H
