//===- sim/ThreadContext.h - Kernel-facing device API -----------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The API a simulated kernel uses to interact with the device: thread and
/// block identifiers, global-memory loads/stores, atomics, fences, barriers
/// and split-phase loads. Every operation is awaited, which suspends the
/// kernel coroutine into the scheduler — the simulated analogue of issuing
/// an instruction.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_SIM_THREADCONTEXT_H
#define GPUWMM_SIM_THREADCONTEXT_H

#include "sim/Kernel.h"
#include "sim/Scheduler.h"
#include "sim/Types.h"

namespace gpuwmm {
namespace sim {

/// Awaitable returned by every ThreadContext operation.
///
/// The operation's side effects are applied when the operation method is
/// called (i.e. when execution reaches the co_await expression); awaiting
/// then suspends the thread until the scheduler resumes it. Operations must
/// be awaited immediately.
struct OpAwait {
  ThreadContext *Ctx;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<>) const noexcept {}
  Word await_resume() const noexcept;
};

/// Per-thread device handle passed to every kernel coroutine.
class ThreadContext {
public:
  ThreadContext(Scheduler &S, unsigned Tid, unsigned Block, unsigned Lane,
                const LaunchConfig &LC)
      : Sched(S), Tid(Tid), Block(Block), Lane(Lane), Launch(LC) {}

  // --- CUDA-style identifiers ----------------------------------------------

  unsigned threadIdx() const { return Lane; }
  unsigned blockIdx() const { return Block; }
  unsigned blockDim() const { return Launch.BlockDim; }
  unsigned gridDim() const { return Launch.GridDim; }
  unsigned globalId() const { return Tid; }
  unsigned warpIdx() const { return Lane / WarpSize; }

  // --- Memory operations (all must be co_awaited) --------------------------

  /// Plain global store. \p Site identifies the access for fence policies.
  OpAwait st(Addr A, Word V, int Site = NoSite) {
    Sched.opStore(Tid, A, V, Site);
    return {this};
  }

  /// Plain global load; the awaited value is the loaded word.
  OpAwait ld(Addr A, int Site = NoSite) {
    Sched.opLoad(Tid, A, Site);
    return {this};
  }

  /// atomicCAS(A, Compare, Value); the awaited value is the old word.
  OpAwait atomicCAS(Addr A, Word Compare, Word Value, int Site = NoSite) {
    Sched.opAtomicCAS(Tid, A, Compare, Value, Site);
    return {this};
  }

  /// atomicExch(A, Value); the awaited value is the old word.
  OpAwait atomicExch(Addr A, Word Value, int Site = NoSite) {
    Sched.opAtomicExch(Tid, A, Value, Site);
    return {this};
  }

  /// atomicAdd(A, Value); the awaited value is the old word.
  OpAwait atomicAdd(Addr A, Word Value, int Site = NoSite) {
    Sched.opAtomicAdd(Tid, A, Value, Site);
    return {this};
  }

  /// __threadfence(): device-scope fence.
  OpAwait fence() {
    Sched.opFenceDevice(Tid);
    return {this};
  }

  /// __threadfence_block(): block-scope fence.
  OpAwait fenceBlock() {
    Sched.opFenceBlock(Tid);
    return {this};
  }

  /// __syncthreads(): block barrier (undefined behaviour under divergence,
  /// which the simulator detects and reports).
  OpAwait syncthreads() {
    Sched.opBarrier(Tid);
    return {this};
  }

  /// Issues a split-phase load; the awaited value is a ticket for
  /// \ref awaitLoad. Models load buffering (LB). The thread must not store
  /// to \p A while the load is pending.
  OpAwait ldAsync(Addr A) {
    Sched.opAsyncIssue(Tid, A);
    return {this};
  }

  /// Waits for a split-phase load; the awaited value is the loaded word.
  OpAwait awaitLoad(Word Ticket) {
    Sched.opAsyncWait(Tid, static_cast<unsigned>(Ticket));
    return {this};
  }

  /// Consumes \p Ticks ticks of simulated compute.
  OpAwait yield(unsigned Ticks = 1) {
    Sched.opYield(Tid, Ticks);
    return {this};
  }

  /// Signals a kernel-detected invariant violation; the kernel should
  /// co_return immediately afterwards.
  void fault() { Sched.opFault(Tid); }

  /// Device-side randomness (e.g. start-phase jitter in litmus tests).
  uint64_t rand(uint64_t Bound) { return Sched.rng().below(Bound); }

  Word lastValue() const { return Sched.retVal(Tid); }

private:
  Scheduler &Sched;
  unsigned Tid;
  unsigned Block;
  unsigned Lane;
  LaunchConfig Launch;
};

inline Word OpAwait::await_resume() const noexcept {
  return Ctx->lastValue();
}

} // namespace sim
} // namespace gpuwmm

#endif // GPUWMM_SIM_THREADCONTEXT_H
