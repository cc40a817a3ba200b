//===- sim/ExecutionContext.h - Reusable execution engine state -*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reusable execution engine behind the simulator hot path.
///
/// Every experiment in the paper's pipeline (litmus tuning, Tab. 5 campaign
/// cells, fence-insertion oracle checks, fuzz batches) performs millions of
/// short simulated executions. Constructing a fresh simulator per run would
/// reallocate the global-memory image, the per-thread-per-bank store
/// buffers, async-load slots, pressure caches and scheduler containers from
/// scratch every time — the dominant per-run overhead once the runs are
/// spread over a thread pool.
///
/// An ExecutionContext owns all of that state and supports an O(touched)
/// \ref reset: one context serves an unbounded sequence of runs, reusing
/// every container's capacity (DESIGN.md Sec. 12). Resetting restores
/// exactly the state a freshly constructed context would have, so results
/// are bit-identical between fresh and reused contexts — an extension of
/// the parallel engine's determinism contract (DESIGN.md Sec. 11).
///
/// Contexts are distributed through thread-local \ref ContextLease pools:
/// each ThreadPool worker (and the submitting thread) recycles its own
/// contexts, so parallel campaigns run without cross-thread sharing and
/// without per-run allocation in steady state.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_SIM_EXECUTIONCONTEXT_H
#define GPUWMM_SIM_EXECUTIONCONTEXT_H

#include "sim/BatchExec.h"
#include "sim/MemorySystem.h"
#include "sim/Scheduler.h"
#include "sim/TraceSink.h"
#include "support/Rng.h"

namespace gpuwmm {
namespace sim {

/// Owns all recyclable simulator state: the deterministic RNG, the weak
/// memory system (global-memory image, store buffers, async-load slots,
/// pressure caches) and the scheduler's launch-lifetime containers.
///
/// A context is single-threaded: it must only be used by one run at a
/// time, on the thread that uses it. \ref reset rebinds it to a chip and
/// reseeds it in O(state touched by the previous run).
class ExecutionContext {
public:
  ExecutionContext() : Memory(R) {}

  ExecutionContext(const ExecutionContext &) = delete;
  ExecutionContext &operator=(const ExecutionContext &) = delete;

  /// Prepares the context for one fresh run on \p Chip seeded with
  /// \p Seed. Afterwards the context's observable state is exactly that of
  /// a newly constructed simulator: the RNG is reseeded, every word the
  /// previous run wrote is zeroed (dirty-address tracking), store buffers,
  /// async slots and overlays are empty, and all statistics are cleared —
  /// while every container keeps its capacity.
  void reset(const ChipProfile &Chip, uint64_t Seed) {
    R.reseed(Seed);
    Memory.reset(Chip);
    Trace.clear();
    if (StreamSink)
      Memory.setTraceSink(StreamSink);
    else if (TraceRequested)
      Memory.setTraceSink(&Trace);
    ++NumResets;
  }

  /// Arms (or disarms) event tracing for subsequent runs on this context:
  /// each reset() re-attaches the recycled \ref EventTrace recorder as the
  /// memory system's sink. Tracing is pure observation — results are
  /// bit-identical with it on or off — and the recorder's capacity is
  /// reused across runs, so steady-state traced runs allocate nothing.
  /// Cleared when a leased context is returned to its pool.
  void requestTracing(bool On) { TraceRequested = On; }
  bool tracingRequested() const { return TraceRequested; }

  /// Streaming-sink mode: each reset() attaches \p S (an external
  /// incremental consumer, e.g. model::StreamingChecker) as the memory
  /// system's sink instead of the recycled EventTrace recorder. The run
  /// is judged as it executes and no trace is retained, so memory stays
  /// bounded by the consumer's frontier rather than run length. Pass
  /// nullptr to disarm. Takes precedence over \ref requestTracing; like
  /// it, cleared when a leased context is returned to its pool.
  void requestStreaming(TraceSink *S) { StreamSink = S; }

  /// The events recorded by the most recent run (empty when tracing was
  /// off). Valid until the next reset().
  EventTrace &trace() { return Trace; }
  const EventTrace &trace() const { return Trace; }

  Rng &rng() { return R; }
  MemorySystem &memory() { return Memory; }
  Scheduler::Scratch &schedulerScratch() { return Scratch; }
  /// The compiled executor's recyclable lane/residency state and register
  /// vector (sim/BatchExec.h, DESIGN.md Sec. 17). Like the scheduler
  /// scratch, contents are internal to the engine that fills them.
  BatchScratch &batchScratch() { return BScratch; }

  /// Number of reset() calls served (reuse diagnostics; benches and tests
  /// use this to confirm recycling actually happens).
  uint64_t resets() const { return NumResets; }

private:
  Rng R{0};
  MemorySystem Memory;
  Scheduler::Scratch Scratch;
  BatchScratch BScratch;
  EventTrace Trace; ///< Recycled event recorder (attached when requested).
  TraceSink *StreamSink = nullptr; ///< External sink (streaming mode).
  bool TraceRequested = false;
  uint64_t NumResets = 0;
};

/// RAII lease of an ExecutionContext from the current thread's recycled
/// pool.
///
/// The first leases on a thread allocate contexts; once released they are
/// recycled, so steady-state leasing allocates nothing. Nested leases (an
/// application run that internally executes a reference run, e.g.
/// ls-bh's shadow device) receive distinct contexts. A lease — whether
/// stack-scoped or held as a member (LitmusRunner) — must be released on
/// the thread that acquired it; debug builds assert this in the
/// destructor, since releasing into a foreign pool would dangle once the
/// owning thread exits.
class ContextLease {
public:
  /// Acquires a context from the thread-local pool.
  ContextLease();
  /// An empty lease (used when an external context is bound instead).
  explicit ContextLease(std::nullptr_t) {}
  ~ContextLease();

  ContextLease(const ContextLease &) = delete;
  ContextLease &operator=(const ContextLease &) = delete;

  bool held() const { return Ctx != nullptr; }
  ExecutionContext &get() const {
    assert(Ctx && "empty context lease");
    return *Ctx;
  }

private:
  ExecutionContext *Ctx = nullptr;
  void *Owner = nullptr; ///< The acquiring thread's pool (release check).
};

} // namespace sim
} // namespace gpuwmm

#endif // GPUWMM_SIM_EXECUTIONCONTEXT_H
