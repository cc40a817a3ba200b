//===- sim/MemorySystem.h - Weak GPU memory model ---------------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The operational weak memory model at the heart of the simulated GPU.
///
/// Model summary (DESIGN.md Sec. 3):
///  * Global memory is a flat array of words. Words map to banks at
///    patch-size granularity: bank(a) = (a / P) % NumBanks.
///  * Plain stores enter a per-thread, per-bank FIFO and drain
///    asynchronously (one probabilistic opportunity per bank per tick).
///    Same-bank stores stay ordered; different banks drain independently,
///    so cross-bank stores can become visible out of order (MP, SB).
///  * Split-phase ("async") loads bind their value at a later completion
///    tick, so a program-order-later store can become visible first (LB).
///    A later same-thread store to the same bank forces completion first,
///    so same-bank LB is impossible — matching the paper's observation
///    that no weak behaviour occurs when communication locations are
///    within one patch of each other.
///  * A plain load (or atomic) to a bank first drains the issuing thread's
///    own buffered stores to that bank (same-bank self-coherence), except
///    when the newest buffered store is to the same address (forwarding).
///  * Atomics act directly on globally visible memory without draining the
///    thread's other banks — the root cause of the spinlock bugs the paper
///    provokes (an unlock can become visible while the critical-section
///    store is still buffered).
///  * Device fences drain everything synchronously (with a latency cost);
///    block fences promote buffered stores to block visibility only.
///  * Bank congestion, injected by a CongestionSource, divides drain and
///    async-completion probabilities — the causal hook by which disjoint
///    scratchpad stress amplifies weak behaviours.
///
/// In sequential mode (used for reference runs) every operation takes
/// effect immediately and the model is sequentially consistent.
///
/// Every semantically meaningful event above (store issue, buffer drain,
/// load bind, async issue/completion, atomic, fence drain, block-fence
/// promotion, host write) is reported through the \ref TraceSink seam
/// (sim/TraceSink.h) when a sink is installed; the axiomatic consistency
/// checker (model/ConsistencyChecker.h) validates recorded executions
/// against the corresponding axioms (DESIGN.md Sec. 14).
///
/// Lifecycle (DESIGN.md Sec. 12): a MemorySystem is a reusable engine.
/// \ref reset rebinds it to a chip and restores the exact observable state
/// of a freshly constructed instance in O(state touched since the last
/// reset) — written words are zeroed via a dirty-address list, store-buffer
/// slots, async-load slots and overlays are emptied with their capacity
/// retained. Store buffers are slot-based (a vector with a head cursor)
/// rather than deque-based, so a reused context performs no per-run
/// allocation in steady state.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_SIM_MEMORYSYSTEM_H
#define GPUWMM_SIM_MEMORYSYSTEM_H

#include "sim/ChipProfile.h"
#include "sim/Congestion.h"
#include "sim/TraceSink.h"
#include "sim/Types.h"
#include "support/Rng.h"

#include <cassert>
#include <unordered_map>
#include <vector>

namespace gpuwmm {
namespace sim {

/// The simulated global memory with its weak-memory machinery.
class MemorySystem {
public:
  /// An unbound engine; call \ref reset before use. \p R is the RNG the
  /// engine draws from (not owned; typically the owning
  /// ExecutionContext's).
  explicit MemorySystem(Rng &R) : R(R) {}

  /// Convenience: an engine bound to \p Chip immediately (unit tests and
  /// one-shot uses).
  MemorySystem(const ChipProfile &Chip, Rng &R) : R(R) { reset(Chip); }

  /// Rebinds to \p NewChip and restores freshly-constructed observable
  /// state in O(touched): zeroes every word written since the last reset,
  /// empties store-buffer/async/overlay state (keeping capacity), clears
  /// statistics and re-arms the per-bank pressure cache.
  void reset(const ChipProfile &NewChip);

  /// Switches to sequentially consistent mode (reference runs).
  void setSequentialMode(bool SC) { SeqMode = SC; }
  bool sequentialMode() const { return SeqMode; }

  /// Installs the contention source (not owned). Null means no stress.
  void setCongestionSource(const CongestionSource *S) { Stress = S; }

  /// Installs the trace sink (not owned; null disables tracing). Every
  /// notification site is guarded by one pointer test, so the seam is
  /// zero-overhead when off and never perturbs results (the sink observes,
  /// it cannot steer; DESIGN.md Sec. 14). Cleared by \ref reset.
  void setTraceSink(TraceSink *S) { Sink = S; }
  TraceSink *traceSink() const { return Sink; }

  /// Declares the number of simulated threads (thread ids are dense).
  void registerThreads(unsigned NumThreads);

  /// Allocates \p Words words of zeroed global memory, aligned to the
  /// chip's patch size (as cudaMalloc aligns allocations in practice).
  Addr alloc(unsigned Words);

  /// Total words allocated so far.
  unsigned allocatedWords() const { return NextFree; }

  // --- Thread-facing operations -------------------------------------------

  void store(unsigned Tid, unsigned Block, Addr A, Word V);
  Word load(unsigned Tid, unsigned Block, Addr A);

  /// Atomic compare-and-swap; returns the old value.
  Word atomicCAS(unsigned Tid, Addr A, Word Compare, Word Value);
  /// Atomic exchange; returns the old value.
  Word atomicExch(unsigned Tid, Addr A, Word Value);
  /// Atomic add; returns the old value.
  Word atomicAdd(unsigned Tid, Addr A, Word Value);

  /// Device-scope fence: synchronously drains all of \p Tid's buffered
  /// stores and completes its pending async loads. Returns the latency in
  /// ticks the issuing thread must stall.
  unsigned fenceDevice(unsigned Tid);

  /// Block-scope fence: promotes \p Tid's buffered stores to block
  /// visibility (same-block loads will observe them). Returns latency.
  unsigned fenceBlock(unsigned Tid, unsigned Block);

  // --- Split-phase loads ----------------------------------------------------

  /// Issues an async load; returns a ticket. The value binds at a later
  /// completion tick. Must not target an address this thread stores to
  /// while the load is pending (checked in debug builds).
  unsigned issueAsyncLoad(unsigned Tid, Addr A);
  bool asyncDone(unsigned Ticket) const;
  Word asyncValue(unsigned Ticket) const;

  // --- Scheduler integration ------------------------------------------------

  /// Advances asynchronous machinery by one tick: drain opportunities for
  /// every non-empty store FIFO and completion opportunities for pending
  /// async loads. Quiescent ticks (nothing buffered, nothing in flight)
  /// only advance the clock, so they stay inline and draw nothing.
  void tick(uint64_t Now) {
    CurrentTick = Now;
    if (!SeqMode && (PendingAsyncCount != 0 || !ActiveQueues.empty()))
      tickWork(Now);
  }

  /// True while buffered stores or pending async loads exist.
  bool hasPendingWork() const {
    return !ActiveQueues.empty() || PendingAsyncCount != 0;
  }

  /// True when no buffered store, pending async load or block-visible
  /// overlay value exists, so every load returns the global word
  /// (hostRead). Conservative: a drained queue tick() has not yet pruned
  /// still counts as buffered.
  bool quiescent() const { return !hasPendingWork() && Overlay.empty(); }

  /// Synchronously drains everything owned by \p Tid (thread exit,
  /// barrier-free end of kernel for that thread).
  void drainThread(unsigned Tid);

  /// Drains every thread's buffers and completes all async loads (kernel
  /// boundaries synchronise in CUDA).
  void drainAll();

  // --- Host access (outside kernel execution) -------------------------------

  Word hostRead(Addr A) const;
  void hostWrite(Addr A, Word V);

  const MemStats &stats() const { return Stats; }
  const ChipProfile &chip() const {
    assert(Chip && "memory system not bound to a chip");
    return *Chip;
  }

  /// Effective write-side congestion pressure on \p Bank this tick
  /// (exposed for fence-latency modelling and tests).
  double effectiveWritePressure(uint64_t Now, unsigned Bank);

private:
  struct BufferedStore {
    Addr A;
    Word V;
    uint64_t StoreId;
    unsigned Block;
    bool BlockVisible;
  };

  /// One thread's FIFO of buffered stores for one bank: slot storage with
  /// a head cursor instead of a deque, so the backing allocation is
  /// reused across entries, runs and resets. When the queue empties the
  /// slots rewind to the front (StallUntil deliberately survives within a
  /// run: a later same-bank store still honours an armed stall, exactly as
  /// the deque-based engine behaved).
  struct BankQueue {
    std::vector<BufferedStore> Slots;
    size_t Head = 0;
    bool Active = false;     ///< Registered in ActiveQueues.
    bool Touched = false;    ///< Registered in TouchedQueues (reset list).
    uint64_t StallUntil = 0; ///< Baseline-reorder quirk stall.

    bool empty() const { return Head == Slots.size(); }
    size_t size() const { return Slots.size() - Head; }
    BufferedStore &front() { return Slots[Head]; }
    void push(const BufferedStore &E) { Slots.push_back(E); }
    void popFront() {
      ++Head;
      if (Head == Slots.size()) {
        Slots.clear();
        Head = 0;
      }
    }
    auto begin() { return Slots.begin() + static_cast<ptrdiff_t>(Head); }
    auto end() { return Slots.end(); }
  };

  struct ThreadBuffers {
    std::vector<BankQueue> Banks; ///< Grown to NumBanks on first use.
  };

  struct AsyncLoadSlot {
    unsigned Tid;
    Addr A;
    Word V = 0;
    bool Done = false;
  };

  struct OverlayValue {
    unsigned Block;
    Word V;
    uint64_t StoreId;
  };

  unsigned bankOf(Addr A) const { return Chip->bankOf(A); }

  /// Records that \p A has been written since the last reset, so reset()
  /// can zero exactly the touched words.
  void markDirty(Addr A) {
    if (!MemDirty[A]) {
      MemDirty[A] = 1;
      DirtyWords.push_back(A);
    }
  }

  /// Writes \p V to globally visible memory and invalidates block-visible
  /// overlay values for \p A. Per-location coherence: the write is dropped
  /// if a store with a newer id already reached this address (drains of
  /// two same-address stores can complete in either order, but the
  /// location's value history must respect the coherence order).
  void globalWrite(Addr A, Word V, uint64_t StoreId);

  /// Applies an atomic's result: unconditional (atomics serialise at the
  /// L2 by arrival), and the per-address coherence id is left untouched so
  /// that a plain store already in flight can still arrive afterwards and
  /// win — exactly the weak store-vs-atomic race real GPUs exhibit, and
  /// (unlike an id-ordered drop) always serialisable: the atomic
  /// observably read the pre-store value.
  void atomicWrite(Addr A, Word V);

  /// Makes one buffered store globally visible (with overlay bookkeeping).
  /// \p Tid is the owning thread (trace attribution).
  void applyStore(unsigned Tid, const BufferedStore &E);

  /// Applies every entry of \p Q to global memory, in order.
  void drainQueue(unsigned Tid, unsigned Bank, bool Forced);

  /// Drains \p Tid's queue for \p Bank if non-empty (same-bank coherence).
  void selfDrainBank(unsigned Tid, unsigned Bank);

  /// Completes any pending async loads of \p Tid on \p Bank (same-bank
  /// issue-order preservation).
  void completeThreadAsyncOnBank(unsigned Tid, unsigned Bank);

  void completeAsync(AsyncLoadSlot &Slot);

  /// Read as seen by (Tid, Block) ignoring the thread's own buffers.
  Word visibleRead(unsigned Block, Addr A) const;

  /// \ref visibleRead that also reports where the value came from
  /// (globally visible memory or a block-visible overlay value).
  Word visibleReadSrc(unsigned Block, Addr A, LoadSource &Src) const;

  /// Reports \p E to the installed sink, stamped with the current tick.
  /// Call sites guard with `if (Sink)` so the off path pays exactly one
  /// pointer test.
  void emit(TraceEvent E) {
    E.Tick = CurrentTick;
    Sink->event(E);
  }

  /// The non-quiescent body of \ref tick.
  void tickWork(uint64_t Now);

  double drainProb(uint64_t Now, unsigned Bank);
  double asyncProb(uint64_t Now, unsigned Bank);
  const BankPressure &pressure(uint64_t Now, unsigned Bank);

  const ChipProfile *Chip = nullptr; ///< Rebound by reset().
  Rng &R;
  const CongestionSource *Stress = nullptr;
  TraceSink *Sink = nullptr; ///< Null = tracing off (the common case).
  bool SeqMode = false;

  std::vector<Word> Mem;
  std::vector<uint64_t> MemWriteId; ///< Coherence order per address.
  std::vector<uint8_t> MemDirty;    ///< Written since the last reset.
  std::vector<Addr> DirtyWords;     ///< Addresses to zero on reset.
  unsigned NextFree = 0;

  std::vector<ThreadBuffers> Buffers;
  std::vector<std::pair<unsigned, unsigned>> ActiveQueues; ///< (tid, bank)
  /// Every queue touched since the last reset — a superset of
  /// ActiveQueues (which tick() prunes lazily) used for O(touched) reset.
  std::vector<std::pair<unsigned, unsigned>> TouchedQueues;
  std::vector<unsigned> DrainTids; ///< drainAll scratch (O(touched)).

  std::vector<AsyncLoadSlot> AsyncSlots;
  unsigned PendingAsyncCount = 0;

  /// Block-visible values not yet globally drained, keyed by address.
  std::unordered_multimap<Addr, OverlayValue> Overlay;

  uint64_t NextStoreId = 1;
  uint64_t CurrentTick = 0;

  // Per-tick pressure cache.
  std::vector<BankPressure> PressureCache;
  std::vector<uint64_t> PressureCacheTick;

  /// Drain/async probabilities with no congestion source attached: zero
  /// pressure makes both pure chip constants, precomputed at reset so the
  /// unstressed hot path skips the floating-point pipeline entirely.
  double CalmDrainProb = 0.0;
  double CalmAsyncProb = 0.0;

  MemStats Stats;
};

} // namespace sim
} // namespace gpuwmm

#endif // GPUWMM_SIM_MEMORYSYSTEM_H
