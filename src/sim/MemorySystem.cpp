//===- sim/MemorySystem.cpp - Weak GPU memory model -------------------------===//

#include "sim/MemorySystem.h"

#include "support/Check.h"

#include <algorithm>
#include <cassert>

using namespace gpuwmm;
using namespace gpuwmm::sim;

void MemorySystem::reset(const ChipProfile &NewChip) {
  Chip = &NewChip;

  // Zero exactly the words the previous run wrote (O(touched), not
  // O(image)): the memory image itself keeps its size and capacity.
  for (Addr A : DirtyWords) {
    Mem[A] = 0;
    MemWriteId[A] = 0;
    MemDirty[A] = 0;
  }
  DirtyWords.clear();
  NextFree = 0;

  // Rewind every store-buffer queue the previous run touched.
  // TouchedQueues is a superset of ActiveQueues (tick() prunes the latter
  // lazily), so this also clears armed StallUntil values on queues that
  // already drained.
  for (const auto &[Tid, Bank] : TouchedQueues) {
    BankQueue &Q = Buffers[Tid].Banks[Bank];
    Q.Slots.clear();
    Q.Head = 0;
    Q.Active = false;
    Q.Touched = false;
    Q.StallUntil = 0;
  }
  // The drain and active lists are sized by the queues the last run
  // touched, not by what was pending or active at a time, so neither
  // grows again once a program has run once.
  DrainTids.reserve(TouchedQueues.size() + AsyncSlots.size());
  ActiveQueues.reserve(TouchedQueues.size());
  TouchedQueues.clear();
  ActiveQueues.clear();

  AsyncSlots.clear();
  PendingAsyncCount = 0;
  Overlay.clear();

  NextStoreId = 1;
  CurrentTick = 0;
  Stats = MemStats();
  SeqMode = false;
  Stress = nullptr;
  Sink = nullptr;

  PressureCache.resize(Chip->NumBanks);
  PressureCacheTick.assign(Chip->NumBanks, ~0ULL);

  // With no congestion source, pressure is identically zero and the
  // drain/async probabilities collapse to these chip constants (the same
  // values the full formulas produce at zero pressure).
  CalmDrainProb = std::max(Chip->DrainFloor, Chip->DrainBase);
  CalmAsyncProb = std::max(Chip->AsyncFloor, Chip->AsyncBase);
}

void MemorySystem::registerThreads(unsigned NumThreads) {
  // Grow-only: threads beyond a smaller relaunch keep their (empty)
  // buffers, so their bank-queue capacity survives for later runs.
  if (Buffers.size() < NumThreads)
    Buffers.resize(NumThreads);
}

Addr MemorySystem::alloc(unsigned Words) {
  assert(Words > 0 && "cannot allocate zero words");
  // Align to the patch size, as real allocators align to large boundaries;
  // this makes bank mappings stable across runs (cf. Fig. 3's per-location
  // structure).
  const unsigned P = Chip->PatchSizeWords;
  NextFree = (NextFree + P - 1) / P * P;
  const Addr Base = NextFree;
  NextFree += Words;
  if (Mem.size() < NextFree) {
    Mem.resize(NextFree, 0);
    MemWriteId.resize(NextFree, 0);
    MemDirty.resize(NextFree, 0);
  }
  return Base;
}

//===----------------------------------------------------------------------===//
// Visibility helpers
//===----------------------------------------------------------------------===//

Word MemorySystem::visibleRead(unsigned Block, Addr A) const {
  GPUWMM_CHECK(A < Mem.size(), "address out of bounds");
  if (!Overlay.empty()) {
    auto Range = Overlay.equal_range(A);
    for (auto It = Range.first; It != Range.second; ++It)
      if (It->second.Block == Block)
        return It->second.V;
  }
  return Mem[A];
}

Word MemorySystem::visibleReadSrc(unsigned Block, Addr A,
                                  LoadSource &Src) const {
  GPUWMM_CHECK(A < Mem.size(), "address out of bounds");
  if (!Overlay.empty()) {
    auto Range = Overlay.equal_range(A);
    for (auto It = Range.first; It != Range.second; ++It)
      if (It->second.Block == Block) {
        Src = LoadSource::Overlay;
        return It->second.V;
      }
  }
  Src = LoadSource::Memory;
  return Mem[A];
}

void MemorySystem::atomicWrite(Addr A, Word V) {
  GPUWMM_CHECK(A < Mem.size(), "address out of bounds");
  markDirty(A);
  Mem[A] = V;
  if (!Overlay.empty())
    Overlay.erase(A);
}

void MemorySystem::globalWrite(Addr A, Word V, uint64_t StoreId) {
  GPUWMM_CHECK(A < Mem.size(), "address out of bounds");
  // Per-location coherence: never step backwards in the store order.
  if (StoreId < MemWriteId[A])
    return;
  markDirty(A);
  Mem[A] = V;
  MemWriteId[A] = StoreId;
  if (!Overlay.empty())
    Overlay.erase(A);
}

//===----------------------------------------------------------------------===//
// Stores and loads
//===----------------------------------------------------------------------===//

void MemorySystem::store(unsigned Tid, unsigned Block, Addr A, Word V) {
  ++Stats.Stores;
  if (SeqMode) {
    const uint64_t Id = NextStoreId++;
    globalWrite(A, V, Id);
    if (Sink) {
      // Sequential mode: the store is issued and globally visible in one
      // step, so both events carry the same tick.
      emit({TraceEventKind::StoreIssue, LoadSource::Memory, false, Tid,
            Block, bankOf(A), A, V, Id, 0});
      emit({TraceEventKind::StoreDrain, LoadSource::Memory, true, Tid,
            Block, bankOf(A), A, V, Id, 0});
    }
    return;
  }
  const unsigned Bank = bankOf(A);
  // Same-bank issue order: a pending async load on this bank must complete
  // (bind its value) before a later store can drain past it.
  completeThreadAsyncOnBank(Tid, Bank);

  assert(Tid < Buffers.size() && "thread not registered");
  ThreadBuffers &TB = Buffers[Tid];
  if (TB.Banks.size() < Chip->NumBanks)
    TB.Banks.resize(Chip->NumBanks);
  BankQueue &Q = TB.Banks[Bank];
  Q.push({A, V, NextStoreId++, Block, false});
  if (Sink)
    emit({TraceEventKind::StoreIssue, LoadSource::Memory, false, Tid, Block,
          Bank, A, V, Q.Slots.back().StoreId, 0});
  if (!Q.Touched) {
    Q.Touched = true;
    TouchedQueues.emplace_back(Tid, Bank);
  }
  if (!Q.Active) {
    Q.Active = true;
    ActiveQueues.emplace_back(Tid, Bank);
  }
}

Word MemorySystem::load(unsigned Tid, unsigned Block, Addr A) {
  ++Stats.Loads;
  LoadSource Src = LoadSource::Memory;
  Word V = 0;
  if (SeqMode) {
    V = visibleReadSrc(Block, A, Src);
  } else {
    const unsigned Bank = bankOf(A);
    assert(Tid < Buffers.size() && "thread not registered");
    ThreadBuffers &TB = Buffers[Tid];
    bool Bound = false;
    if (Bank < TB.Banks.size()) {
      BankQueue &Q = TB.Banks[Bank];
      if (!Q.empty()) {
        // Forward from the newest buffered store to this exact address —
        // unless a store ordered after ours (a block-visible store
        // published at a barrier, or a write that already reached global
        // memory) supersedes it. Per-location coherence forbids reading
        // backwards.
        for (size_t I = Q.Slots.size(); I != Q.Head && !Bound; --I) {
          const BufferedStore &E = Q.Slots[I - 1];
          if (E.A != A)
            continue;
          Bound = true;
          Src = LoadSource::Forward;
          V = E.V;
          if (!Overlay.empty()) {
            auto Range = Overlay.equal_range(A);
            for (auto OIt = Range.first; OIt != Range.second; ++OIt)
              if (OIt->second.Block == Block &&
                  OIt->second.StoreId > E.StoreId) {
                Src = LoadSource::OverlaySuperseded;
                V = OIt->second.V;
              }
          }
          if (Src == LoadSource::Forward && MemWriteId[A] > E.StoreId) {
            Src = LoadSource::MemorySuperseded;
            V = Mem[A];
          }
        }
        // Same-bank, different address: self-coherence forces a drain.
        if (!Bound)
          selfDrainBank(Tid, Bank);
      }
    }
    if (!Bound)
      V = visibleReadSrc(Block, A, Src);
  }
  if (Sink)
    emit({TraceEventKind::LoadBind, Src, false, Tid, Block, bankOf(A), A, V,
          0, 0});
  return V;
}

void MemorySystem::selfDrainBank(unsigned Tid, unsigned Bank) {
  ThreadBuffers &TB = Buffers[Tid];
  if (Bank >= TB.Banks.size())
    return;
  BankQueue &Q = TB.Banks[Bank];
  if (Q.empty())
    return;
  ++Stats.ForcedSelfDrains;
  drainQueue(Tid, Bank, /*Forced=*/true);
}

void MemorySystem::applyStore(unsigned Tid, const BufferedStore &E) {
  // Whether the write survives per-location coherence (both branches below
  // apply it under exactly this condition).
  const bool Applied = E.StoreId >= MemWriteId[E.A];
  if (Sink)
    emit({TraceEventKind::StoreDrain, LoadSource::Memory, Applied, Tid,
          E.Block, bankOf(E.A), E.A, E.V, E.StoreId, 0});
  if (E.BlockVisible && !Overlay.empty()) {
    // Remove only the overlay value this entry created; a newer
    // block-visible value for the same address must survive, and other
    // blocks' overlay values are unrelated.
    auto Range = Overlay.equal_range(E.A);
    for (auto It = Range.first; It != Range.second; ++It) {
      if (It->second.StoreId == E.StoreId) {
        Overlay.erase(It);
        break;
      }
    }
    if (E.StoreId >= MemWriteId[E.A]) {
      markDirty(E.A);
      Mem[E.A] = E.V;
      MemWriteId[E.A] = E.StoreId;
    }
  } else {
    globalWrite(E.A, E.V, E.StoreId);
  }
  ++Stats.DrainedStores;
}

void MemorySystem::drainQueue(unsigned Tid, unsigned Bank, bool Forced) {
  (void)Forced;
  BankQueue &Q = Buffers[Tid].Banks[Bank];
  while (!Q.empty()) {
    applyStore(Tid, Q.front());
    Q.popFront();
  }
  // Deactivation from ActiveQueues happens lazily in tick().
}

//===----------------------------------------------------------------------===//
// Atomics
//===----------------------------------------------------------------------===//

Word MemorySystem::atomicCAS(unsigned Tid, Addr A, Word Compare, Word Value) {
  ++Stats.Atomics;
  if (!SeqMode) {
    const unsigned Bank = bankOf(A);
    completeThreadAsyncOnBank(Tid, Bank);
    selfDrainBank(Tid, Bank);
  }
  const Word Old = Mem[A];
  if (Old == Compare)
    atomicWrite(A, Value);
  if (Sink)
    emit({TraceEventKind::Atomic, LoadSource::Memory, Old == Compare, Tid,
          0, bankOf(A), A, Old == Compare ? Value : Old, Old, 0});
  return Old;
}

Word MemorySystem::atomicExch(unsigned Tid, Addr A, Word Value) {
  ++Stats.Atomics;
  if (!SeqMode) {
    const unsigned Bank = bankOf(A);
    completeThreadAsyncOnBank(Tid, Bank);
    selfDrainBank(Tid, Bank);
  }
  const Word Old = Mem[A];
  atomicWrite(A, Value);
  if (Sink)
    emit({TraceEventKind::Atomic, LoadSource::Memory, true, Tid, 0,
          bankOf(A), A, Value, Old, 0});
  return Old;
}

Word MemorySystem::atomicAdd(unsigned Tid, Addr A, Word Value) {
  ++Stats.Atomics;
  if (!SeqMode) {
    const unsigned Bank = bankOf(A);
    completeThreadAsyncOnBank(Tid, Bank);
    selfDrainBank(Tid, Bank);
  }
  const Word Old = Mem[A];
  atomicWrite(A, Old + Value);
  if (Sink)
    emit({TraceEventKind::Atomic, LoadSource::Memory, true, Tid, 0,
          bankOf(A), A, Old + Value, Old, 0});
  return Old;
}

//===----------------------------------------------------------------------===//
// Fences
//===----------------------------------------------------------------------===//

unsigned MemorySystem::fenceDevice(unsigned Tid) {
  ++Stats.DeviceFences;
  if (SeqMode) {
    if (Sink)
      emit({TraceEventKind::FenceDevice, LoadSource::Memory, false, Tid, 0,
            0, 0, 0, 0, 0});
    return 1;
  }

  unsigned Latency = Chip->FenceBaseLatency;
  // Complete this thread's pending async loads: a fence orders loads too.
  for (AsyncLoadSlot &Slot : AsyncSlots)
    if (!Slot.Done && Slot.Tid == Tid)
      completeAsync(Slot);

  if (Tid < Buffers.size()) {
    // Entries only ever live in banks < Banks.size(), so iterating the
    // thread's grown-to-chip bank array covers every buffered store.
    std::vector<BankQueue> &Banks = Buffers[Tid].Banks;
    for (unsigned Bank = 0; Bank != Banks.size(); ++Bank) {
      BankQueue &Q = Banks[Bank];
      if (Q.empty())
        continue;
      Latency += static_cast<unsigned>(Q.size());
      // Writing back through a congested bank stalls the fence further.
      Latency += static_cast<unsigned>(
          effectiveWritePressure(CurrentTick, Bank));
      drainQueue(Tid, Bank, /*Forced=*/true);
    }
  }
  // Emitted after the drains and completions above, so "no event of this
  // thread issued before the fence is still pending at the fence" is
  // checkable from trace order alone.
  if (Sink)
    emit({TraceEventKind::FenceDevice, LoadSource::Memory, false, Tid, 0, 0,
          0, 0, 0, 0});
  return Latency;
}

unsigned MemorySystem::fenceBlock(unsigned Tid, unsigned Block) {
  ++Stats.BlockFences;
  if (SeqMode) {
    if (Sink)
      emit({TraceEventKind::FenceBlock, LoadSource::Memory, false, Tid,
            Block, 0, 0, 0, 0, 0});
    return 1;
  }

  // Complete pending async loads (fence orders loads at block scope too;
  // completion binds against global memory either way).
  for (AsyncLoadSlot &Slot : AsyncSlots)
    if (!Slot.Done && Slot.Tid == Tid)
      completeAsync(Slot);

  if (Tid >= Buffers.size() || Buffers[Tid].Banks.empty()) {
    if (Sink)
      emit({TraceEventKind::FenceBlock, LoadSource::Memory, false, Tid,
            Block, 0, 0, 0, 0, 0});
    return 2;
  }
  for (BankQueue &Q : Buffers[Tid].Banks) {
    for (BufferedStore &E : Q) {
      if (E.BlockVisible)
        continue;
      E.BlockVisible = true;
      if (Sink)
        emit({TraceEventKind::StorePromote, LoadSource::Memory, false, Tid,
              Block, bankOf(E.A), E.A, E.V, E.StoreId, 0});
      assert(E.Block == Block && "store buffered under a different block");
      // Publish (or refresh) the block-visible value for this address.
      auto Range = Overlay.equal_range(E.A);
      bool Updated = false;
      for (auto It = Range.first; It != Range.second; ++It) {
        if (It->second.Block == Block) {
          if (It->second.StoreId < E.StoreId) {
            It->second.V = E.V;
            It->second.StoreId = E.StoreId;
          }
          Updated = true;
          break;
        }
      }
      if (!Updated)
        Overlay.emplace(E.A, OverlayValue{Block, E.V, E.StoreId});
    }
  }
  if (Sink)
    emit({TraceEventKind::FenceBlock, LoadSource::Memory, false, Tid, Block,
          0, 0, 0, 0, 0});
  return 2;
}

//===----------------------------------------------------------------------===//
// Async loads
//===----------------------------------------------------------------------===//

unsigned MemorySystem::issueAsyncLoad(unsigned Tid, Addr A) {
  ++Stats.AsyncLoads;
  AsyncLoadSlot Slot;
  Slot.Tid = Tid;
  Slot.A = A;
  if (SeqMode) {
    Slot.V = visibleRead(/*Block=*/0, A);
    Slot.Done = true;
  } else {
    ++PendingAsyncCount;
  }
  AsyncSlots.push_back(Slot);
  const unsigned Ticket = static_cast<unsigned>(AsyncSlots.size() - 1);
  if (Sink) {
    emit({TraceEventKind::AsyncIssue, LoadSource::Memory, false, Tid, 0,
          bankOf(A), A, 0, Ticket, 0});
    if (SeqMode)
      emit({TraceEventKind::AsyncBind, LoadSource::Memory, false, Tid, 0,
            bankOf(A), A, Slot.V, Ticket, 0});
  }
  return Ticket;
}

bool MemorySystem::asyncDone(unsigned Ticket) const {
  assert(Ticket < AsyncSlots.size() && "bad async ticket");
  return AsyncSlots[Ticket].Done;
}

Word MemorySystem::asyncValue(unsigned Ticket) const {
  assert(Ticket < AsyncSlots.size() && "bad async ticket");
  assert(AsyncSlots[Ticket].Done && "async load not complete");
  return AsyncSlots[Ticket].V;
}

void MemorySystem::completeAsync(AsyncLoadSlot &Slot) {
  assert(!Slot.Done && "async load already complete");
  // Async loads read globally visible state; they are used by the litmus
  // harness where threads are in distinct blocks, so block overlays do not
  // apply (asserted by the no-self-store rule in issueAsyncLoad's contract).
  Slot.V = Mem[Slot.A];
  Slot.Done = true;
  assert(PendingAsyncCount > 0);
  --PendingAsyncCount;
  if (Sink)
    emit({TraceEventKind::AsyncBind, LoadSource::Memory, false, Slot.Tid, 0,
          bankOf(Slot.A), Slot.A, Slot.V,
          static_cast<uint64_t>(&Slot - AsyncSlots.data()), 0});
}

void MemorySystem::completeThreadAsyncOnBank(unsigned Tid, unsigned Bank) {
  if (PendingAsyncCount == 0)
    return;
  for (AsyncLoadSlot &Slot : AsyncSlots)
    if (!Slot.Done && Slot.Tid == Tid && bankOf(Slot.A) == Bank)
      completeAsync(Slot);
}

//===----------------------------------------------------------------------===//
// Tick processing
//===----------------------------------------------------------------------===//

const BankPressure &MemorySystem::pressure(uint64_t Now, unsigned Bank) {
  if (PressureCacheTick[Bank] != Now) {
    PressureCacheTick[Bank] = Now;
    PressureCache[Bank] =
        Stress ? Stress->pressureAt(Now, Bank) : BankPressure{};
  }
  return PressureCache[Bank];
}

double MemorySystem::effectiveWritePressure(uint64_t Now, unsigned Bank) {
  const BankPressure &P = pressure(Now, Bank);
  const double Raw = Chip->Sensitivity * (P.Write + 0.75 * P.Read);
  return std::clamp(Raw - Chip->PressureThresh, 0.0, Chip->PressureCap);
}

double MemorySystem::drainProb(uint64_t Now, unsigned Bank) {
  if (!Stress)
    return CalmDrainProb; // Zero pressure: a chip constant (same value).
  const double Eff = effectiveWritePressure(Now, Bank);
  return std::max(Chip->DrainFloor,
                  Chip->DrainBase / (1.0 + Chip->DrainCongestK * Eff));
}

double MemorySystem::asyncProb(uint64_t Now, unsigned Bank) {
  if (!Stress)
    return CalmAsyncProb; // Zero pressure: a chip constant (same value).
  const BankPressure &P = pressure(Now, Bank);
  const double Raw = Chip->Sensitivity * (P.Read + 0.50 * P.Write);
  const double Eff = std::clamp(Raw - Chip->PressureThresh, 0.0,
                                Chip->PressureCap);
  return std::max(Chip->AsyncFloor,
                  Chip->AsyncBase / (1.0 + Chip->AsyncCongestK * Eff));
}

void MemorySystem::tickWork(uint64_t Now) {
  // Async-load completion opportunities.
  if (PendingAsyncCount != 0) {
    for (AsyncLoadSlot &Slot : AsyncSlots) {
      if (Slot.Done)
        continue;
      if (R.chance(asyncProb(Now, bankOf(Slot.A))))
        completeAsync(Slot);
    }
  }

  // Store-drain opportunities: one entry per active queue per tick.
  for (size_t I = 0; I != ActiveQueues.size();) {
    const auto [Tid, Bank] = ActiveQueues[I];
    BankQueue &Q = Buffers[Tid].Banks[Bank];
    if (Q.empty()) {
      Q.Active = false;
      ActiveQueues[I] = ActiveQueues.back();
      ActiveQueues.pop_back();
      continue;
    }
    if (Q.StallUntil <= Now) {
      // Maxwell quirk: occasional long stalls independent of stress.
      if (Chip->BaselineReorder > 0.0 && R.chance(Chip->BaselineReorder)) {
        // Short stalls: enough to widen litmus windows (Fig. 3c's 980
        // noise) without breaking application hand-offs natively.
        Q.StallUntil = Now + 2 + R.below(3);
      } else if (R.chance(drainProb(Now, Bank))) {
        applyStore(Tid, Q.front());
        Q.popFront();
        if (Q.empty()) {
          Q.Active = false;
          ActiveQueues[I] = ActiveQueues.back();
          ActiveQueues.pop_back();
          continue;
        }
      }
    }
    ++I;
  }
}

void MemorySystem::drainThread(unsigned Tid) {
  if (Tid >= Buffers.size() || Buffers[Tid].Banks.empty())
    return;
  for (unsigned Bank = 0; Bank != Buffers[Tid].Banks.size(); ++Bank)
    if (!Buffers[Tid].Banks[Bank].empty())
      drainQueue(Tid, Bank, /*Forced=*/true);
  for (AsyncLoadSlot &Slot : AsyncSlots)
    if (!Slot.Done && Slot.Tid == Tid)
      completeAsync(Slot);
}

void MemorySystem::drainAll() {
  // Only a thread that buffered a store or has an in-flight async load
  // can need draining; visiting exactly those threads in ascending thread
  // order performs the same drains, in the same order, as a scan over
  // every registered thread (drainThread interleaves a thread's queue
  // drains with its async completions, so the per-thread visit order is
  // the whole order).
  DrainTids.clear();
  for (const auto &[Tid, Bank] : TouchedQueues)
    if (!Buffers[Tid].Banks[Bank].empty())
      DrainTids.push_back(Tid);
  if (PendingAsyncCount != 0)
    for (const AsyncLoadSlot &Slot : AsyncSlots)
      if (!Slot.Done)
        DrainTids.push_back(Slot.Tid);
  std::sort(DrainTids.begin(), DrainTids.end());
  DrainTids.erase(std::unique(DrainTids.begin(), DrainTids.end()),
                  DrainTids.end());
  for (const unsigned Tid : DrainTids)
    drainThread(Tid);
  ActiveQueues.clear();
  // Only touched queues can be Active (store sets both flags together).
  for (const auto &[Tid, Bank] : TouchedQueues)
    Buffers[Tid].Banks[Bank].Active = false;
  assert(Overlay.empty() && "overlay must be empty after a full drain");
}

Word MemorySystem::hostRead(Addr A) const {
  GPUWMM_CHECK(A < Mem.size(), "address out of bounds");
  return Mem[A];
}

void MemorySystem::hostWrite(Addr A, Word V) {
  GPUWMM_CHECK(A < Mem.size(), "address out of bounds");
  markDirty(A);
  Mem[A] = V;
  MemWriteId[A] = NextStoreId++;
  if (Sink)
    emit({TraceEventKind::HostWrite, LoadSource::Memory, false, 0, 0,
          bankOf(A), A, V, MemWriteId[A], 0});
}
