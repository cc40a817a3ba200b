//===- model/Replay.h - The memory model's replay axioms --------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one forward replay of a run's event trace against the memory
/// model's axioms (DESIGN.md Sec. 14). Both consistency checkers run it:
/// the post-hoc checker (model/ConsistencyChecker.h) over a recorded
/// trace, the streaming checker (model/StreamingChecker.h) event by event.
/// They differ only in the causality back end the replay feeds.
///
/// The replay owns the axiom state: each thread's buffered stores and
/// pending split-phase loads, the block overlay and the promoted store
/// ids, and per address the visible value, its writer and the newest plain
/// store id. Threads are numbered by dense *lanes* in first-seen order
/// (\ref LaneIds), so the per-thread state every store, atomic and
/// program-order point touches is a vector indexed by lane, not a hash
/// keyed by thread id. It checks
///
///  * coherence-per-location (applied same-address plain writes never step
///    backwards in store order),
///  * same-bank FIFO (a thread's drains on one bank follow its issue
///    order),
///  * fence-drain (nothing of a thread is pending when its device fence
///    completes, nor when the run ends),
///  * self-coherence/forwarding (a load's bound value and declared source
///    are exactly what the visibility rules allow),
///  * same-bank issue order (no pending split-phase load on a bank when a
///    store or atomic issues there),
///  * read-value validity (every bound value equals its reconstructed
///    writer's value),
///
/// and latches the first violation: its message, the two events that
/// contradict each other, and copies of both (explanations render without
/// the trace). Provenance — which write a read read — is reconstructed
/// from trace order and the load's declared source alone, never from the
/// simulator.
///
/// A back end is any type with a per-address state type `Loc` and these
/// members, which the replay calls per event in this order (a template
/// parameter, so the streaming path makes no virtual call per event):
///
///   node(I, E, Lane)            event I joins the causality graph
///                               (stores, loads, split-phase issues,
///                               atomics, host writes); Lane is its
///                               thread's lane (\ref NoLane for a host
///                               write);
///   buffered(I, L)              store I waits in its thread's buffer;
///   asyncIssued(I)              split-phase load I awaits its bind;
///   coAppend(L, W, Plain, Id, OldVisible)
///                               applied write W ends the address's
///                               coherence order and is now its visible
///                               writer (OldVisible was);
///   coInsertDropped(L, W, Id)   coherence-dropped store W, id Id, takes
///                               its place in the coherence order;
///   read(R, L, W, Buffered)     the read whose program-order point is R
///                               read from write W (\ref NoWriter: the
///                               initial state); Buffered: W is still in
///                               its thread's buffer or the overlay;
///   po(Lane, I)                 I is lane Lane's next program-order point;
///   drained(L, W, Visible)      the drain of store W ended;
///   asyncBound(I)               split-phase load I bound;
///   written(L, Visible)         an atomic or host write ended.
///
/// L is the back end's Loc for the event's address; Visible is that
/// address's visible writer after the event. Lanes are below the number
/// of threads the run has named so far, so a back end may keep its own
/// per-thread state in vectors too.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_MODEL_REPLAY_H
#define GPUWMM_MODEL_REPLAY_H

#include "sim/TraceSink.h"

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace gpuwmm {
namespace model {

/// The writer of a value no write produced: the initial state.
inline constexpr uint64_t NoWriter = static_cast<uint64_t>(-1);

/// No lane: a host write, which no thread issues.
inline constexpr uint32_t NoLane = static_cast<uint32_t>(-1);

/// Thread ids -> dense lanes, numbered in first-seen order. Engine thread
/// ids are small, so a direct table answers them; a larger id (only a
/// hand-built trace carries one) is looked up in a hash map instead, so
/// no id sizes memory.
class LaneIds {
public:
  uint32_t laneOf(unsigned Tid) {
    if (Tid < Direct.size() && Direct[Tid] != NoLane)
      return Direct[Tid];
    return assign(Tid);
  }
  /// Lanes handed out since clear().
  uint32_t size() const { return static_cast<uint32_t>(Tids.size()); }
  /// Forgets every lane; the direct table keeps its size.
  void clear() {
    for (const unsigned Tid : Tids)
      if (Tid < Direct.size())
        Direct[Tid] = NoLane;
    Tids.clear();
    Far.clear();
  }

private:
  /// Ids from here on go to Far: the direct table stays under 256 KiB.
  static constexpr unsigned DirectBelow = 1u << 16;

  uint32_t assign(unsigned Tid) {
    const uint32_t Lane = size();
    if (Tid >= DirectBelow) {
      const auto [It, New] = Far.try_emplace(Tid, Lane);
      if (!New)
        return It->second;
    } else {
      if (Tid >= Direct.size())
        Direct.resize(Tid + 1, NoLane);
      Direct[Tid] = Lane;
    }
    Tids.push_back(Tid);
    return Lane;
  }

  std::vector<uint32_t> Direct; ///< Tid -> lane (NoLane: not seen).
  std::unordered_map<unsigned, uint32_t> Far;
  std::vector<unsigned> Tids; ///< Lane -> Tid.
};

/// The first violated replay axiom of a run.
struct ReplayViolation {
  const char *Msg = nullptr; ///< Null while every axiom holds.
  /// The two events that contradict each other (global trace indices),
  /// and copies of them.
  size_t A = static_cast<size_t>(-1);
  size_t B = static_cast<size_t>(-1);
  sim::TraceEvent EvA, EvB;
};

/// The replay axioms over one run, feeding causality back end
/// \p Backend. Reusable: \ref clear keeps per-thread storage and hash
/// buckets.
template <class Backend> class Replay {
public:
  /// Starts a fresh run.
  void clear() {
    for (uint32_t L = 0; L != Lanes.size(); ++L)
      Threads[L].clear();
    Lanes.clear();
    AsyncIssueAt.clear();
    Overlay.clear();
    PromotedIds.clear();
    Addrs.clear();
    V = ReplayViolation();
    LastI = 0;
    LastEv = sim::TraceEvent();
  }

  /// Every axiom held so far.
  bool ok() const { return V.Msg == nullptr; }
  const ReplayViolation &violation() const { return V; }

  /// Replays event \p I; a no-op once an axiom is violated.
  void event(const sim::TraceEvent &E, uint64_t I, Backend &B);

  /// The end-of-run axioms: the kernel boundary drained everything.
  void finish() {
    if (!ok())
      return;
    for (uint32_t L = 0; L != Lanes.size(); ++L)
      if (!Threads[L].Stores.empty())
        violate("fence-drain: stores were still buffered at the end of the "
                "run (the kernel boundary must drain them)",
                LastI, LastEv, LastI, LastEv);
    for (uint32_t L = 0; L != Lanes.size(); ++L)
      if (Threads[L].Async != 0)
        violate("fence-drain: split-phase loads were still pending at the "
                "end of the run",
                LastI, LastEv, LastI, LastEv);
  }

private:
  /// One thread's un-drained buffered store.
  struct PendingStore {
    uint64_t Node;      ///< Its StoreIssue event...
    sim::TraceEvent Ev; ///< ...and a copy of it (bank, address, value, id).
  };
  /// One thread's pending work, indexed by its lane.
  struct ThreadState {
    /// Buffered stores on every bank, in issue order: a bank's FIFO is the
    /// subsequence on that bank. A thread buffers a handful at a time.
    std::vector<PendingStore> Stores;
    unsigned Async = 0; ///< Pending split-phase loads.
    /// (bank, pending split-phase loads on it) for each bank used.
    std::vector<std::pair<unsigned, unsigned>> AsyncOnBank;

    /// Empties the state, keeping capacity.
    void clear() {
      Stores.clear();
      Async = 0;
      AsyncOnBank.clear();
    }
    /// Pending split-phase loads on \p Bank.
    unsigned &asyncOn(unsigned Bank) {
      for (auto &[B, N] : AsyncOnBank)
        if (B == Bank)
          return N;
      return AsyncOnBank.emplace_back(Bank, 0).second;
    }
    /// The oldest store still buffered on \p Bank.
    const PendingStore *oldestOn(unsigned Bank) const {
      for (const PendingStore &P : Stores)
        if (P.Ev.Bank == Bank)
          return &P;
      return nullptr;
    }
    /// The newest store to \p A still buffered on \p Bank.
    const PendingStore *newestTo(unsigned Bank, sim::Addr A) const {
      for (auto It = Stores.rbegin(); It != Stores.rend(); ++It)
        if (It->Ev.Bank == Bank && It->Ev.A == A)
          return &*It;
      return nullptr;
    }
  };
  /// One live block-visible value.
  struct OverlayEnt {
    unsigned Block;
    uint64_t Id;
    uint64_t Node; ///< Its store's StoreIssue event.
    sim::Word V;
    sim::TraceEvent Ev;
  };
  /// A pending split-phase load: its issue event.
  struct AsyncIssueEnt {
    uint64_t Node;
    sim::TraceEvent Ev;
  };
  struct AddrState {
    sim::Word Val = 0;           ///< Globally visible value.
    uint64_t PlainMax = 0;       ///< MemWriteId mirror.
    uint64_t Visible = NoWriter; ///< Writer of Val.
    sim::TraceEvent VisibleEv;   ///< Copy of that writer's event.
    typename Backend::Loc Back;  ///< The back end's state for the address.
  };

  /// \p Tid's lane, assigned on first sight; Threads covers it.
  uint32_t lane(unsigned Tid) {
    const uint32_t L = Lanes.laneOf(Tid);
    if (L == Threads.size())
      Threads.emplace_back();
    return L;
  }

  void violate(const char *Msg, uint64_t A, const sim::TraceEvent &EvA,
               uint64_t B, const sim::TraceEvent &EvB) {
    if (!ok())
      return;
    V.Msg = Msg;
    V.A = static_cast<size_t>(A);
    V.B = static_cast<size_t>(B);
    V.EvA = EvA;
    V.EvB = EvB;
  }

  /// A read-value violation names the visible writer, or the read itself
  /// when the initial state is visible.
  void violateValue(const char *Msg, const AddrState &AS, uint64_t I,
                    const sim::TraceEvent &E) {
    if (AS.Visible == NoWriter)
      violate(Msg, I, E, I, E);
    else
      violate(Msg, AS.Visible, AS.VisibleEv, I, E);
  }

  OverlayEnt *overlayFor(unsigned Block, sim::Addr A) {
    const auto It = Overlay.find(A);
    if (It == Overlay.end())
      return nullptr;
    for (OverlayEnt &O : It->second)
      if (O.Block == Block)
        return &O;
    return nullptr;
  }

  void storeDrain(const sim::TraceEvent &E, uint64_t I, Backend &B);
  void loadBind(const sim::TraceEvent &E, uint64_t I, Backend &B);

  LaneIds Lanes;
  /// By lane; entries past Lanes.size() are reset and kept for capacity.
  std::vector<ThreadState> Threads;
  std::unordered_map<uint64_t, AsyncIssueEnt> AsyncIssueAt; ///< By ticket.
  std::unordered_map<sim::Addr, std::vector<OverlayEnt>> Overlay;
  std::unordered_set<uint64_t> PromotedIds;
  std::unordered_map<sim::Addr, AddrState> Addrs;
  ReplayViolation V;
  uint64_t LastI = 0; ///< The latest event (end-of-run anchor).
  sim::TraceEvent LastEv;
};

template <class Backend>
void Replay<Backend>::event(const sim::TraceEvent &E, uint64_t I,
                            Backend &B) {
  using sim::TraceEventKind;
  if (!ok())
    return;
  LastI = I;
  LastEv = E;
  switch (E.Kind) {
  case TraceEventKind::StoreIssue: {
    const uint32_t L = lane(E.Tid);
    ThreadState &T = Threads[L];
    if (T.asyncOn(E.Bank) != 0)
      violate("same-bank issue order: store issued while a split-phase "
              "load is pending on its bank",
              I, E, I, E);
    T.Stores.push_back({I, E});
    B.node(I, E, L);
    B.buffered(I, Addrs[E.A].Back);
    B.po(L, I);
    break;
  }
  case TraceEventKind::StoreDrain:
    storeDrain(E, I, B);
    break;
  case TraceEventKind::LoadBind:
    loadBind(E, I, B);
    break;
  case TraceEventKind::AsyncIssue: {
    const uint32_t L = lane(E.Tid);
    ThreadState &T = Threads[L];
    AsyncIssueAt[E.Id] = {I, E};
    ++T.asyncOn(E.Bank);
    ++T.Async;
    B.node(I, E, L);
    B.asyncIssued(I);
    B.po(L, I);
    break;
  }
  case TraceEventKind::AsyncBind: {
    const auto It = AsyncIssueAt.find(E.Id);
    if (It == AsyncIssueAt.end()) {
      violate("causality: a split-phase load completed without an issue", I,
              E, I, E);
      break;
    }
    ThreadState &T = Threads[lane(E.Tid)];
    --T.asyncOn(E.Bank);
    --T.Async;
    AddrState &AS = Addrs[E.A];
    if (E.V != AS.Val)
      violateValue("read-value: a split-phase load bound a value memory "
                   "does not hold",
                   AS, I, E);
    // The read's program-order point is the issue; the binding write is
    // whatever is visible now.
    const uint64_t Issue = It->second.Node;
    AsyncIssueAt.erase(It);
    B.read(Issue, AS.Back, AS.Visible, /*Buffered=*/false);
    B.asyncBound(Issue);
    break;
  }
  case TraceEventKind::Atomic: {
    const uint32_t L = lane(E.Tid);
    ThreadState &T = Threads[L];
    AddrState &AS = Addrs[E.A];
    if (const PendingStore *Oldest = T.oldestOn(E.Bank))
      violate("self-coherence: an atomic executed while the thread still "
              "buffered stores on its bank",
              Oldest->Node, Oldest->Ev, I, E);
    else if (T.asyncOn(E.Bank) != 0)
      violate("same-bank issue order: an atomic executed while a "
              "split-phase load is pending on its bank",
              I, E, I, E);
    else if (static_cast<sim::Word>(E.Id) != AS.Val)
      violateValue("read-value: an atomic read a value memory does not hold",
                   AS, I, E);
    const uint64_t W = AS.Visible; // The read side binds pre-write.
    B.node(I, E, L);
    if (E.Flag) {
      AS.Val = E.V;
      const uint64_t OldVisible = AS.Visible;
      AS.Visible = I;
      AS.VisibleEv = E;
      B.coAppend(AS.Back, I, /*Plain=*/false, /*Id=*/0, OldVisible);
      Overlay.erase(E.A); // Atomics invalidate block-visible values.
    }
    B.read(I, AS.Back, W, /*Buffered=*/false);
    B.po(L, I);
    // The write side ends after the read side: the back end may retire
    // the write the atomic read from only once the read is recorded.
    if (E.Flag)
      B.written(AS.Back, AS.Visible);
    break;
  }
  case TraceEventKind::FenceDevice: {
    const ThreadState &T = Threads[lane(E.Tid)];
    if (!T.Stores.empty())
      violate("fence-drain: a device fence completed with the thread's "
              "stores still buffered",
              I, E, I, E);
    else if (T.Async != 0)
      violate("fence-drain: a device fence completed with the thread's "
              "split-phase loads still pending",
              I, E, I, E);
    break;
  }
  case TraceEventKind::StorePromote: {
    PromotedIds.insert(E.Id);
    const PendingStore *P = nullptr;
    for (const PendingStore &PS : Threads[lane(E.Tid)].Stores)
      if (PS.Ev.Bank == E.Bank && PS.Ev.Id == E.Id)
        P = &PS;
    if (!P) {
      violate("forwarding: a block fence promoted a store that is not "
              "buffered",
              I, E, I, E);
      break;
    }
    OverlayEnt *OV = overlayFor(E.Block, E.A);
    if (!OV)
      Overlay[E.A].push_back({E.Block, E.Id, P->Node, E.V, P->Ev});
    else if (OV->Id < E.Id)
      *OV = {E.Block, E.Id, P->Node, E.V, P->Ev};
    break;
  }
  case TraceEventKind::FenceBlock:
  case TraceEventKind::BarrierRelease:
    break;
  case TraceEventKind::HostWrite: {
    AddrState &AS = Addrs[E.A];
    AS.Val = E.V;
    const uint64_t OldVisible = AS.Visible;
    AS.Visible = I;
    AS.VisibleEv = E;
    AS.PlainMax = E.Id;
    B.node(I, E, NoLane);
    B.coAppend(AS.Back, I, /*Plain=*/true, E.Id, OldVisible);
    B.written(AS.Back, I);
    break;
  }
  }
}

template <class Backend>
void Replay<Backend>::storeDrain(const sim::TraceEvent &E, uint64_t I,
                                 Backend &B) {
  std::vector<PendingStore> &Stores = Threads[lane(E.Tid)].Stores;
  // The head of the bank's FIFO.
  auto Head = Stores.begin();
  while (Head != Stores.end() && Head->Ev.Bank != E.Bank)
    ++Head;
  if (Head == Stores.end() || Head->Ev.Id != E.Id) {
    const bool Empty = Head == Stores.end();
    violate("same-bank FIFO: a store drained out of its bank's issue order",
            Empty ? I : Head->Node, Empty ? E : Head->Ev, I, E);
    return;
  }
  const PendingStore Front = *Head;
  Stores.erase(Head);
  AddrState &AS = Addrs[E.A];
  if (E.Flag != (E.Id >= AS.PlainMax)) {
    violate("coherence-per-location: a drain was applied/dropped against "
            "the per-address store order",
            Front.Node, Front.Ev, I, E);
    return;
  }
  const bool WasPromoted = PromotedIds.count(E.Id) != 0;
  if (WasPromoted) {
    // The drain retires exactly its own block-visible value.
    const auto It = Overlay.find(E.A);
    if (It != Overlay.end())
      for (size_t K = 0; K != It->second.size(); ++K)
        if (It->second[K].Id == E.Id) {
          It->second.erase(It->second.begin() + static_cast<ptrdiff_t>(K));
          break;
        }
  }
  if (E.Flag) {
    AS.Val = E.V;
    const uint64_t OldVisible = AS.Visible;
    AS.Visible = Front.Node;
    AS.VisibleEv = Front.Ev;
    AS.PlainMax = E.Id;
    B.coAppend(AS.Back, Front.Node, /*Plain=*/true, E.Id, OldVisible);
    // A write that reaches globally visible memory through the plain path
    // invalidates every block-visible value for the address.
    if (!WasPromoted)
      Overlay.erase(E.A);
  } else {
    B.coInsertDropped(AS.Back, Front.Node, E.Id);
  }
  B.drained(AS.Back, Front.Node, AS.Visible);
}

template <class Backend>
void Replay<Backend>::loadBind(const sim::TraceEvent &E, uint64_t I,
                               Backend &B) {
  using sim::LoadSource;
  const uint32_t L = lane(E.Tid);
  const ThreadState &T = Threads[L];
  AddrState &AS = Addrs[E.A];
  const PendingStore *Newest = T.newestTo(E.Bank, E.A);
  const OverlayEnt *OV = overlayFor(E.Block, E.A);
  uint64_t Rf = NoWriter;
  bool Buffered = false;
  switch (E.Source) {
  case LoadSource::Memory:
    if (const PendingStore *Oldest = T.oldestOn(E.Bank))
      violate("self-coherence: a load bound from memory while the thread "
              "still buffered stores on the load's bank",
              Oldest->Node, Oldest->Ev, I, E);
    else if (OV)
      violate("forwarding: a load bound from memory past a live "
              "block-visible value",
              OV->Node, OV->Ev, I, E);
    else if (E.V != AS.Val)
      violateValue("read-value: a load bound a value no write produced", AS,
                   I, E);
    Rf = AS.Visible;
    break;
  case LoadSource::Forward:
    if (!Newest)
      violate("forwarding: a load forwarded with no buffered store to its "
              "address",
              I, E, I, E);
    else if (E.V != Newest->Ev.V)
      violate("forwarding: a load forwarded a value its newest buffered "
              "store did not write",
              Newest->Node, Newest->Ev, I, E);
    else if (AS.PlainMax > Newest->Ev.Id)
      violate("coherence-per-location: a load forwarded a store that newer "
              "globally visible writes supersede",
              Newest->Node, Newest->Ev, I, E);
    else if (OV && OV->Id > Newest->Ev.Id)
      violate("coherence-per-location: a load forwarded a store that a "
              "newer block-visible value supersedes",
              Newest->Node, Newest->Ev, I, E);
    if (Newest) {
      Rf = Newest->Node;
      Buffered = true;
    }
    break;
  case LoadSource::MemorySuperseded:
    if (!Newest || AS.PlainMax <= Newest->Ev.Id)
      violate("coherence-per-location: a superseded-forward load without a "
              "superseding write",
              I, E, I, E);
    else if (E.V != AS.Val)
      violateValue("read-value: a superseded-forward load bound a value "
                   "memory does not hold",
                   AS, I, E);
    Rf = AS.Visible;
    break;
  case LoadSource::OverlaySuperseded:
    if (!Newest || !OV || OV->Id <= Newest->Ev.Id)
      violate("coherence-per-location: a superseded-forward load without a "
              "newer block-visible value",
              I, E, I, E);
    else if (E.V != OV->V)
      violate("read-value: a superseded-forward load bound a value the "
              "block overlay does not hold",
              OV->Node, OV->Ev, I, E);
    if (OV) {
      Rf = OV->Node;
      Buffered = true;
    }
    break;
  case LoadSource::Overlay:
    if (const PendingStore *Oldest = T.oldestOn(E.Bank))
      violate("self-coherence: a load bound from the block overlay while "
              "the thread still buffered stores on the bank",
              Oldest->Node, Oldest->Ev, I, E);
    else if (!OV)
      violate("forwarding: a load bound from the block overlay with no live "
              "value for its block",
              I, E, I, E);
    else if (E.V != OV->V)
      violate("read-value: a load bound a value the block overlay does not "
              "hold",
              OV->Node, OV->Ev, I, E);
    if (OV) {
      Rf = OV->Node;
      Buffered = true;
    }
    break;
  }
  B.node(I, E, L);
  B.read(I, AS.Back, Rf, Buffered);
  B.po(L, I);
}

} // namespace model
} // namespace gpuwmm

#endif // GPUWMM_MODEL_REPLAY_H
