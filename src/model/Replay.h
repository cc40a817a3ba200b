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
/// The replay owns the axiom state: each thread's buffered stores (each
/// flagged once a block fence promotes it) and pending split-phase loads,
/// and per address the visible value, its writer, the newest plain store
/// id and the live block-visible values. Threads are numbered by dense
/// *lanes* and addresses by dense *records*, both in first-seen order
/// (\ref DenseIds), so every per-thread and per-address lookup on the
/// per-event path is a vector index, not a hash. Records and per-thread
/// state are recycled across runs with their vectors' capacity, so a
/// steady stream of litmus-sized runs allocates nothing. It checks
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
/// A back end is any type with a per-address state type `Loc` (with a
/// `clear()` that empties it for reuse) and these members, which the
/// replay calls per event in this order (a template parameter, so the
/// streaming path makes no virtual call per event):
///
///   node(I, E, Lane) -> handle  event I joins the causality graph
///                               (stores, loads, split-phase issues,
///                               atomics, host writes); Lane is its
///                               thread's lane (\ref NoLane for a host
///                               write). The replay keeps the handle with
///                               I wherever it keeps the node (a
///                               \ref NodeRef) and hands both back;
///   buffered(N, L)              store N waits in its thread's buffer;
///   asyncIssued(N)              split-phase load N awaits its bind;
///   coAppend(L, W, Plain, Id, OldVisible)
///                               applied write W ends the address's
///                               coherence order and is now its visible
///                               writer (OldVisible was);
///   coInsertDropped(L, W, Id)   coherence-dropped store W, id Id, takes
///                               its place in the coherence order;
///   read(R, L, W, Buffered)     the read whose program-order point is R
///                               read from write W (index \ref NoWriter:
///                               the initial state); Buffered: W is still
///                               in its thread's buffer or the overlay;
///   po(Lane, N)                 N is lane Lane's next program-order point;
///   drained(L, W, Visible)      the drain of store W ended;
///   asyncBound(N)               split-phase load N bound;
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
#include <vector>

namespace gpuwmm {
namespace model {

/// The writer of a value no write produced: the initial state.
inline constexpr uint64_t NoWriter = static_cast<uint64_t>(-1);

/// No lane: a host write, which no thread issues.
inline constexpr uint32_t NoLane = static_cast<uint32_t>(-1);

/// No back-end handle: the initial state, or a node the back end keeps
/// nothing for.
inline constexpr uint32_t NoHandle = static_cast<uint32_t>(-1);

/// A causality-graph node as the replay keeps it: the event's global
/// index and the handle the back end's node() gave it.
struct NodeRef {
  uint64_t Index = NoWriter;
  uint32_t Handle = NoHandle;
};

/// Sparse 32-bit keys -> dense ids, numbered in first-seen order. Keys
/// below \p DirectBelow are answered by a direct table of 4 bytes per key,
/// sized by the largest one seen; a larger key (only a hand-built trace
/// carries one) is looked up in a hash map instead, so no key sizes
/// memory past the bound.
template <uint32_t DirectBelow> class DenseIds {
public:
  uint32_t idOf(uint32_t Key) {
    if (Key < Direct.size() && Direct[Key] != NoId)
      return Direct[Key];
    return assign(Key);
  }
  /// Ids handed out since clear().
  uint32_t size() const { return static_cast<uint32_t>(Keys.size()); }
  /// Forgets every id in O(ids); the direct table keeps its size.
  void clear() {
    for (const uint32_t Key : Keys)
      if (Key < Direct.size())
        Direct[Key] = NoId;
    Keys.clear();
    Far.clear();
  }

private:
  static constexpr uint32_t NoId = static_cast<uint32_t>(-1);

  uint32_t assign(uint32_t Key) {
    const uint32_t Id = size();
    if (Key >= DirectBelow) {
      const auto [It, New] = Far.try_emplace(Key, Id);
      if (!New)
        return It->second;
    } else {
      if (Key >= Direct.size())
        Direct.resize(size_t{Key} + 1, NoId);
      Direct[Key] = Id;
    }
    Keys.push_back(Key);
    return Id;
  }

  std::vector<uint32_t> Direct; ///< Key -> id (NoId: not seen).
  std::unordered_map<uint32_t, uint32_t> Far;
  std::vector<uint32_t> Keys; ///< Id -> key.
};

/// Thread ids -> lanes. Engine thread ids are small; the direct table
/// stays under 256 KiB.
using LaneIds = DenseIds<1u << 16>;

/// Word addresses -> the replay's address records. Engine addresses are
/// below the words the run allocated; the direct table stays under 4 MiB.
using AddrIds = DenseIds<1u << 20>;

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
/// \p Backend. Reusable: \ref clear keeps per-thread state, address
/// records (up to \ref KeepAddrs) and their vectors' capacity.
template <class Backend> class Replay {
public:
  /// Starts a fresh run in O(threads + addresses) of the last one.
  void clear() {
    for (uint32_t L = 0; L != Lanes.size(); ++L)
      Threads[L].clear();
    Lanes.clear();
    // Records are reset as their ids are handed out again; an app-sized
    // surplus is handed back, so a pool of checkers does not each keep
    // its largest run's records.
    if (Addrs.size() > KeepAddrs)
      Addrs.resize(KeepAddrs);
    AddrIdx.clear();
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
      if (!Threads[L].Asyncs.empty())
        violate("fence-drain: split-phase loads were still pending at the "
                "end of the run",
                LastI, LastEv, LastI, LastEv);
  }

private:
  /// Address records kept across clear() (a litmus run names a handful,
  /// an app run of the Tab. 5 grid under 1k).
  static constexpr size_t KeepAddrs = 4096;

  /// One thread's un-drained buffered store.
  struct PendingStore {
    NodeRef Node;       ///< Its StoreIssue event...
    sim::TraceEvent Ev; ///< ...and a copy of it (bank, address, value, id).
    /// A block fence promoted it: its drain retires its own block-visible
    /// value instead of invalidating the address's.
    bool Promoted = false;
  };
  /// One thread's pending split-phase load.
  struct PendingAsync {
    NodeRef Node; ///< Its AsyncIssue event (the read's po point).
    uint64_t Ticket;
    unsigned Bank;
  };
  /// One thread's pending work, indexed by its lane. A thread has a
  /// handful of each pending at a time, so lookups scan.
  struct ThreadState {
    /// Buffered stores on every bank, in issue order: a bank's FIFO is the
    /// subsequence on that bank.
    std::vector<PendingStore> Stores;
    /// Pending split-phase loads, in issue order.
    std::vector<PendingAsync> Asyncs;

    /// Empties the state, keeping capacity.
    void clear() {
      Stores.clear();
      Asyncs.clear();
    }
    /// Whether a split-phase load is pending on \p Bank.
    bool asyncOn(unsigned Bank) const {
      for (const PendingAsync &P : Asyncs)
        if (P.Bank == Bank)
          return true;
      return false;
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
    NodeRef Node; ///< Its store's StoreIssue event.
    sim::Word V;
    sim::TraceEvent Ev;
  };
  /// One address's record.
  struct AddrState {
    sim::Word Val = 0;         ///< Globally visible value.
    uint64_t PlainMax = 0;     ///< MemWriteId mirror.
    NodeRef Visible;           ///< Writer of Val (index NoWriter: initial).
    sim::TraceEvent VisibleEv; ///< Copy of that writer's event.
    /// Live block-visible values, at most one per block.
    std::vector<OverlayEnt> Overlay;
    typename Backend::Loc Back; ///< The back end's state for the address.

    /// Empties the record for a new address, keeping capacity.
    void reset() {
      Val = 0;
      PlainMax = 0;
      Visible = NodeRef();
      VisibleEv = sim::TraceEvent();
      Overlay.clear();
      Back.clear();
    }
    OverlayEnt *overlayFor(unsigned Block) {
      for (OverlayEnt &O : Overlay)
        if (O.Block == Block)
          return &O;
      return nullptr;
    }
  };

  /// \p Tid's lane, assigned on first sight; Threads covers it. A lane's
  /// pending lists start with room for 8 entries, more than a catalog or
  /// hunt litmus thread has pending, so whichever lane such a thread
  /// gets, its runs never grow them.
  uint32_t lane(unsigned Tid) {
    const uint32_t L = Lanes.idOf(Tid);
    if (L == Threads.size()) {
      ThreadState &T = Threads.emplace_back();
      T.Stores.reserve(8);
      T.Asyncs.reserve(8);
    }
    return L;
  }

  /// \p A's record, reset on first sight this run.
  AddrState &addr(sim::Addr A) {
    const uint32_t Before = AddrIdx.size();
    const uint32_t R = AddrIdx.idOf(A);
    if (R == Before) {
      if (R == Addrs.size())
        Addrs.emplace_back();
      else
        Addrs[R].reset();
    }
    return Addrs[R];
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
    if (AS.Visible.Index == NoWriter)
      violate(Msg, I, E, I, E);
    else
      violate(Msg, AS.Visible.Index, AS.VisibleEv, I, E);
  }

  void storeDrain(const sim::TraceEvent &E, uint64_t I, Backend &B);
  void loadBind(const sim::TraceEvent &E, uint64_t I, Backend &B);

  LaneIds Lanes;
  /// By lane; entries past Lanes.size() are reset and kept for capacity.
  std::vector<ThreadState> Threads;
  AddrIds AddrIdx;
  /// By record; entries past AddrIdx.size() are kept for capacity and
  /// reset when handed out again.
  std::vector<AddrState> Addrs;
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
    if (T.asyncOn(E.Bank))
      violate("same-bank issue order: store issued while a split-phase "
              "load is pending on its bank",
              I, E, I, E);
    const NodeRef N{I, B.node(I, E, L)};
    T.Stores.push_back({N, E});
    B.buffered(N, addr(E.A).Back);
    B.po(L, N);
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
    const NodeRef N{I, B.node(I, E, L)};
    Threads[L].Asyncs.push_back({N, E.Id, E.Bank});
    B.asyncIssued(N);
    B.po(L, N);
    break;
  }
  case TraceEventKind::AsyncBind: {
    std::vector<PendingAsync> &Asyncs = Threads[lane(E.Tid)].Asyncs;
    auto It = Asyncs.begin();
    while (It != Asyncs.end() && It->Ticket != E.Id)
      ++It;
    if (It == Asyncs.end()) {
      violate("causality: a split-phase load completed without an issue", I,
              E, I, E);
      break;
    }
    AddrState &AS = addr(E.A);
    if (E.V != AS.Val)
      violateValue("read-value: a split-phase load bound a value memory "
                   "does not hold",
                   AS, I, E);
    // The read's program-order point is the issue; the binding write is
    // whatever is visible now.
    const NodeRef Issue = It->Node;
    Asyncs.erase(It);
    B.read(Issue, AS.Back, AS.Visible, /*Buffered=*/false);
    B.asyncBound(Issue);
    break;
  }
  case TraceEventKind::Atomic: {
    const uint32_t L = lane(E.Tid);
    ThreadState &T = Threads[L];
    AddrState &AS = addr(E.A);
    if (const PendingStore *Oldest = T.oldestOn(E.Bank))
      violate("self-coherence: an atomic executed while the thread still "
              "buffered stores on its bank",
              Oldest->Node.Index, Oldest->Ev, I, E);
    else if (T.asyncOn(E.Bank))
      violate("same-bank issue order: an atomic executed while a "
              "split-phase load is pending on its bank",
              I, E, I, E);
    else if (static_cast<sim::Word>(E.Id) != AS.Val)
      violateValue("read-value: an atomic read a value memory does not hold",
                   AS, I, E);
    const NodeRef W = AS.Visible; // The read side binds pre-write.
    const NodeRef N{I, B.node(I, E, L)};
    if (E.Flag) {
      AS.Val = E.V;
      const NodeRef OldVisible = AS.Visible;
      AS.Visible = N;
      AS.VisibleEv = E;
      B.coAppend(AS.Back, N, /*Plain=*/false, /*Id=*/0, OldVisible);
      AS.Overlay.clear(); // Atomics invalidate block-visible values.
    }
    B.read(N, AS.Back, W, /*Buffered=*/false);
    B.po(L, N);
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
    else if (!T.Asyncs.empty())
      violate("fence-drain: a device fence completed with the thread's "
              "split-phase loads still pending",
              I, E, I, E);
    break;
  }
  case TraceEventKind::StorePromote: {
    PendingStore *P = nullptr;
    for (PendingStore &PS : Threads[lane(E.Tid)].Stores)
      if (PS.Ev.Bank == E.Bank && PS.Ev.Id == E.Id)
        P = &PS;
    if (!P) {
      violate("forwarding: a block fence promoted a store that is not "
              "buffered",
              I, E, I, E);
      break;
    }
    P->Promoted = true;
    AddrState &AS = addr(E.A);
    OverlayEnt *OV = AS.overlayFor(E.Block);
    if (!OV)
      AS.Overlay.push_back({E.Block, E.Id, P->Node, E.V, P->Ev});
    else if (OV->Id < E.Id)
      *OV = {E.Block, E.Id, P->Node, E.V, P->Ev};
    break;
  }
  case TraceEventKind::FenceBlock:
  case TraceEventKind::BarrierRelease:
    break;
  case TraceEventKind::HostWrite: {
    AddrState &AS = addr(E.A);
    AS.Val = E.V;
    const NodeRef OldVisible = AS.Visible;
    const NodeRef N{I, B.node(I, E, NoLane)};
    AS.Visible = N;
    AS.VisibleEv = E;
    AS.PlainMax = E.Id;
    B.coAppend(AS.Back, N, /*Plain=*/true, E.Id, OldVisible);
    B.written(AS.Back, N);
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
            Empty ? I : Head->Node.Index, Empty ? E : Head->Ev, I, E);
    return;
  }
  const PendingStore Front = *Head;
  Stores.erase(Head);
  AddrState &AS = addr(E.A);
  if (E.Flag != (E.Id >= AS.PlainMax)) {
    violate("coherence-per-location: a drain was applied/dropped against "
            "the per-address store order",
            Front.Node.Index, Front.Ev, I, E);
    return;
  }
  if (Front.Promoted) {
    // The drain retires exactly its own block-visible value.
    for (size_t K = 0; K != AS.Overlay.size(); ++K)
      if (AS.Overlay[K].Id == E.Id) {
        AS.Overlay.erase(AS.Overlay.begin() + static_cast<ptrdiff_t>(K));
        break;
      }
  }
  if (E.Flag) {
    AS.Val = E.V;
    const NodeRef OldVisible = AS.Visible;
    AS.Visible = Front.Node;
    AS.VisibleEv = Front.Ev;
    AS.PlainMax = E.Id;
    B.coAppend(AS.Back, Front.Node, /*Plain=*/true, E.Id, OldVisible);
    // A write that reaches globally visible memory through the plain path
    // invalidates every block-visible value for the address.
    if (!Front.Promoted)
      AS.Overlay.clear();
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
  AddrState &AS = addr(E.A);
  const PendingStore *Newest = T.newestTo(E.Bank, E.A);
  const OverlayEnt *OV = AS.overlayFor(E.Block);
  NodeRef Rf;
  bool Buffered = false;
  switch (E.Source) {
  case LoadSource::Memory:
    if (const PendingStore *Oldest = T.oldestOn(E.Bank))
      violate("self-coherence: a load bound from memory while the thread "
              "still buffered stores on the load's bank",
              Oldest->Node.Index, Oldest->Ev, I, E);
    else if (OV)
      violate("forwarding: a load bound from memory past a live "
              "block-visible value",
              OV->Node.Index, OV->Ev, I, E);
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
              Newest->Node.Index, Newest->Ev, I, E);
    else if (AS.PlainMax > Newest->Ev.Id)
      violate("coherence-per-location: a load forwarded a store that newer "
              "globally visible writes supersede",
              Newest->Node.Index, Newest->Ev, I, E);
    else if (OV && OV->Id > Newest->Ev.Id)
      violate("coherence-per-location: a load forwarded a store that a "
              "newer block-visible value supersedes",
              Newest->Node.Index, Newest->Ev, I, E);
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
              OV->Node.Index, OV->Ev, I, E);
    if (OV) {
      Rf = OV->Node;
      Buffered = true;
    }
    break;
  case LoadSource::Overlay:
    if (const PendingStore *Oldest = T.oldestOn(E.Bank))
      violate("self-coherence: a load bound from the block overlay while "
              "the thread still buffered stores on the bank",
              Oldest->Node.Index, Oldest->Ev, I, E);
    else if (!OV)
      violate("forwarding: a load bound from the block overlay with no live "
              "value for its block",
              I, E, I, E);
    else if (E.V != OV->V)
      violate("read-value: a load bound a value the block overlay does not "
              "hold",
              OV->Node.Index, OV->Ev, I, E);
    if (OV) {
      Rf = OV->Node;
      Buffered = true;
    }
    break;
  }
  const NodeRef N{I, B.node(I, E, L)};
  B.read(N, AS.Back, Rf, Buffered);
  B.po(L, N);
}

} // namespace model
} // namespace gpuwmm

#endif // GPUWMM_MODEL_REPLAY_H
