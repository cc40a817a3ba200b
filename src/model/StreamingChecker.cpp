//===- model/StreamingChecker.cpp - Online consistency oracle ----------------===//
//
// The axiomatic checker as an incremental trace consumer. The replay
// axioms are model/Replay.h's, shared with ConsistencyChecker.cpp, so the
// first violation (message and violating event indices) is identical by
// construction. This file is the causality back end: a live graph with
// incremental cycle detection and frontier-bounded retirement (DESIGN.md
// Sec. 15). Its per-event path hashes nothing: the replay hands back the
// slot handle of every node it keeps (a recycled slot is told apart by
// its stored event index), adjacency lookups scan a short list or read a
// pooled dense row by lane, program order is a vector by lane, and
// reader lists are chains in a pooled link array. begin() keeps all of
// it, so a steady stream of litmus-sized runs allocates nothing.
//
// Retirement soundness leans on one engine invariant: store ids
// (NextStoreId, shared with host writes) are monotonic in issue order, so
// once no store to an address is buffered, every later coherence
// insertion lands at the end of the retained window — the pruned prefix
// can never be spliced into again.
//
//===----------------------------------------------------------------------===//

#include "model/StreamingChecker.h"

#include "model/Replay.h"

#include <algorithm>
#include <memory>
#include <sstream>

using namespace gpuwmm;
using namespace gpuwmm::model;
using sim::TraceEvent;
using sim::TraceEventKind;

namespace {

/// Why a live graph node cannot retire yet (a bitmask; zero = retirable).
enum : uint8_t {
  PinPoLast = 1,         ///< Its thread's latest program-order event.
  PinPendingStore = 2,   ///< A buffered (undrained) store issue.
  PinPendingAsync = 4,   ///< A split-phase load awaiting its bind.
  PinCoWindow = 8,       ///< In an address's live coherence window.
  PinWatchedReader = 16, ///< A read whose fr target can still change.
  PinVisible = 32,       ///< An address's current visible writer (rf source).
};

constexpr uint32_t NoSlot = NoHandle;                  ///< Not live.
constexpr uint32_t NoEdge = static_cast<uint32_t>(-1); ///< List end / miss.
constexpr uint32_t NoRow = static_cast<uint32_t>(-1);  ///< List not indexed.
constexpr uint32_t NoLink = static_cast<uint32_t>(-1); ///< Reader list end.
constexpr uint64_t NoEvent = NoWriter; ///< A free slot's index.

/// Recycled storage with stable element addresses, grown a chunk at a time:
/// no doubling copy, no doubled slack, and a run's surplus chunks can be
/// handed back while the first is kept. (A pool of checkers on std::vector
/// storage peaked about 3.5 MiB higher on titan's checked 8x10 grid with
/// four workers.)
template <typename T, unsigned ChunkBits> class Slab {
public:
  static constexpr uint32_t ChunkSize = uint32_t{1} << ChunkBits;

  T &operator[](uint32_t I) {
    return Chunks[I >> ChunkBits][I & (ChunkSize - 1)];
  }
  /// Makes element \p I addressable; elements are handed out in order.
  void reach(uint32_t I) {
    if ((I >> ChunkBits) == Chunks.size())
      Chunks.push_back(std::make_unique<T[]>(ChunkSize));
  }
  /// Frees every chunk past the first.
  void trim() {
    if (Chunks.size() > 1)
      Chunks.resize(1);
  }

private:
  std::vector<std::unique_ptr<T[]>> Chunks;
};

/// Dense adjacency rows for the lists past GraphState::IndexAbove: a row
/// maps each lane to its node's one edge to or from that lane (NoEdge:
/// none). A row is taken when a list is indexed and handed back when its
/// node retires. Rows sit Stride words apart in one array, Stride covering
/// every lane the run has named.
class RowPool {
public:
  uint32_t take() {
    uint32_t R;
    if (!Free.empty()) {
      R = Free.back();
      Free.pop_back();
    } else {
      R = Count++;
      Words.resize(size_t{Count} * Stride);
    }
    std::fill_n(row(R), Stride, NoEdge);
    Peak = std::max(Peak, ++InUse);
    return R;
  }
  void give(uint32_t R) {
    Free.push_back(R);
    --InUse;
  }
  uint32_t *row(uint32_t R) { return Words.data() + size_t{R} * Stride; }

  /// Widens every row to cover \p Lane. Lanes are named in first-seen
  /// order, mostly before any list is indexed, so there is rarely a row to
  /// move.
  void cover(uint32_t Lane) {
    if (Lane < Stride)
      return;
    const uint32_t Wide = (Lane | 15) + 1;
    if (Count == 0) {
      Stride = Wide;
      return;
    }
    std::vector<uint32_t> Old;
    Old.swap(Words);
    Words.assign(size_t{Count} * Wide, NoEdge);
    for (uint32_t R = 0; R != Count; ++R)
      std::copy_n(Old.data() + size_t{R} * Stride, Stride,
                  Words.data() + size_t{R} * Wide);
    Stride = Wide;
  }

  /// High-water mark of rows in use since clear().
  uint32_t peak() const { return Peak; }

  /// Forgets every row. Storage up to KeepWords stays (tpo-tm's hub lists
  /// peak near 1100 rows of 64 lanes, 278 KiB); more is handed back.
  void clear() {
    if (Words.capacity() > KeepWords)
      std::vector<uint32_t>().swap(Words);
    else
      Words.clear();
    Free.clear();
    Stride = Count = InUse = Peak = 0;
  }

private:
  static constexpr size_t KeepWords = size_t{1} << 17;
  std::vector<uint32_t> Words;
  std::vector<uint32_t> Free;
  uint32_t Stride = 0; ///< Words per row.
  uint32_t Count = 0;  ///< Rows laid out this run.
  uint32_t InUse = 0, Peak = 0;
};

/// A list of watched readers: a chain of links in GraphState::Links, in
/// registration order (the order their from-read edges are emitted).
struct ReaderList {
  uint32_t Head = NoLink, Tail = NoLink;
};

/// One write in an address's live coherence window.
struct CoEnt {
  NodeRef Node;
  uint64_t Id;
  bool Plain; ///< Carries a store id (StoreIssue/HostWrite, not Atomic).
  ReaderList Readers; ///< Watched readers of this write.
};

/// The graph's per-address state (the replay keeps it in the address's
/// record).
struct CoWindow {
  unsigned PendingStores = 0; ///< Buffered stores to this address.
  std::vector<CoEnt> Co;      ///< Live coherence window.
  ReaderList InitReaders;     ///< Watched initial-state readers.

  /// Empties the window for a new address, keeping capacity (the reader
  /// links go back with the graph's pool).
  void clear() {
    PendingStores = 0;
    Co.clear();
    InitReaders = ReaderList();
  }
};

/// The live causality graph, recycled across begin() calls (clear() keeps
/// the row pool up to its keep size and the graph storage of litmus-sized
/// runs).
struct GraphState {
  /// One stored edge, threaded on its source's out-list and its target's
  /// in-list (both in insertion order: the DFS, and so the witness, order).
  struct Edge {
    uint32_t From, To; ///< Node slots.
    uint32_t PrevOut, NextOut;
    uint32_t PrevIn, NextIn;
    EdgeKind Kind;
  };
  struct GNode {
    TraceEvent Ev;
    uint64_t Index = NoEvent; ///< Global event index (NoEvent: free slot).
    uint32_t Lane = NoLane;   ///< Issuing thread's lane (NoLane: host write).
    uint32_t OutHead = NoEdge, OutTail = NoEdge;
    uint32_t InHead = NoEdge, InTail = NoEdge;
    uint32_t OutDegree = 0, InDegree = 0;
    uint8_t Pins = 0;
    /// The list's row in Rows once it outgrew a scan (NoRow before); kept
    /// until the node retires.
    uint32_t OutRow = NoRow, InRow = NoRow;
    uint64_t Stamp = 0; ///< DFS visitation stamp.
    /// Readers of this store registered while it is buffered (not yet in
    /// co); moved to its CoEnt when it drains.
    ReaderList Pending;
  };
  /// One watched reader in a ReaderList.
  struct ReaderLink {
    NodeRef Reader;
    uint32_t Next;
  };
  /// Adjacency lists longer than this are indexed, shorter ones scanned
  /// (DESIGN.md Sec. 15 has the measured degree distribution and the A/B
  /// against indexing or scanning every list).
  static constexpr uint32_t IndexAbove = 8;
  /// The node slab: slots [0, UsedSlots) were handed out this run; retired
  /// slots are recycled through FreeSlots. Edges pool the same way.
  Slab<GNode, 8> Nodes;
  std::vector<uint32_t> FreeSlots;
  uint32_t UsedSlots = 0;
  Slab<Edge, 10> Edges;
  std::vector<uint32_t> FreeEdges;
  uint32_t UsedEdges = 0;
  /// Rows of the indexed lists. A host-write neighbour has no lane, so an
  /// indexed list is still scanned for one (host writes are rare).
  RowPool Rows;
  size_t LiveCount = 0; ///< Live nodes.
  /// The links of every reader list, pooled like the nodes: a watched
  /// reader is a live node on one list, so there are no more links than
  /// live nodes.
  Slab<ReaderLink, 8> Links;
  std::vector<uint32_t> FreeLinks;
  uint32_t UsedLinks = 0;
  std::vector<NodeRef> LastPo; ///< By lane (index NoEvent: none yet).
  uint64_t DfsStamp = 0;
  bool GraphDead = false; ///< Cycle found: graph dropped, axioms continue.

  struct Frame {
    uint32_t Slot;
    uint32_t Next;  ///< Next out-edge to try.
    uint32_t Taken; ///< Out-edge the search descended through.
  };
  std::vector<Frame> Stack; ///< DFS scratch.
  /// Retirement scratch: the retiring node's neighbours.
  std::vector<uint32_t> SpliceFrom;
  std::vector<std::pair<uint32_t, EdgeKind>> SpliceTo;

  /// The scratch lists start with room for what the kept chunks hold, so
  /// a run that stays within them never grows one.
  GraphState() {
    constexpr uint32_t NodeRoom = decltype(Nodes)::ChunkSize;
    FreeSlots.reserve(NodeRoom);
    FreeEdges.reserve(decltype(Edges)::ChunkSize);
    FreeLinks.reserve(NodeRoom);
    Stack.reserve(NodeRoom);
    SpliceFrom.reserve(NodeRoom);
    SpliceTo.reserve(NodeRoom);
  }

  void clear() {
    // The first chunks stay, so streams of litmus-sized checked runs stop
    // allocating. An app-sized graph's surplus is handed back: otherwise
    // every pool worker's checker would hold its largest run's graph for
    // good, and the process would peak at their sum.
    Nodes.trim();
    Edges.trim();
    FreeSlots.clear();
    UsedSlots = 0;
    FreeEdges.clear();
    UsedEdges = 0;
    Rows.clear();
    LiveCount = 0;
    Links.trim();
    FreeLinks.clear();
    UsedLinks = 0;
    LastPo.clear();
    DfsStamp = 0;
    GraphDead = false;
    Stack.clear();
  }

  /// \p N's slot while its node is live, else NoSlot: a retired node's
  /// slot holds NoEvent or, once recycled, another event's index.
  uint32_t slotOf(NodeRef N) {
    return N.Handle != NoSlot && Nodes[N.Handle].Index == N.Index ? N.Handle
                                                                   : NoSlot;
  }

  void pushReader(ReaderList &L, NodeRef Reader) {
    uint32_t Id;
    if (!FreeLinks.empty()) {
      Id = FreeLinks.back();
      FreeLinks.pop_back();
    } else {
      Id = UsedLinks++;
      Links.reach(Id);
    }
    Links[Id] = {Reader, NoLink};
    (L.Tail == NoLink ? L.Head : Links[L.Tail].Next) = Id;
    L.Tail = Id;
  }

  /// Hands \p L's links back to the pool and empties it.
  void freeReaders(ReaderList &L) {
    for (uint32_t Id = L.Head; Id != NoLink; Id = Links[Id].Next)
      FreeLinks.push_back(Id);
    L = ReaderList();
  }
};

/// The causality back end of the replay (model/Replay.h): po ∪ rf ∪ co ∪
/// fr maintenance, pins, retirement, incremental cycle detection. Holds
/// references for one event's worth of work.
struct Graph {
  using Loc = CoWindow;

  GraphState &S;
  StreamVerdict &R;
  size_t &PeakLive;
  uint64_t &Retired;
  uint64_t &EdgeOps;
  size_t &PeakDegree;

  using Edge = GraphState::Edge;
  using GNode = GraphState::GNode;

  // --- The replay's facts (node, po and read are below) -------------------

  void buffered(NodeRef I, CoWindow &L) {
    if (S.GraphDead)
      return;
    pin(I, PinPendingStore);
    ++L.PendingStores;
  }

  void asyncIssued(NodeRef I) { pin(I, PinPendingAsync); }

  /// W's append also moves the address's rf-source pin to it.
  void coAppend(CoWindow &L, NodeRef W, bool Plain, uint64_t Id,
                NodeRef OldVisible) {
    appendCo(L, W, Plain, Id);
    if (S.GraphDead)
      return;
    pin(W, PinVisible);
    unpin(OldVisible, PinVisible);
  }

  void drained(CoWindow &L, NodeRef W, NodeRef Visible) {
    if (S.GraphDead)
      return;
    if (L.PendingStores != 0)
      --L.PendingStores;
    unpin(W, PinPendingStore);
    written(L, Visible);
  }

  void asyncBound(NodeRef I) { unpin(I, PinPendingAsync); }

  void written(CoWindow &L, NodeRef Visible) {
    if (!S.GraphDead && L.PendingStores == 0)
      pruneCo(L, Visible);
  }

  // --- The live graph -----------------------------------------------------

  /// Returns the node's slot: its handle while it is live.
  uint32_t node(uint64_t I, const TraceEvent &E, uint32_t Lane) {
    if (S.GraphDead)
      return NoSlot;
    if (Lane != NoLane)
      S.Rows.cover(Lane);
    uint32_t Slot;
    if (!S.FreeSlots.empty()) {
      Slot = S.FreeSlots.back();
      S.FreeSlots.pop_back();
    } else {
      Slot = S.UsedSlots++;
      S.Nodes.reach(Slot);
    }
    GNode &N = S.Nodes[Slot];
    N = GNode();
    N.Ev = E;
    N.Index = I;
    N.Lane = Lane;
    PeakLive = std::max(PeakLive, ++S.LiveCount);
    return Slot;
  }

  void pin(NodeRef I, uint8_t Bit) {
    if (S.GraphDead)
      return;
    const uint32_t Slot = S.slotOf(I);
    if (Slot != NoSlot)
      S.Nodes[Slot].Pins |= Bit;
  }

  void unpin(NodeRef I, uint8_t Bit) {
    if (S.GraphDead)
      return;
    const uint32_t Slot = S.slotOf(I);
    if (Slot == NoSlot)
      return;
    GNode &N = S.Nodes[Slot];
    N.Pins &= static_cast<uint8_t>(~Bit);
    if (N.Pins == 0)
      retire(Slot);
  }

  /// \p Slot's edge in direction \p In whose neighbour matches \p Nb on
  /// \p NbLane (same lane; for a host write, the node itself), or NoEdge.
  /// There is at most one: the lane reduction's invariant.
  uint32_t findEdge(uint32_t Slot, bool In, uint32_t Nb, uint32_t NbLane) {
    const GNode &N = S.Nodes[Slot];
    const uint32_t Row = In ? N.InRow : N.OutRow;
    if (Row != NoRow && NbLane != NoLane)
      return S.Rows.row(Row)[NbLane];
    for (uint32_t Id = In ? N.InHead : N.OutHead; Id != NoEdge;) {
      const Edge &E = S.Edges[Id];
      const uint32_t Other = In ? E.From : E.To;
      if (NbLane == NoLane ? Other == Nb : S.Nodes[Other].Lane == NbLane)
        return Id;
      Id = In ? E.NextIn : E.NextOut;
    }
    return NoEdge;
  }

  /// Gives a list that outgrew a scan a row.
  void indexList(uint32_t Slot, bool In) {
    GNode &N = S.Nodes[Slot];
    const uint32_t Row = S.Rows.take();
    (In ? N.InRow : N.OutRow) = Row;
    uint32_t *ByLane = S.Rows.row(Row);
    for (uint32_t Id = In ? N.InHead : N.OutHead; Id != NoEdge;) {
      const Edge &E = S.Edges[Id];
      const uint32_t Lane = S.Nodes[In ? E.From : E.To].Lane;
      if (Lane != NoLane)
        ByLane[Lane] = Id;
      Id = In ? E.NextIn : E.NextOut;
    }
  }

  void eraseEdge(uint32_t Id) {
    const Edge &E = S.Edges[Id];
    GNode &From = S.Nodes[E.From];
    GNode &To = S.Nodes[E.To];
    (E.PrevOut == NoEdge ? From.OutHead : S.Edges[E.PrevOut].NextOut) =
        E.NextOut;
    (E.NextOut == NoEdge ? From.OutTail : S.Edges[E.NextOut].PrevOut) =
        E.PrevOut;
    (E.PrevIn == NoEdge ? To.InHead : S.Edges[E.PrevIn].NextIn) = E.NextIn;
    (E.NextIn == NoEdge ? To.InTail : S.Edges[E.NextIn].PrevIn) = E.PrevIn;
    --From.OutDegree;
    --To.InDegree;
    if (From.OutRow != NoRow && To.Lane != NoLane)
      S.Rows.row(From.OutRow)[To.Lane] = NoEdge;
    if (To.InRow != NoRow && From.Lane != NoLane)
      S.Rows.row(To.InRow)[From.Lane] = NoEdge;
    S.FreeEdges.push_back(Id);
    ++EdgeOps;
  }

  void appendEdge(uint32_t FromSlot, uint32_t ToSlot, EdgeKind K) {
    uint32_t Id;
    if (!S.FreeEdges.empty()) {
      Id = S.FreeEdges.back();
      S.FreeEdges.pop_back();
    } else {
      Id = S.UsedEdges++;
      S.Edges.reach(Id);
    }
    GNode &From = S.Nodes[FromSlot];
    GNode &To = S.Nodes[ToSlot];
    Edge &E = S.Edges[Id];
    E = {FromSlot, ToSlot, From.OutTail, NoEdge, To.InTail, NoEdge, K};
    (From.OutTail == NoEdge ? From.OutHead : S.Edges[From.OutTail].NextOut) =
        Id;
    From.OutTail = Id;
    (To.InTail == NoEdge ? To.InHead : S.Edges[To.InTail].NextIn) = Id;
    To.InTail = Id;
    ++From.OutDegree;
    ++To.InDegree;
    if (From.OutRow != NoRow) {
      if (To.Lane != NoLane)
        S.Rows.row(From.OutRow)[To.Lane] = Id;
    } else if (From.OutDegree > GraphState::IndexAbove) {
      indexList(FromSlot, /*In=*/false);
    }
    if (To.InRow != NoRow) {
      if (From.Lane != NoLane)
        S.Rows.row(To.InRow)[From.Lane] = Id;
    } else if (To.InDegree > GraphState::IndexAbove) {
      indexList(ToSlot, /*In=*/true);
    }
    ++EdgeOps;
    PeakDegree = std::max<size_t>(PeakDegree,
                                  std::max(From.OutDegree, To.InDegree));
  }

  /// Stores From --K--> To unless program order already implies it, and
  /// drops the stored edges the new one implies (DESIGN.md Sec. 15). Each
  /// live lane is a chain: consecutive live nodes of one thread are joined
  /// by an edge. So From -> T' (T' at or before To on To's lane) already
  /// reaches To, and F' -> To (F' at or after From on From's lane) is
  /// already reached from From. Keeping only the dominant edge leaves each
  /// node at most one out-edge per target lane and one in-edge per source
  /// lane, which findEdge finds by a short scan or a row. Host writes sit
  /// on no lane:
  /// reasoning never runs through one. Returns false when the edge was
  /// implied (or a duplicate).
  bool link(uint32_t FromSlot, uint32_t ToSlot, EdgeKind K) {
    const GNode &From = S.Nodes[FromSlot];
    const GNode &To = S.Nodes[ToSlot];
    // From's edge into To's lane (or to To itself, for a host write).
    const uint32_t Later = findEdge(FromSlot, /*In=*/false, ToSlot, To.Lane);
    if (Later != NoEdge &&
        (To.Lane == NoLane || S.Nodes[S.Edges[Later].To].Index <= To.Index))
      return false;
    // To's edge from From's lane.
    uint32_t Earlier = NoEdge;
    if (From.Lane != NoLane) {
      Earlier = findEdge(ToSlot, /*In=*/true, FromSlot, From.Lane);
      if (Earlier != NoEdge &&
          S.Nodes[S.Edges[Earlier].From].Index >= From.Index)
        return false;
    }
    if (Later != NoEdge)
      eraseEdge(Later);
    if (Earlier != NoEdge)
      eraseEdge(Earlier);
    appendEdge(FromSlot, ToSlot, K);
    return true;
  }

  /// Splices the node out: every in-neighbor is linked to every
  /// out-neighbor, so reachability among live nodes — and therefore cycle
  /// detection — is preserved exactly. A shortcut cannot create a cycle
  /// (the two-edge path already existed), so no search is needed. The
  /// lane reduction keeps both sides at about one edge per thread, so the
  /// splice is bounded by the thread count squared, not by run length.
  void retire(uint32_t Slot) {
    GNode &N = S.Nodes[Slot];
    S.SpliceFrom.clear();
    S.SpliceTo.clear();
    for (uint32_t E = N.InHead; E != NoEdge; E = S.Edges[E].NextIn)
      S.SpliceFrom.push_back(S.Edges[E].From);
    for (uint32_t E = N.OutHead; E != NoEdge; E = S.Edges[E].NextOut)
      S.SpliceTo.emplace_back(S.Edges[E].To, S.Edges[E].Kind);
    // Detach first so the splice sees clean lists; the rows go back to
    // the pool, all NoEdge again.
    while (N.InHead != NoEdge)
      eraseEdge(N.InHead);
    while (N.OutHead != NoEdge)
      eraseEdge(N.OutHead);
    for (uint32_t *Row : {&N.InRow, &N.OutRow})
      if (*Row != NoRow) {
        S.Rows.give(*Row);
        *Row = NoRow;
      }
    for (uint32_t F : S.SpliceFrom)
      for (const auto &[T, K] : S.SpliceTo)
        if (T != F)
          (void)link(F, T, K);
    S.freeReaders(N.Pending); // Only a corrupted trace leaves any.
    N.Index = NoEvent;
    --S.LiveCount;
    S.FreeSlots.push_back(Slot);
    ++Retired;
  }

  /// Inserts From --K--> To and searches for a return path To ->* From; a
  /// hit is the first po ∪ rf ∪ co ∪ fr cycle, reported at the event that
  /// closed it. An edge po already implies is skipped with its search: a
  /// cycle through it would have closed through the implying path.
  void addEdge(NodeRef From, NodeRef To, EdgeKind K) {
    if (S.GraphDead || From.Index == To.Index)
      return;
    const uint32_t FromSlot = S.slotOf(From);
    const uint32_t ToSlot = S.slotOf(To);
    if (FromSlot == NoSlot || ToSlot == NoSlot ||
        !link(FromSlot, ToSlot, K))
      return;

    ++S.DfsStamp;
    S.Stack.clear();
    S.Stack.push_back({ToSlot, S.Nodes[ToSlot].OutHead, NoEdge});
    S.Nodes[ToSlot].Stamp = S.DfsStamp;
    while (!S.Stack.empty()) {
      GraphState::Frame &F = S.Stack.back();
      if (F.Next == NoEdge) {
        S.Stack.pop_back();
        continue;
      }
      F.Taken = F.Next;
      F.Next = S.Edges[F.Taken].NextOut;
      const uint32_t T = S.Edges[F.Taken].To;
      if (T == FromSlot) {
        foundCycle(FromSlot, K);
        return;
      }
      GNode &TNode = S.Nodes[T];
      if (TNode.Stamp != S.DfsStamp) {
        TNode.Stamp = S.DfsStamp;
        S.Stack.push_back({T, TNode.OutHead, NoEdge});
      }
    }
  }

  /// The DFS stack is the path To ->* From; with the closing edge it is
  /// the witness cycle. Record it (with event copies), pick the decisive
  /// pair the way the post-hoc checker does, and drop the graph — the
  /// verdict is fixed, only the axioms keep running.
  void foundCycle(uint32_t FromSlot, EdgeKind K) {
    R.Sc = false;
    const GNode &From = S.Nodes[FromSlot];
    R.Cycle.emplace_back(From.Index, K);
    R.CycleEvents.push_back(From.Ev);
    for (const GraphState::Frame &F : S.Stack) {
      const GNode &N = S.Nodes[F.Slot];
      R.Cycle.emplace_back(N.Index, S.Edges[F.Taken].Kind);
      R.CycleEvents.push_back(N.Ev);
    }
    // The decisive pair: the first fr edge of the cycle (the read that
    // observed the past), else the first edge.
    size_t Pick = 0;
    for (size_t I = 0; I != R.Cycle.size(); ++I)
      if (R.Cycle[I].second == EdgeKind::Fr) {
        Pick = I;
        break;
      }
    const size_t Next = (Pick + 1) % R.Cycle.size();
    R.ViolatingA = R.Cycle[Pick].first;
    R.ViolatingB = R.Cycle[Next].first;
    R.EventA = R.CycleEvents[Pick];
    R.EventB = R.CycleEvents[Next];
    S.GraphDead = true;
    S.LiveCount = 0;
    S.LastPo.clear();
    S.Stack.clear();
  }

  void po(uint32_t Lane, NodeRef I) {
    if (S.GraphDead)
      return;
    if (Lane >= S.LastPo.size())
      S.LastPo.resize(Lane + 1);
    const NodeRef Prev = S.LastPo[Lane];
    if (Prev.Index == NoEvent) {
      S.LastPo[Lane] = I;
      pin(I, PinPoLast);
      return;
    }
    addEdge(Prev, I, EdgeKind::Po);
    if (S.GraphDead)
      return;
    S.LastPo[Lane] = I;
    pin(I, PinPoLast);
    unpin(Prev, PinPoLast);
  }

  void emitFrOne(NodeRef Reader, NodeRef Target) {
    if (Reader.Index != Target.Index)
      addEdge(Reader, Target, EdgeKind::Fr);
  }

  void emitFr(const ReaderList &Readers, NodeRef Target) {
    for (uint32_t Id = Readers.Head; Id != NoLink; Id = S.Links[Id].Next) {
      emitFrOne(S.Links[Id].Reader, Target);
      if (S.GraphDead)
        return;
    }
  }

  void watch(ReaderList &Readers, NodeRef Reader) {
    S.pushReader(Readers, Reader);
    pin(Reader, PinWatchedReader);
  }

  void releaseReaders(ReaderList &Readers) {
    if (S.GraphDead)
      return;
    for (uint32_t Id = Readers.Head; Id != NoLink; Id = S.Links[Id].Next)
      unpin(S.Links[Id].Reader, PinWatchedReader);
    S.freeReaders(Readers);
  }

  /// Once no store to the address is buffered, every future coherence
  /// insertion lands at the end of the window (store ids are monotonic in
  /// issue order, and a dropped drain inserts only before plain writes
  /// with a *newer* id), so everything before the visible writer retires
  /// and every non-last write's from-read successor is final.
  void pruneCo(CoWindow &L, NodeRef Visible) {
    if (S.GraphDead || L.Co.empty())
      return;
    for (size_t K = 0; K + 1 < L.Co.size(); ++K)
      releaseReaders(L.Co[K].Readers);
    releaseReaders(L.InitReaders);
    size_t VPos = 0;
    for (size_t K = L.Co.size(); K-- != 0;)
      if (L.Co[K].Node.Index == Visible.Index) {
        VPos = K;
        break;
      }
    for (size_t K = 0; K != VPos; ++K)
      unpin(L.Co[K].Node, PinCoWindow);
    L.Co.erase(L.Co.begin(), L.Co.begin() + static_cast<ptrdiff_t>(VPos));
  }

  /// Moves readers registered while a write was buffered onto its window
  /// entry (their pins carry over; their from-read is emitted once the
  /// write has a coherence successor).
  void adoptPendingReaders(CoEnt &E) {
    const uint32_t Slot = S.slotOf(E.Node);
    if (Slot == NoSlot)
      return;
    E.Readers = S.Nodes[Slot].Pending;
    S.Nodes[Slot].Pending = ReaderList();
  }

  /// Appends an applied write (drain/atomic/host write) to the window:
  /// coherence edge from the old last, from-read edges from its watched
  /// readers (their successor just materialised).
  void appendCo(CoWindow &L, NodeRef N, bool Plain, uint64_t Id) {
    if (S.GraphDead)
      return;
    if (!L.Co.empty()) {
      addEdge(L.Co.back().Node, N, EdgeKind::Co);
      if (S.GraphDead)
        return;
      emitFr(L.Co.back().Readers, N);
    } else {
      emitFr(L.InitReaders, N);
    }
    if (S.GraphDead)
      return;
    L.Co.push_back({N, Id, Plain, {}});
    pin(N, PinCoWindow);
    adoptPendingReaders(L.Co.back());
  }

  /// Inserts a coherence-dropped write at its position: immediately
  /// before the earliest plain write with a newer store id, past any
  /// atomics in between — the same backwards scan the post-hoc checker
  /// runs, over the live window (which still contains the true insertion
  /// point: the store was buffered since its issue, so no prune released
  /// it in between).
  void coInsertDropped(CoWindow &L, NodeRef N, uint64_t Id) {
    if (S.GraphDead)
      return;
    size_t Pos = L.Co.size();
    for (size_t K = L.Co.size(); K != 0; --K) {
      const CoEnt &W = L.Co[K - 1];
      if (!W.Plain)
        continue;
      if (W.Id < Id)
        break;
      Pos = K - 1;
    }
    if (Pos != 0) {
      addEdge(L.Co[Pos - 1].Node, N, EdgeKind::Co);
      if (S.GraphDead)
        return;
      // The predecessor's immediate successor changed: its watched
      // readers' from-read now also targets the inserted write.
      emitFr(L.Co[Pos - 1].Readers, N);
    } else {
      // A new window front: initial-state reads read before it.
      emitFr(L.InitReaders, N);
    }
    if (S.GraphDead)
      return;
    if (Pos != L.Co.size()) {
      addEdge(N, L.Co[Pos].Node, EdgeKind::Co);
      if (S.GraphDead)
        return;
    }
    L.Co.insert(L.Co.begin() + static_cast<ptrdiff_t>(Pos),
                {N, Id, true, {}});
    pin(N, PinCoWindow);
    adoptPendingReaders(L.Co[Pos]);
    if (S.GraphDead)
      return;
    // Readers that forwarded from this write get their from-read now that
    // the write has a coherence successor.
    if (Pos + 1 < L.Co.size())
      emitFr(L.Co[Pos].Readers, L.Co[Pos + 1].Node);
  }

  /// Registers a read: its rf edge, its current from-read edge, and — when
  /// the rf write's coherence successor can still change — a watch
  /// registration so every successor change re-emits the from-read.
  void read(NodeRef Reader, CoWindow &L, NodeRef W, bool Buffered) {
    if (S.GraphDead)
      return;
    if (W.Index == NoWriter) {
      // Initial-state read: from-read to the window front; watched while
      // the front can still change (no write yet, or inserts possible).
      if (!L.Co.empty()) {
        emitFrOne(Reader, L.Co.front().Node);
        if (S.GraphDead)
          return;
      }
      if (L.Co.empty() || L.PendingStores != 0)
        watch(L.InitReaders, Reader);
      return;
    }
    addEdge(W, Reader, EdgeKind::Rf);
    if (S.GraphDead)
      return;
    if (Buffered) {
      // The write is still buffered (forward/overlay read): its coherence
      // position is unknown until it drains; watch through the drain. A
      // buffered write is pinned, so it is live on engine traces.
      const uint32_t Slot = S.slotOf(W);
      if (Slot != NoSlot)
        S.pushReader(S.Nodes[Slot].Pending, Reader);
      pin(Reader, PinWatchedReader);
      return;
    }
    // The write is in the window (it is the visible writer).
    size_t Pos = L.Co.size();
    for (size_t K = L.Co.size(); K-- != 0;)
      if (L.Co[K].Node.Index == W.Index) {
        Pos = K;
        break;
      }
    if (Pos == L.Co.size())
      return; // Unreachable on engine traces; harmless on corrupted ones.
    if (Pos + 1 != L.Co.size()) {
      emitFrOne(Reader, L.Co[Pos + 1].Node);
      if (S.GraphDead)
        return;
    }
    if (Pos + 1 == L.Co.size() || L.PendingStores != 0)
      watch(L.Co[Pos].Readers, Reader);
  }
};

} // namespace

/// All incremental state: the shared replay and the live graph it feeds.
struct gpuwmm::model::detail::StreamingCheckerState {
  GraphState GS;
  Replay<Graph> Axioms;
};

StreamingChecker::StreamingChecker()
    : St(std::make_unique<detail::StreamingCheckerState>()) {
  // A cycle has at most one entry per live node.
  R.Cycle.reserve(decltype(GraphState::Nodes)::ChunkSize);
  R.CycleEvents.reserve(decltype(GraphState::Nodes)::ChunkSize);
}
StreamingChecker::~StreamingChecker() = default;

void StreamingChecker::begin() {
  St->GS.clear();
  St->Axioms.clear();
  R.clear();
  Consumed = 0;
  PeakLive = 0;
  Retired = 0;
  EdgeOps = 0;
  PeakDegree = 0;
}

size_t StreamingChecker::liveEvents() const { return St->GS.LiveCount; }

size_t StreamingChecker::peakRows() const { return St->GS.Rows.peak(); }

void StreamingChecker::event(const TraceEvent &E) {
  Graph G{St->GS, R, PeakLive, Retired, EdgeOps, PeakDegree};
  St->Axioms.event(E, Consumed++, G);
}

const StreamVerdict &StreamingChecker::finish() {
  St->Axioms.finish();
  if (!St->Axioms.ok()) {
    const ReplayViolation &V = St->Axioms.violation();
    R.AxiomsOk = false;
    R.AxiomViolation = V.Msg;
    R.ViolatingA = V.A;
    R.ViolatingB = V.B;
    R.EventA = V.EvA;
    R.EventB = V.EvB;
  }
  return R;
}

const StreamVerdict &
StreamingChecker::checkAll(const std::vector<TraceEvent> &Events) {
  begin();
  for (const TraceEvent &E : Events)
    event(E);
  return finish();
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

std::string model::renderStreamExplanation(const StreamVerdict &R,
                                           const AddrNamer &Namer) {
  std::ostringstream OS;
  if (!R.AxiomsOk) {
    OS << "axiom violation: " << R.AxiomViolation << "\n";
    if (R.ViolatingA != static_cast<size_t>(-1))
      OS << "  " << describeEvent(R.EventA, R.ViolatingA, Namer) << "\n";
    if (R.ViolatingB != static_cast<size_t>(-1) &&
        R.ViolatingB != R.ViolatingA)
      OS << "  " << describeEvent(R.EventB, R.ViolatingB, Namer) << "\n";
    return OS.str();
  }
  if (R.Sc) {
    OS << "sequentially consistent: po ∪ rf ∪ co ∪ fr is acyclic\n";
    return OS.str();
  }
  OS << "weak: po ∪ rf ∪ co ∪ fr has a cycle of length " << R.Cycle.size()
     << "\n";
  for (size_t K = 0; K != R.Cycle.size(); ++K) {
    OS << "  " << describeEvent(R.CycleEvents[K], R.Cycle[K].first, Namer)
       << "\n"
       << "    --" << edgeKindName(R.Cycle[K].second) << "--> ";
    if (K + 1 == R.Cycle.size())
      OS << "(back to e" << R.Cycle[0].first << ")";
    OS << "\n";
  }
  return OS.str();
}
