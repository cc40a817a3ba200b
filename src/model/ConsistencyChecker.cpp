//===- model/ConsistencyChecker.cpp - Axiomatic consistency oracle -----------===//
//
// Replays a recorded event trace against the memory model's axioms and
// classifies the execution by acyclicity of po ∪ rf ∪ co ∪ fr. The replay
// never consults the operational simulator: provenance (which write a load
// read) is reconstructed purely from trace order and the load's declared
// source, which is what makes the checker an *independent* oracle.
//
//===----------------------------------------------------------------------===//

#include "model/ConsistencyChecker.h"

#include "model/Replay.h"

#include <algorithm>
#include <sstream>

using namespace gpuwmm;
using namespace gpuwmm::model;
using sim::Addr;
using sim::LoadSource;
using sim::TraceEvent;
using sim::TraceEventKind;

const char *model::edgeKindName(EdgeKind K) {
  switch (K) {
  case EdgeKind::Po: return "po";
  case EdgeKind::Rf: return "rf";
  case EdgeKind::Co: return "co";
  case EdgeKind::Fr: return "fr";
  }
  return "?";
}

void model::addCommunicationEdges(RelationGraph &G,
                                  const std::vector<std::vector<uint32_t>> &Co,
                                  const std::vector<CommRead> &Reads,
                                  std::vector<uint32_t> &CoPos) {
  for (const std::vector<uint32_t> &Order : Co)
    for (uint32_t K = 0; K != Order.size(); ++K) {
      if (CoPos.size() <= Order[K])
        CoPos.resize(Order[K] + 1);
      CoPos[Order[K]] = K;
      if (K + 1 != Order.size())
        G[Order[K]].emplace_back(Order[K + 1], EdgeKind::Co);
    }
  for (const CommRead &Rd : Reads) {
    uint32_t FrTarget = InitWrite;
    if (Rd.RfWrite == InitWrite) {
      if (Rd.Loc < Co.size() && !Co[Rd.Loc].empty())
        FrTarget = Co[Rd.Loc].front();
    } else {
      G[Rd.RfWrite].emplace_back(Rd.Node, EdgeKind::Rf);
      const std::vector<uint32_t> &Order = Co[Rd.Loc];
      const uint32_t K = CoPos[Rd.RfWrite];
      if (K + 1 != Order.size())
        FrTarget = Order[K + 1];
    }
    // An atomic's fr successor of its own read is itself; skip self-loops.
    if (FrTarget != InitWrite && FrTarget != Rd.Node)
      G[Rd.Node].emplace_back(FrTarget, EdgeKind::Fr);
  }
}

bool model::findCycle(const RelationGraph &G, uint32_t N,
                      std::vector<uint8_t> &Color,
                      std::vector<std::pair<size_t, EdgeKind>> *Cycle) {
  // Iterative DFS; a back edge into the stack is a cycle.
  if (Color.size() < N)
    Color.resize(N);
  std::fill(Color.begin(), Color.begin() + N, 0);
  struct Frame {
    uint32_t Node;
    uint32_t Edge;
  };
  std::vector<Frame> Stack;
  for (uint32_t Start = 0; Start != N; ++Start) {
    if (Color[Start] != 0 || G[Start].empty())
      continue;
    Stack.clear();
    Stack.push_back({Start, 0});
    Color[Start] = 1;
    while (!Stack.empty()) {
      Frame &F = Stack.back();
      if (F.Edge == G[F.Node].size()) {
        Color[F.Node] = 2;
        Stack.pop_back();
        continue;
      }
      const uint32_t To = G[F.Node][F.Edge++].first;
      if (Color[To] == 1) {
        // Found: the cycle is the stack suffix starting at To.
        if (Cycle) {
          size_t Base = Stack.size();
          while (Base != 0 && Stack[Base - 1].Node != To)
            --Base;
          --Base;
          for (size_t K = Base; K != Stack.size(); ++K) {
            const Frame &CF = Stack[K];
            Cycle->emplace_back(CF.Node, G[CF.Node][CF.Edge - 1].second);
          }
        }
        return true;
      }
      if (Color[To] == 0) {
        Color[To] = 1;
        Stack.push_back({To, 0});
      }
    }
  }
  return false;
}

namespace {

const char *sourceName(LoadSource S) {
  switch (S) {
  case LoadSource::Memory:            return "memory";
  case LoadSource::Forward:           return "store-buffer forward";
  case LoadSource::Overlay:           return "block overlay";
  case LoadSource::MemorySuperseded:  return "memory (forward superseded)";
  case LoadSource::OverlaySuperseded: return "overlay (forward superseded)";
  }
  return "?";
}

} // namespace

/// The post-hoc causality back end of the replay (model/Replay.h): it
/// collects program order as it goes, and each location's coherence order
/// and every read for the causality pass after the replay. Its containers
/// are recycled across check() calls (clear() keeps vector capacity).
struct ConsistencyChecker::PostHocGraph {
  /// A location's coherence order: its slot in CoOrders, assigned on first
  /// use.
  struct Loc {
    uint32_t Co = InitWrite;
    void clear() { Co = InitWrite; }
  };

  const std::vector<TraceEvent> *Events = nullptr;
  RelationGraph *Edges = nullptr;
  /// Each lane's latest program-order point (InitWrite: none yet).
  std::vector<uint32_t> LastPo;
  /// Per-location coherence orders: the first NumCo slots are in use, the
  /// rest are empty (kept for their capacity).
  std::vector<std::vector<uint32_t>> CoOrders;
  uint32_t NumCo = 0;
  std::vector<CommRead> CommReads;
  std::vector<uint32_t> CoPos;

  void clear() {
    LastPo.clear();
    for (uint32_t K = 0; K != NumCo; ++K)
      CoOrders[K].clear();
    NumCo = 0;
    CommReads.clear();
  }

  uint32_t coIndex(Loc &L) {
    if (L.Co == InitWrite) {
      L.Co = NumCo++;
      if (L.Co == CoOrders.size())
        CoOrders.emplace_back();
    }
    return L.Co;
  }

  static uint32_t idx(NodeRef N) {
    return N.Index == NoWriter ? InitWrite : static_cast<uint32_t>(N.Index);
  }

  void po(uint32_t Lane, NodeRef I) {
    if (Lane >= LastPo.size())
      LastPo.resize(Lane + 1, InitWrite);
    if (LastPo[Lane] != InitWrite)
      (*Edges)[LastPo[Lane]].emplace_back(idx(I), EdgeKind::Po);
    LastPo[Lane] = idx(I);
  }

  void read(NodeRef R, Loc &L, NodeRef W, bool /*Buffered*/) {
    CommReads.push_back({idx(R), idx(W), coIndex(L)});
  }

  void coAppend(Loc &L, NodeRef W, bool /*Plain*/, uint64_t /*Id*/,
                NodeRef /*OldVisible*/) {
    CoOrders[coIndex(L)].push_back(idx(W));
  }

  /// A coherence-dropped write never became visible, but it still has a
  /// coherence position: immediately before the earliest plain write with
  /// a newer store id (the one whose application made this drain stale),
  /// past any atomics in between — the final value and every atomic's
  /// read agree with that order. Plain writes stay in increasing id order,
  /// so the scan back from the end stops at the first plain write older
  /// than this one (atomics carry no id and are stepped over).
  void coInsertDropped(Loc &L, NodeRef W, uint64_t Id) {
    std::vector<uint32_t> &Order = CoOrders[coIndex(L)];
    size_t Pos = Order.size();
    for (size_t K = Order.size(); K != 0; --K) {
      const TraceEvent &Prev = (*Events)[Order[K - 1]];
      if (Prev.Kind != TraceEventKind::StoreIssue &&
          Prev.Kind != TraceEventKind::HostWrite)
        continue;
      if (Prev.Id < Id)
        break;
      Pos = K - 1;
    }
    Order.insert(Order.begin() + static_cast<ptrdiff_t>(Pos), idx(W));
  }

  // Node handles, pending work and window bookkeeping only the streaming
  // graph keeps: nodes are event indices here.
  uint32_t node(uint64_t, const TraceEvent &, uint32_t) { return NoHandle; }
  void buffered(NodeRef, Loc &) {}
  void asyncIssued(NodeRef) {}
  void drained(Loc &, NodeRef, NodeRef) {}
  void asyncBound(NodeRef) {}
  void written(Loc &, NodeRef) {}
};

struct ConsistencyChecker::State {
  PostHocGraph Graph;
  Replay<PostHocGraph> Axioms;
};

ConsistencyChecker::ConsistencyChecker() : St(std::make_unique<State>()) {}
ConsistencyChecker::~ConsistencyChecker() = default;

CheckResult ConsistencyChecker::check(const std::vector<TraceEvent> &Events) {
  // Recycled across check() calls: shrink candidates and sampled campaign
  // runs check traces by the thousands on one instance.
  State &S = *St;
  PostHocGraph &G = S.Graph;
  const uint32_t N = static_cast<uint32_t>(Events.size());
  if (Edges.size() < N)
    Edges.resize(N);
  for (uint32_t I = 0; I != N; ++I)
    Edges[I].clear();
  G.clear();
  G.Events = &Events;
  G.Edges = &Edges;
  S.Axioms.clear();

  // --- Replay pass: axioms, program order, provenance ----------------------
  for (uint32_t I = 0; I != N && S.Axioms.ok(); ++I)
    S.Axioms.event(Events[I], I, G);
  S.Axioms.finish();
  CheckResult R;
  if (!S.Axioms.ok()) {
    const ReplayViolation &V = S.Axioms.violation();
    R.AxiomsOk = false;
    R.AxiomViolation = V.Msg;
    R.ViolatingA = V.A;
    R.ViolatingB = V.B;
    return R;
  }

  // --- Causality pass: acyclicity of po ∪ rf ∪ co ∪ fr ---------------------
  addCommunicationEdges(Edges, G.CoOrders, G.CommReads, G.CoPos);
  R.Sc = !findCycle(Edges, N, Color, &R.Cycle);
  if (!R.Sc && !R.Cycle.empty()) {
    // The decisive pair: the first fr edge of the cycle (the read that
    // observed the past), else the first edge.
    size_t Pick = 0;
    for (size_t K = 0; K != R.Cycle.size(); ++K)
      if (R.Cycle[K].second == EdgeKind::Fr) {
        Pick = K;
        break;
      }
    R.ViolatingA = R.Cycle[Pick].first;
    R.ViolatingB = R.Cycle[(Pick + 1) % R.Cycle.size()].first;
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

std::string model::describeEvent(const TraceEvent &E, size_t I,
                                 const AddrNamer &Namer) {
  std::ostringstream OS;
  const auto Name = [&](Addr A) {
    if (Namer)
      return Namer(A);
    // Built without operator+ to dodge GCC 12's -Wrestrict false positive.
    std::string S = "a";
    S += std::to_string(A);
    return S;
  };
  OS << "[e" << I << " t" << E.Tid << " tick " << E.Tick << "] "
     << traceEventKindName(E.Kind);
  switch (E.Kind) {
  case TraceEventKind::StoreIssue:
  case TraceEventKind::StoreDrain:
  case TraceEventKind::StorePromote:
  case TraceEventKind::HostWrite:
    OS << " " << Name(E.A) << " = " << E.V << " (id " << E.Id << ")";
    if (E.Kind == TraceEventKind::StoreDrain && !E.Flag)
      OS << " [coherence-dropped]";
    break;
  case TraceEventKind::LoadBind:
    OS << " " << Name(E.A) << " = " << E.V << " (from " << sourceName(E.Source)
       << ")";
    break;
  case TraceEventKind::AsyncIssue:
    OS << " " << Name(E.A) << " (ticket " << E.Id << ")";
    break;
  case TraceEventKind::AsyncBind:
    OS << " " << Name(E.A) << " = " << E.V << " (ticket " << E.Id << ")";
    break;
  case TraceEventKind::Atomic:
    OS << " " << Name(E.A) << ": " << E.Id << " -> " << E.V
       << (E.Flag ? "" : " [read-only]");
    break;
  case TraceEventKind::FenceDevice:
  case TraceEventKind::FenceBlock:
    break;
  case TraceEventKind::BarrierRelease:
    OS << " block " << E.Block;
    break;
  }
  return OS.str();
}

std::string model::describeEvent(const std::vector<TraceEvent> &Events,
                                 size_t I, const AddrNamer &Namer) {
  if (I >= Events.size())
    return "<no event>";
  return describeEvent(Events[I], I, Namer);
}

std::string model::renderExplanation(const std::vector<TraceEvent> &Events,
                                     const CheckResult &R,
                                     const AddrNamer &Namer) {
  std::ostringstream OS;
  if (!R.AxiomsOk) {
    OS << "axiom violation: " << R.AxiomViolation << "\n";
    if (R.ViolatingA != static_cast<size_t>(-1))
      OS << "  " << describeEvent(Events, R.ViolatingA, Namer) << "\n";
    if (R.ViolatingB != static_cast<size_t>(-1) &&
        R.ViolatingB != R.ViolatingA)
      OS << "  " << describeEvent(Events, R.ViolatingB, Namer) << "\n";
    return OS.str();
  }
  if (R.Sc) {
    OS << "sequentially consistent: po ∪ rf ∪ co ∪ fr is acyclic\n";
    return OS.str();
  }
  OS << "weak: po ∪ rf ∪ co ∪ fr has a cycle of length " << R.Cycle.size()
     << "\n";
  for (size_t K = 0; K != R.Cycle.size(); ++K) {
    OS << "  " << describeEvent(Events, R.Cycle[K].first, Namer) << "\n"
       << "    --" << edgeKindName(R.Cycle[K].second) << "--> ";
    if (K + 1 == R.Cycle.size())
      OS << "(back to e" << R.Cycle[0].first << ")";
    OS << "\n";
  }
  return OS.str();
}
