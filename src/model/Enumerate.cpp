//===- model/Enumerate.cpp - Axiomatic execution enumerator -------------------===//
//
// Depth-first over coherence orders (location by location, each order
// checked against the location's pinned final value and its pinned loads'
// values before going deeper), then over the reads-from choices of the
// plain loads, judging every complete candidate with the checkers' own
// relation builder and cycle search.
//
//===----------------------------------------------------------------------===//

#include "model/Enumerate.h"

#include "model/ConsistencyChecker.h"

#include <algorithm>
#include <utility>
#include <vector>

using namespace gpuwmm;
using namespace gpuwmm::model;
using litmus::CondAtom;
using litmus::ProgOp;
using litmus::Program;
using sim::Word;

const char *model::reachName(Reach R) {
  switch (R) {
  case Reach::Unreachable: return "unreachable";
  case Reach::ScOnly:      return "sc-only";
  case Reach::NonSc:       return "non-sc";
  case Reach::Unknown:     return "unknown";
  }
  return "?";
}

namespace {

bool satisfies(const std::vector<CondAtom> &Atoms, Word V) {
  for (const CondAtom &A : Atoms)
    if ((V == A.Value) == A.Negated)
      return false;
  return true;
}

class Search {
public:
  Search(const Program &P, uint64_t Cap, bool FindSc)
      : P(P), Cap(Cap), FindSc(FindSc) {
    const size_t NumLocs = P.Locations.size();
    Writes.resize(NumLocs);
    Co.resize(NumLocs);
    MemAtoms.resize(NumLocs);
    std::vector<std::vector<CondAtom>> RegAtoms(P.Registers.size());
    for (const CondAtom &A : P.Forbidden)
      (A.IsReg ? RegAtoms : MemAtoms)[A.Index].push_back(A);

    // One node per access, thread by thread in program order; po links
    // each access to the next one of its thread, po-loc to the next one of
    // its thread at the same location.
    for (unsigned TI = 0; TI != P.Threads.size(); ++TI) {
      const litmus::ProgThread &T = P.Threads[TI];
      uint32_t Prev = InitWrite;
      std::vector<uint32_t> PrevAt(NumLocs, InitWrite);
      for (const ProgOp &O : T.Ops) {
        const bool Load =
            O.K == ProgOp::Kind::Load || O.K == ProgOp::Kind::AsyncLoad;
        const bool Write =
            O.K == ProgOp::Kind::Store || O.K == ProgOp::Kind::AtomicAdd;
        CheckCoherence = CheckCoherence && O.K != ProgOp::Kind::AsyncLoad;
        if (!Load && !Write)
          continue;
        const auto Node = static_cast<uint32_t>(Loc.size());
        if (Prev != InitWrite)
          Po.emplace_back(Prev, Node);
        if (PrevAt[O.Loc] != InitWrite)
          PoLoc.emplace_back(PrevAt[O.Loc], Node);
        Prev = PrevAt[O.Loc] = Node;
        Thread.push_back(TI);
        Loc.push_back(O.Loc);
        Atomic.push_back(O.K == ProgOp::Kind::AtomicAdd);
        Imm.push_back(O.Value);
        if (Write)
          Writes[O.Loc].push_back(Node);
        if (Load)
          Reads.push_back({Node, RegAtoms[O.Reg], {}});
      }
    }
    N = static_cast<uint32_t>(Loc.size());
    Value.resize(N);
    CoPos.resize(N);
    Chains.resize(NumLocs);
    Cursor.resize(NumLocs);
    for (unsigned L = 0; L != NumLocs; ++L) {
      for (uint32_t W : Writes[L]) {
        const bool Extend = CheckCoherence && !Chains[L].empty() &&
                            Thread[Chains[L].back().back()] == Thread[W];
        if (Extend)
          Chains[L].back().push_back(W);
        else
          Chains[L].push_back({W});
      }
      Cursor[L].resize(Chains[L].size());
    }
    Rf.resize(Reads.size());
    G.resize(N);
  }

  Enumeration run() {
    Enumeration E;
    // An empty clause is never shown (Program::evalForbidden).
    if (P.Forbidden.empty()) {
      E.Answer = Reach::Unreachable;
      return E;
    }
    chooseCo(0);
    E.Candidates = Candidates;
    E.Answer = NonScSeen   ? Reach::NonSc
               : CapPassed ? Reach::Unknown
               : ScSeen    ? Reach::ScOnly
                           : Reach::Unreachable;
    E.ScReachable = ScSeen;
    return E;
  }

private:
  struct Read {
    uint32_t Node;
    std::vector<CondAtom> Atoms; ///< Its register's pinned values.
    std::vector<uint32_t> Sources; ///< Writes it may read (InitWrite too).
  };

  /// Counts one candidate; false once the cap is passed.
  bool count() {
    if (++Candidates <= Cap)
      return true;
    CapPassed = true;
    return false;
  }

  /// Tries every coherence order of location \p L whose final value and
  /// read values fit the forbidden clause; true once the search stops.
  bool chooseCo(unsigned L) {
    if (L == Writes.size())
      return chooseRf(0);
    Co[L].resize(Writes[L].size());
    std::fill(Cursor[L].begin(), Cursor[L].end(), 0);
    return extendCo(L, 0, P.Init[L]);
  }

  /// Places the \p K-th write of \p L's order, after a write that left
  /// \p V, by taking the next write of each chain in turn: the orders
  /// are the interleavings of Chains[L] (each thread's writes in program
  /// order under coherence, which forbids the rest (CoWW); otherwise one
  /// chain per write, so every permutation).
  bool extendCo(unsigned L, size_t K, Word V) {
    std::vector<uint32_t> &Order = Co[L];
    if (K == Order.size()) {
      if (!count())
        return true;
      if (!satisfies(MemAtoms[L], V) || !bindReads(L))
        return false;
      return chooseCo(L + 1);
    }
    const std::vector<std::vector<uint32_t>> &Chains = this->Chains[L];
    for (size_t C = 0; C != Chains.size(); ++C) {
      size_t &Next = Cursor[L][C];
      if (Next == Chains[C].size())
        continue;
      const uint32_t W = Order[K] = Chains[C][Next++];
      Value[W] = Atomic[W] ? V + Imm[W] : Imm[W];
      const bool Stop = extendCo(L, K + 1, Value[W]);
      --Next;
      if (Stop)
        return true;
    }
    return false;
  }

  /// Fills the candidate sources of \p L's loads under its current order;
  /// false when some pinned load has none. Under coherence a load reads
  /// neither a po-later write of its thread (CoRW) nor a write co-before
  /// a po-earlier one (CoWR), so those sources are skipped too.
  bool bindReads(unsigned L) {
    const std::vector<uint32_t> &Order = Co[L];
    for (uint32_t K = 0; K != Order.size(); ++K)
      CoPos[Order[K]] = K;
    for (Read &Rd : Reads) {
      if (Loc[Rd.Node] != L)
        continue;
      // The co position the load must read at or after: its thread's
      // latest po-earlier write here (-1 = none, the initial state ok).
      int64_t MinPos = -1;
      if (CheckCoherence)
        for (uint32_t W : Writes[L])
          if (Thread[W] == Thread[Rd.Node] && W < Rd.Node)
            MinPos = std::max<int64_t>(MinPos, CoPos[W]);
      Rd.Sources.clear();
      if (MinPos < 0 && satisfies(Rd.Atoms, P.Init[L]))
        Rd.Sources.push_back(InitWrite);
      for (uint32_t W : Writes[L]) {
        if (CheckCoherence &&
            ((Thread[W] == Thread[Rd.Node] && W > Rd.Node) ||
             CoPos[W] < MinPos))
          continue;
        if (satisfies(Rd.Atoms, Value[W]))
          Rd.Sources.push_back(W);
      }
      if (Rd.Sources.empty())
        return false;
    }
    return true;
  }

  bool chooseRf(size_t I) {
    if (I == Reads.size())
      return judge();
    for (uint32_t W : Reads[I].Sources) {
      Rf[I] = W;
      if (chooseRf(I + 1))
        return true;
    }
    return false;
  }

  /// Judges the complete candidate: true (stop) when it is the first
  /// coherent non-SC one (with FindSc: once both kinds have been seen), or
  /// the cap is passed.
  bool judge() {
    if (!count())
      return true;
    CommReads.clear();
    for (size_t K = 0; K != Reads.size(); ++K)
      CommReads.push_back({Reads[K].Node, Rf[K], Loc[Reads[K].Node]});
    for (const std::vector<uint32_t> &Order : Co)
      for (size_t K = 0; K != Order.size(); ++K)
        if (Atomic[Order[K]])
          CommReads.push_back(
              {Order[K], K == 0 ? InitWrite : Order[K - 1], Loc[Order[K]]});
    if (CheckCoherence && hasCycle(PoLoc))
      return false; // Incoherent: no run of the program executes it.
    if (hasCycle(Po))
      NonScSeen = true;
    else
      ScSeen = true;
    return NonScSeen && (!FindSc || ScSeen);
  }

  /// Whether \p Order ∪ rf ∪ co ∪ fr has a cycle under the current
  /// candidate (\p Order: po or po-loc).
  bool hasCycle(const std::vector<std::pair<uint32_t, uint32_t>> &Order) {
    for (uint32_t K = 0; K != N; ++K)
      G[K].clear();
    for (const auto &[From, To] : Order)
      G[From].emplace_back(To, EdgeKind::Po);
    addCommunicationEdges(G, Co, CommReads, CoPos);
    return findCycle(G, N, Color, nullptr);
  }

  const Program &P;
  const uint64_t Cap;
  const bool FindSc; ///< Search on past the first non-SC candidate.
  uint32_t N = 0;
  // Per access node.
  std::vector<unsigned> Thread;
  std::vector<unsigned> Loc;
  std::vector<bool> Atomic;
  std::vector<Word> Imm;   ///< Store value or atomic addend.
  std::vector<Word> Value; ///< Written value under the current orders.
  std::vector<std::pair<uint32_t, uint32_t>> Po;    ///< (from, to) edges.
  std::vector<std::pair<uint32_t, uint32_t>> PoLoc; ///< Same location.
  /// Candidates must be coherent (SC per location). Every run of a
  /// program without split-phase loads is (DESIGN.md Sec. 20); a
  /// split-phase load binds after later loads and past its own thread's
  /// buffered stores, so such programs skip the requirement.
  bool CheckCoherence = true;
  // Per location.
  std::vector<std::vector<uint32_t>> Writes; ///< In node order.
  std::vector<std::vector<uint32_t>> Co;     ///< Current order.
  std::vector<std::vector<CondAtom>> MemAtoms;
  /// The write sequences each co order interleaves (see extendCo), and
  /// how far the order being built has taken each.
  std::vector<std::vector<std::vector<uint32_t>>> Chains;
  std::vector<std::vector<size_t>> Cursor;
  // Per plain load (Load/AsyncLoad), in node order.
  std::vector<Read> Reads;
  std::vector<uint32_t> Rf;
  // Judging scratch.
  RelationGraph G;
  std::vector<CommRead> CommReads;
  std::vector<uint32_t> CoPos;
  std::vector<uint8_t> Color;

  uint64_t Candidates = 0;
  bool ScSeen = false;
  bool NonScSeen = false;
  bool CapPassed = false;
};

} // namespace

Enumeration model::enumerateForbidden(const Program &P, uint64_t Cap,
                                      bool FindSc) {
  return Search(P, Cap, FindSc).run();
}
