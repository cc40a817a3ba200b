//===- model/ConsistencyChecker.h - Axiomatic consistency oracle -*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A herd-style axiomatic checker over recorded executions: validates the
/// event trace a run emitted (sim/TraceSink.h) against the memory model's
/// axioms, and classifies the execution as sequentially consistent or weak
/// (DESIGN.md Sec. 14).
///
/// The checker is a differential oracle for the operational simulator. The
/// operational model *produces* behaviours by mechanism (store buffers,
/// drain lotteries, split-phase loads); the checker *judges* the recorded
/// behaviour against declarative axioms, with no access to the mechanism:
///
///  * Replay axioms — the forward replay of model/Replay.h, which the
///    streaming checker (model/StreamingChecker.h) runs too: coherence per
///    location, same-bank FIFO, fence-drain, self-coherence/forwarding,
///    same-bank issue order and read-value validity.
///
///  * Causality — the execution's communication relations (program order,
///    reads-from, per-location coherence order, and from-reads) must be
///    acyclic for the run to be explainable by any sequential interleaving
///    (Shasha-Snir); a cycle is reported as the violating event chain, the
///    explanation `gpuwmm litmus --explain` prints for a weak outcome.
///    This checker's back end builds the whole graph after the replay and
///    searches it once: it is the reference the streaming checker's live
///    graph is tested against.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_MODEL_CONSISTENCYCHECKER_H
#define GPUWMM_MODEL_CONSISTENCYCHECKER_H

#include "sim/TraceSink.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace gpuwmm {
namespace model {

/// The edge sorts of the causality relation.
enum class EdgeKind : uint8_t {
  Po, ///< Program order (same thread, issue order).
  Rf, ///< Reads-from (write to the read that bound its value).
  Co, ///< Coherence (per-location order in which writes took effect).
  Fr  ///< From-read (read to a write coherence-after the one it read).
};

const char *edgeKindName(EdgeKind K);

/// A po ∪ rf ∪ co ∪ fr graph: out-edges by node index.
using RelationGraph = std::vector<std::vector<std::pair<uint32_t, EdgeKind>>>;

/// The rf source of a read of the initial state (no write node).
inline constexpr uint32_t InitWrite = static_cast<uint32_t>(-1);

/// One read of an execution, for \ref addCommunicationEdges: its
/// program-order node, the write it read from (\ref InitWrite for the
/// initial state), and the index of its location's coherence order
/// (\ref InitWrite for a location nothing wrote).
struct CommRead {
  uint32_t Node;
  uint32_t RfWrite;
  uint32_t Loc;
};

/// Adds the communication relations of one execution to \p G: co between
/// consecutive writes of each per-location order in \p Co, rf from each
/// read's source, and fr from each read to its source's co successor (an
/// initial-state read to its order's front; an atomic's fr to itself is
/// skipped). \p CoPos is scratch. The checker (over a replayed trace) and
/// the enumerator (over candidate executions, model/Enumerate.h) both
/// build their graphs here, so they judge an execution by the same
/// relations.
void addCommunicationEdges(RelationGraph &G,
                           const std::vector<std::vector<uint32_t>> &Co,
                           const std::vector<CommRead> &Reads,
                           std::vector<uint32_t> &CoPos);

/// Depth-first search of \p G's first \p N nodes, roots in index order;
/// true iff it has a cycle. With \p Cycle non-null, the first cycle found
/// is stored as (node, edge to the next entry), closing from the last
/// entry back to the first. \p Color is scratch.
bool findCycle(const RelationGraph &G, uint32_t N, std::vector<uint8_t> &Color,
               std::vector<std::pair<size_t, EdgeKind>> *Cycle);

/// Verdict over one recorded execution.
struct CheckResult {
  /// Every replay axiom held. A violation here is a simulator bug (or a
  /// hand-built trace that no execution could have produced), never a weak
  /// behaviour.
  bool AxiomsOk = true;
  std::string AxiomViolation; ///< First violated axiom (empty when ok).

  /// The violating event pair: for an axiom violation, the two events that
  /// contradict each other; for a weak execution, the endpoints of the
  /// decisive edge of the cycle. SIZE_MAX when unset.
  size_t ViolatingA = static_cast<size_t>(-1);
  size_t ViolatingB = static_cast<size_t>(-1);

  /// True iff the communication relations are acyclic, i.e. the run is
  /// explainable by a sequential interleaving. Only meaningful when
  /// \ref AxiomsOk.
  bool Sc = true;

  /// The cycle witnessing a weak execution: (event index, edge to the next
  /// entry), closing from the last entry back to the first. Empty when SC.
  std::vector<std::pair<size_t, EdgeKind>> Cycle;

  bool weak() const { return AxiomsOk && !Sc; }
};

/// Validates and classifies recorded executions. The checker recycles its
/// working containers (replay maps, causality graph) across \ref check
/// calls — clear() keeps hash buckets and vector capacity — so checking a
/// run per sampled campaign cell or per shrink candidate stops allocating
/// once the containers have grown to the workload's size.
class ConsistencyChecker {
public:
  ConsistencyChecker();
  ~ConsistencyChecker();
  ConsistencyChecker(const ConsistencyChecker &) = delete;
  ConsistencyChecker &operator=(const ConsistencyChecker &) = delete;

  /// Checks one recorded execution. The events must form one run's
  /// complete trace (reset to reset): the final-state axioms (everything
  /// drained) anchor on the trace end.
  CheckResult check(const std::vector<sim::TraceEvent> &Events);
  CheckResult check(const sim::EventTrace &Trace) {
    return check(Trace.events());
  }

  /// The po ∪ rf ∪ co ∪ fr out-edges of the last check()'s events, by event
  /// index. Built only when that check's axioms held; entries past its
  /// event count are stale. Read-only, for auditing another checker's
  /// witness against the full trace.
  const RelationGraph &edges() const { return Edges; }

private:
  struct PostHocGraph; ///< The causality back end (in the .cpp).
  struct State;        ///< Recycled replay and back-end containers.
  std::unique_ptr<State> St;
  // Recycled causality-graph storage (adjacency lists per event index).
  RelationGraph Edges;
  std::vector<uint8_t> Color;
};

/// Names an address for human-readable explanations (a litmus location,
/// a register writeback slot, ...). Null-constructed = raw addresses.
using AddrNamer = std::function<std::string(sim::Addr)>;

/// One event, rendered: "[e4 t1 tick 12] store-issue y = 1 (id 3)". The
/// index is display-only (the "e4"); the event itself may come from a
/// trace or from a streaming verdict's retained copy.
std::string describeEvent(const sim::TraceEvent &E, size_t I,
                          const AddrNamer &Namer = nullptr);
std::string describeEvent(const std::vector<sim::TraceEvent> &Events,
                          size_t I, const AddrNamer &Namer = nullptr);

/// The whole verdict, rendered: the axiom violation pair, the cycle chain
/// behind a weak classification, or the SC statement.
std::string renderExplanation(const std::vector<sim::TraceEvent> &Events,
                              const CheckResult &R,
                              const AddrNamer &Namer = nullptr);

} // namespace model
} // namespace gpuwmm

#endif // GPUWMM_MODEL_CONSISTENCYCHECKER_H
