//===- model/StreamingChecker.h - Online consistency oracle -----*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The streaming (online) consistency oracle: the axiomatic checker
/// reworked as an incremental TraceSink consumer (DESIGN.md Sec. 15).
///
/// Where model/ConsistencyChecker.h replays a *completed* EventTrace, a
/// StreamingChecker plugs directly into the simulator's trace seam
/// (sim/TraceSink.h) and judges the run while it executes:
///
///  * The replay axioms (coherence-per-location, same-bank FIFO,
///    fence-drain, self-coherence/forwarding, same-bank issue order,
///    read-value) are model/Replay.h's forward replay, the one the
///    post-hoc checker runs too; fed event by event, it stops at the
///    first violation, with the same message and the same violating event
///    indices as the post-hoc checker.
///
///  * The causality relation po ∪ rf ∪ co ∪ fr is maintained as a live
///    graph with incremental cycle detection: each edge insertion searches
///    for a return path, so a weak execution is flagged at the exact event
///    that closed the first cycle rather than after the run.
///
///  * Events are *retired* once no future edge can reach them (DESIGN.md
///    Sec. 15's retirement rule): program order pins only each thread's
///    latest event, coherence pins only the active per-address window
///    (the suffix a future drain could still splice into), and reads stay
///    only while their from-read target can still change. Retirement
///    splices transitive shortcut edges through the removed node, so
///    reachability among live events — and therefore cycle detection — is
///    exact. Memory is bounded by the active frontier (pending stores,
///    pending split-phase loads, per-thread po heads, per-address
///    coherence windows), not by run length.
///
///  * No edge program order already implies is stored, so every live node
///    keeps at most one edge per thread in each direction (plus one per
///    live host write) and a retirement splice costs at most the thread
///    count squared, however long the run (DESIGN.md Sec. 15). A list past
///    8 edges gets a dense row from lane to edge, so finding a node's edge
///    to a thread hashes nothing.
///
///  * Nothing on the per-event path hashes: the replay keeps each node's
///    slot handle and hands it back with every fact, and per-run state
///    (replay records, graph slabs, reader lists, the verdict) is
///    recycled by \ref begin, so a steady stream of checked litmus runs
///    allocates nothing (DESIGN.md Sec. 15, "Storage").
///
/// The live graph is this checker's own causality back end; the post-hoc
/// checker's whole-trace graph remains its reference: both consume
/// identical event streams, so every streaming verdict is differentially
/// testable (tests/StreamingCheckerTests.cpp). The retirement rule relies
/// on one engine invariant: store ids (including host writes) are drawn
/// from a single counter, so they are monotonic in issue order across the
/// whole run.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_MODEL_STREAMINGCHECKER_H
#define GPUWMM_MODEL_STREAMINGCHECKER_H

#include "model/ConsistencyChecker.h"
#include "sim/TraceSink.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace gpuwmm {
namespace model {

namespace detail {
struct StreamingCheckerState; ///< All incremental state (in the .cpp).
} // namespace detail

/// Verdict of one streamed run. Field meanings match \ref CheckResult;
/// because the checker keeps no trace, the events behind the verdict are
/// retained as copies so explanations render without the run's trace.
struct StreamVerdict {
  bool AxiomsOk = true;
  std::string AxiomViolation; ///< First violated axiom (empty when ok).

  /// The violating event pair, as global trace indices (SIZE_MAX unset):
  /// identical to the post-hoc checker's for an axiom violation; for a
  /// weak run, the endpoints of the decisive edge of the detected cycle.
  size_t ViolatingA = static_cast<size_t>(-1);
  size_t ViolatingB = static_cast<size_t>(-1);
  sim::TraceEvent EventA, EventB; ///< Copies (valid when the index is set).

  /// True iff no po ∪ rf ∪ co ∪ fr cycle was detected. Only meaningful
  /// when \ref AxiomsOk.
  bool Sc = true;

  /// The first detected cycle: (event index, edge kind to the next
  /// entry), closing back to the first. The specific cycle may differ
  /// from the post-hoc checker's (search order differs); its existence
  /// never does.
  std::vector<std::pair<size_t, EdgeKind>> Cycle;
  std::vector<sim::TraceEvent> CycleEvents; ///< Copies, parallel to Cycle.

  bool weak() const { return AxiomsOk && !Sc; }

  /// Resets to a fresh verdict, keeping the string's and vectors' storage.
  void clear() {
    AxiomsOk = true;
    AxiomViolation.clear();
    ViolatingA = ViolatingB = static_cast<size_t>(-1);
    EventA = EventB = sim::TraceEvent();
    Sc = true;
    Cycle.clear();
    CycleEvents.clear();
  }
};

/// The incremental consistency oracle. Attach it as a run's trace sink
/// (ExecutionContext::requestStreaming or LitmusRunOpts::Sink), bracketed
/// by \ref begin and \ref finish; or feed a recorded trace via
/// \ref checkAll. One instance is reusable: begin() keeps container
/// capacity (the graph's only up to litmus size), so steady-state checked
/// litmus runs allocate nothing.
class StreamingChecker final : public sim::TraceSink {
public:
  StreamingChecker();
  ~StreamingChecker() override;
  StreamingChecker(const StreamingChecker &) = delete;
  StreamingChecker &operator=(const StreamingChecker &) = delete;

  /// Starts a fresh run: clears all per-run state (keeping capacity) and
  /// the diagnostics counters' per-run portion.
  void begin();

  /// Consumes one event (the TraceSink hook). Pure observation: never
  /// touches the simulator, never throws. After the verdict is decided
  /// (axiom violation) the remaining events are skipped; after a cycle is
  /// found the graph is dropped and only the axioms keep running.
  void event(const sim::TraceEvent &E) override;

  /// Ends the run: applies the end-of-run axioms (everything drained at
  /// the kernel-boundary) and returns the verdict. Valid until the next
  /// begin().
  const StreamVerdict &finish();

  /// Convenience: begin() + event() per element + finish() over a
  /// recorded trace (differential and mutation tests).
  const StreamVerdict &checkAll(const std::vector<sim::TraceEvent> &Events);
  const StreamVerdict &checkAll(const sim::EventTrace &Trace) {
    return checkAll(Trace.events());
  }

  /// The verdict of the last finished run.
  const StreamVerdict &verdict() const { return R; }

  // --- Frontier diagnostics (bounded-memory property tests) ---------------

  /// Events consumed since begin().
  uint64_t consumedEvents() const { return Consumed; }
  /// Graph nodes currently retained.
  size_t liveEvents() const;
  /// High-water mark of retained graph nodes since begin().
  size_t peakLiveEvents() const { return PeakLive; }
  /// Nodes retired (spliced out of the live graph) since begin().
  uint64_t retiredEvents() const { return Retired; }

  // --- Work counters (deterministic cost of the live graph) ---------------

  /// Edges inserted plus edges erased in the live graph since begin(), by
  /// edge insertion and by retirement splices: the checker's work.
  uint64_t edgeOps() const { return EdgeOps; }
  /// High-water mark of any live node's in- or out-degree since begin().
  /// The per-lane reduction bounds it by the thread count plus the live
  /// host-write nodes.
  size_t peakDegree() const { return PeakDegree; }
  /// High-water mark of adjacency rows in use since begin(): the lists
  /// past 8 edges indexed at once (litmus-sized graphs never index one).
  size_t peakRows() const;

private:
  std::unique_ptr<detail::StreamingCheckerState> St;
  StreamVerdict R;
  uint64_t Consumed = 0;
  size_t PeakLive = 0;
  uint64_t Retired = 0;
  uint64_t EdgeOps = 0;
  size_t PeakDegree = 0;
};

/// Renders a streaming verdict in the same format as
/// \ref renderExplanation, from the verdict's retained event copies (the
/// trace itself was never stored).
std::string renderStreamExplanation(const StreamVerdict &R,
                                    const AddrNamer &Namer = nullptr);

} // namespace model
} // namespace gpuwmm

#endif // GPUWMM_MODEL_STREAMINGCHECKER_H
