//===- sim/TraceSink.h - Memory-event trace instrumentation ----*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observer seam through which the simulator reports every semantically
/// meaningful memory event: store issue, buffer drain, load bind, async
/// issue/completion, atomics, fence drains, block-fence promotions, barrier
/// releases and host writes (DESIGN.md Sec. 14).
///
/// The seam is zero-overhead when off: MemorySystem and Scheduler hold a
/// single nullable TraceSink pointer and every notification site is guarded
/// by one pointer test. No event is constructed, no allocation happens, and
/// the simulation's RNG is never consulted, so results are bit-identical
/// whether tracing is enabled or not (an extension of the determinism
/// contract, DESIGN.md Sec. 11/12).
///
/// EventTrace is the standard sink: a recycled in-memory recorder owned by
/// an ExecutionContext. Its backing vector keeps its capacity across
/// \ref EventTrace::clear calls, so steady-state traced runs on a reused
/// context allocate nothing (DESIGN.md Sec. 12). The recorded event list is
/// what the axiomatic consistency checker (model/ConsistencyChecker.h)
/// validates and classifies.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_SIM_TRACESINK_H
#define GPUWMM_SIM_TRACESINK_H

#include "sim/Types.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gpuwmm {
namespace sim {

/// The taxonomy of traced memory events (DESIGN.md Sec. 14).
enum class TraceEventKind : uint8_t {
  StoreIssue,     ///< A plain store entered its per-thread-per-bank FIFO.
  StoreDrain,     ///< A buffered store reached globally visible memory.
  LoadBind,       ///< A plain load bound its value.
  AsyncIssue,     ///< A split-phase load was issued (its program-order point).
  AsyncBind,      ///< A split-phase load completed and bound its value.
  Atomic,         ///< An atomic read-modify-write acted on visible memory.
  FenceDevice,    ///< A device-scope fence completed (drains emitted before).
  FenceBlock,     ///< A block-scope fence completed (promotions before).
  StorePromote,   ///< A buffered store became block-visible (overlay).
  BarrierRelease, ///< A block barrier released (block-level consistency).
  HostWrite       ///< The host wrote memory between kernels (init state).
};

inline const char *traceEventKindName(TraceEventKind K) {
  switch (K) {
  case TraceEventKind::StoreIssue:     return "store-issue";
  case TraceEventKind::StoreDrain:     return "store-drain";
  case TraceEventKind::LoadBind:       return "load-bind";
  case TraceEventKind::AsyncIssue:     return "async-issue";
  case TraceEventKind::AsyncBind:      return "async-bind";
  case TraceEventKind::Atomic:         return "atomic";
  case TraceEventKind::FenceDevice:    return "fence-device";
  case TraceEventKind::FenceBlock:     return "fence-block";
  case TraceEventKind::StorePromote:   return "store-promote";
  case TraceEventKind::BarrierRelease: return "barrier-release";
  case TraceEventKind::HostWrite:      return "host-write";
  }
  return "unknown";
}

/// Where a bound load value came from. The "superseded" variants cover the
/// per-location-coherence corner in which the thread's newest buffered
/// store to the address exists but a write ordered after it already
/// reached global memory (or the block overlay), so forwarding would read
/// backwards in the coherence order.
enum class LoadSource : uint8_t {
  Memory,            ///< Globally visible memory.
  Forward,           ///< The thread's own newest buffered store (same addr).
  Overlay,           ///< A block-visible promoted value.
  MemorySuperseded,  ///< Buffered store exists, memory already newer.
  OverlaySuperseded  ///< Buffered store exists, overlay already newer.
};

/// One recorded memory event. A flat POD: unused fields are zero.
struct TraceEvent {
  TraceEventKind Kind = TraceEventKind::StoreIssue;
  LoadSource Source = LoadSource::Memory; ///< LoadBind only.
  /// StoreDrain: the write survived per-location coherence (a drain whose
  /// store id is older than the address's newest write is dropped).
  /// Atomic: the operation wrote (a failed CAS reads only).
  bool Flag = false;
  unsigned Tid = 0;   ///< Issuing thread (except HostWrite/BarrierRelease).
  unsigned Block = 0; ///< Issuing block / promoted-to / released block.
  unsigned Bank = 0;  ///< Bank of A (stores, loads, atomics).
  Addr A = 0;
  Word V = 0;         ///< Stored / bound / new value.
  /// StoreIssue/StoreDrain/StorePromote/HostWrite: the store id (the
  /// per-location coherence order). AsyncIssue/AsyncBind: the ticket.
  /// Atomic: the old (read) value.
  uint64_t Id = 0;
  uint64_t Tick = 0;  ///< Simulator tick at emission.

  bool operator==(const TraceEvent &) const = default;
};

/// Receiver of trace events. Implementations must not touch the simulator
/// they observe (the seam is strictly one-way) and must not throw.
class TraceSink {
public:
  virtual ~TraceSink() = default;
  virtual void event(const TraceEvent &E) = 0;
};

/// The recycled in-memory recorder (owned by an ExecutionContext).
/// \ref clear keeps the backing capacity, so steady-state traced runs on a
/// reused context perform no allocation.
class EventTrace final : public TraceSink {
public:
  void event(const TraceEvent &E) override { Events.push_back(E); }

  const std::vector<TraceEvent> &events() const { return Events; }
  size_t size() const { return Events.size(); }
  bool empty() const { return Events.empty(); }
  /// Backing capacity (steady-state allocation-freedom diagnostics).
  size_t capacity() const { return Events.capacity(); }

  /// Forgets all events, keeping the backing allocation.
  void clear() { Events.clear(); }

private:
  std::vector<TraceEvent> Events;
};

} // namespace sim
} // namespace gpuwmm

#endif // GPUWMM_SIM_TRACESINK_H
