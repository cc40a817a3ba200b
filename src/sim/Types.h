//===- sim/Types.h - Basic simulator types ----------------------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Basic types shared by the GPU simulator: words, addresses, scheduling
/// options and run statistics.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_SIM_TYPES_H
#define GPUWMM_SIM_TYPES_H

#include <cstdint>

namespace gpuwmm {
namespace sim {

/// All simulated memory is 32-bit words; addresses are word indices into the
/// device's single global address space.
using Word = uint32_t;
using Addr = uint32_t;

/// Number of threads in a warp (as in CUDA).
inline constexpr unsigned WarpSize = 32;

/// Scheduler/launch options, shared by both engines.
struct SchedulerConfig {
  /// Thread randomisation (paper Sec. 3.5): shuffles block placement and
  /// adds warp-priority jitter while respecting warp/block membership.
  bool RandomiseThreads = false;
  /// Warps each SM may issue per tick.
  unsigned IssueWidthPerSM = 2;
  /// Tick budget; exceeding it reports RunStatus::Timeout (the analogue of
  /// the paper's 30-second wall-clock timeout).
  uint64_t MaxTicks = 400000;
};

/// Memory-operation counters accumulated over a kernel execution.
struct MemStats {
  uint64_t Loads = 0;
  uint64_t Stores = 0;
  uint64_t Atomics = 0;
  uint64_t DeviceFences = 0;
  uint64_t BlockFences = 0;
  uint64_t DrainedStores = 0;
  uint64_t AsyncLoads = 0;
  uint64_t ForcedSelfDrains = 0;

  uint64_t totalAccesses() const { return Loads + Stores + Atomics; }
};

/// How a simulated kernel execution ended.
enum class RunStatus {
  Completed,        ///< All threads ran to completion.
  Timeout,          ///< Tick budget exceeded (cf. the paper's 30s timeout).
  BarrierDivergence,///< Barrier executed under divergence (UB in CUDA).
  Deadlock          ///< No thread could ever make progress again.
};

/// Result of one kernel execution.
struct RunResult {
  RunStatus Status = RunStatus::Completed;
  uint64_t Ticks = 0;
  MemStats Mem;

  bool completed() const { return Status == RunStatus::Completed; }
};

} // namespace sim
} // namespace gpuwmm

#endif // GPUWMM_SIM_TYPES_H
