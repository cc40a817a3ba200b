//===- sim/Device.h - Simulated GPU facade ----------------------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point to the simulated GPU. A Device bundles one chip
/// profile, its weak memory system, a deterministic RNG, and kernel-launch
/// facilities, and exposes the runtime/energy model used by the paper's
/// Sec. 6 cost study.
///
/// A Device is a thin facade over an ExecutionContext, which owns all
/// heavyweight simulator state. Kernels are compiled programs
/// (sim/BatchExec.h): one op range per launched thread. The
/// one-argument-pair constructor leases a recycled context from the
/// current thread's pool, so even the classic
///
/// \code
///   sim::Device Dev(*sim::ChipProfile::lookup("titan"), Seed);
///   const sim::Addr Buf = Dev.alloc(64);
///   sim::BatchProgram BP; // GridDim 2 x BlockDim 32: Buf[Tid] = 1.
///   BP.GridDim = 2;
///   BP.BlockDim = 32;
///   for (uint32_t Tid = 0; Tid != 64; ++Tid) {
///     BP.Ops.push_back({sim::BatchOp::Code::Store, 0, 0, Buf + Tid, 1});
///     BP.Lanes.push_back({Tid, Tid + 1});
///   }
///   Dev.run(BP);
/// \endcode
///
/// performs no per-run container allocation in steady state. Hot loops that
/// want explicit control bind their own context:
///
/// \code
///   sim::ExecutionContext Ctx;
///   for (uint64_t Seed : Seeds) {
///     sim::Device Dev(Ctx, Chip, Seed); // resets Ctx in O(touched)
///     ...
///   }
/// \endcode
///
/// Results are bit-identical between the two forms (DESIGN.md Sec. 12).
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_SIM_DEVICE_H
#define GPUWMM_SIM_DEVICE_H

#include "sim/BatchExec.h"
#include "sim/ChipProfile.h"
#include "sim/Congestion.h"
#include "sim/ExecutionContext.h"
#include "sim/FencePolicy.h"
#include "sim/MemorySystem.h"
#include "sim/Types.h"
#include "support/Rng.h"

namespace gpuwmm {
namespace sim {

/// Energy estimate for a device's kernel executions.
struct EnergyEstimate {
  double Joules = 0.0;
  /// False on chips without power instrumentation (the paper can only
  /// query power via NVML on K5200, Titan, K20 and C2075).
  bool Valid = false;
};

/// One simulated GPU: memory, scheduler and models. Create one Device per
/// application execution; kernel launches on the same Device share memory
/// (with full synchronisation at kernel boundaries, as in CUDA).
class Device {
public:
  /// One-shot form: leases a recycled ExecutionContext from the current
  /// thread's pool (allocation-free in steady state).
  Device(const ChipProfile &Chip, uint64_t Seed)
      : Chip(Chip), Lease(), Ctx(Lease.get()) {
    Ctx.reset(Chip, Seed);
  }

  /// Reuse form: binds to \p Ctx, resetting it for this execution. The
  /// context must outlive the Device and must not be shared with another
  /// live Device.
  Device(ExecutionContext &Ctx, const ChipProfile &Chip, uint64_t Seed)
      : Chip(Chip), Lease(nullptr), Ctx(Ctx) {
    Ctx.reset(Chip, Seed);
  }

  Device(const Device &) = delete;
  Device &operator=(const Device &) = delete;

  // --- Configuration (set before launching) --------------------------------

  /// Sequentially consistent reference mode (no weak behaviours).
  void setSequentialMode(bool SC) { memory().setSequentialMode(SC); }

  /// Installs the stressing strategy's contention source (not owned).
  void setCongestionSource(const CongestionSource *S) {
    memory().setCongestionSource(S);
  }

  /// Installs the per-site fence policy (not owned; null = no fences).
  /// Apps compile it into their plans (apps/AppCompile.h); a program
  /// launched through run() bakes in its own fences.
  void setFencePolicy(const FencePolicy *P) { Policy = P; }

  const FencePolicy *fencePolicy() const { return Policy; }

  /// Thread randomisation (paper Sec. 3.5).
  void setRandomiseThreads(bool Enabled) { Sched.RandomiseThreads = Enabled; }

  /// Tick budget per kernel launch (timeout detection).
  void setMaxTicks(uint64_t Ticks) { Sched.MaxTicks = Ticks; }

  // --- Memory ----------------------------------------------------------------

  /// Allocates zeroed global memory (patch-aligned, as real allocators
  /// align to large boundaries).
  Addr alloc(unsigned Words) { return memory().alloc(Words); }

  Word read(Addr A) const { return Ctx.memory().hostRead(A); }
  void write(Addr A, Word V) { memory().hostWrite(A, V); }

  // --- Execution ---------------------------------------------------------------

  /// Launches and runs one compiled program (sim/BatchExec.h) to
  /// completion through runProgram: the compiled engine, or the reference
  /// engine (the Scheduler) under --engine=scalar. Scheduling follows this
  /// Device's configuration; the program bakes in its own fences (apps
  /// compile theirs for fencePolicy()), so the policy is not applied
  /// again. Registers start at zero. Successive launches share memory and
  /// accumulate time and energy (multi-kernel applications).
  RunResult run(const BatchProgram &BP) {
    std::vector<Word> &Regs = Ctx.batchScratch().Regs;
    Regs.assign(BP.NumSlots, 0);
    return account(runProgram(BP, Ctx, Chip, Regs.data(), Sched));
  }

  /// Status of the most recent launch.
  RunStatus lastStatus() const { return LastStatus; }

  // --- Timing & energy model -----------------------------------------------

  /// Total simulated kernel time across launches. One scheduler tick
  /// stands for ~1000 device clock cycles of a real kernel iteration, so
  /// runtimes land in the paper's millisecond range.
  double runtimeMs() const {
    const double TickMicros = 1.0 / Chip.ClockGHz;
    return static_cast<double>(TotalTicks) * TickMicros * 1e-3;
  }

  /// Energy model: static board power over the kernel runtime plus
  /// per-operation dynamic energy. Stands in for the paper's NVML polling;
  /// invalid on chips without power query support, as in the paper.
  EnergyEstimate energy() const {
    EnergyEstimate E;
    E.Valid = Chip.SupportsPowerQuery;
    const MemStats &M = memStats();
    const double DynamicJ = (static_cast<double>(M.Loads) * 2.0 +
                             static_cast<double>(M.Stores) * 2.5 +
                             static_cast<double>(M.Atomics) * 8.0 +
                             static_cast<double>(M.DeviceFences) * 15.0 +
                             static_cast<double>(M.DrainedStores) * 1.0) *
                            1e-6;
    E.Joules = Chip.BoardPowerW * runtimeMs() * 1e-3 + DynamicJ;
    return E;
  }

  uint64_t totalTicks() const { return TotalTicks; }
  const MemStats &memStats() const { return Ctx.memory().stats(); }

  const ChipProfile &chip() const { return Chip; }
  Rng &rng() { return Ctx.rng(); }
  MemorySystem &memory() { return Ctx.memory(); }
  ExecutionContext &context() { return Ctx; }

private:
  RunResult account(const RunResult &Result) {
    TotalTicks += Result.Ticks;
    LastStatus = Result.Status;
    return Result;
  }

  const ChipProfile &Chip;
  ContextLease Lease; ///< Empty when an external context is bound.
  ExecutionContext &Ctx;
  SchedulerConfig Sched;
  const FencePolicy *Policy = nullptr;
  uint64_t TotalTicks = 0;
  RunStatus LastStatus = RunStatus::Completed;
};

} // namespace sim
} // namespace gpuwmm

#endif // GPUWMM_SIM_DEVICE_H
