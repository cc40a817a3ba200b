//===- litmus/Litmus.h - GPU litmus tests -----------------------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The litmus runner: executes litmus::Program tests on the simulated GPU,
/// parameterised by the distance between their communication locations
/// (test instances T_d, Sec. 3.1), under configurable memory stress — the
/// micro-benchmark machinery behind the paper's entire Sec. 3 tuning
/// pipeline.
///
/// Tests are data (litmus/Program.h): the runner compiles any program —
/// a built-in catalog entry, a parsed `.litmus` file, or an exported fuzz
/// case — to one op stream and runs it through sim::runProgram; catalog
/// programs execute bit-identically to the original hand-written kernels.
/// A test instance T_d is a (program, distance) pair. Communication
/// locations are placed in global memory with the communicating threads
/// in distinct blocks by default, matching the paper's focus on
/// inter-block idioms.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_LITMUS_LITMUS_H
#define GPUWMM_LITMUS_LITMUS_H

#include "litmus/Program.h"
#include "sim/BatchExec.h"
#include "sim/ChipProfile.h"
#include "sim/ExecutionContext.h"
#include "stress/AccessSequence.h"
#include "stress/StressSources.h"
#include "support/Rng.h"

#include <cstdint>
#include <vector>

namespace gpuwmm {
namespace litmus {

/// Per-execution litmus options.
struct LitmusRunOpts {
  bool WithFences = false; ///< Fence between each thread's two ops.
  bool Sequential = false; ///< SC reference mode (no weak behaviour).
  bool Randomise = false;  ///< Thread randomisation.
  /// Record the run's memory events (sim/TraceSink.h) for the axiomatic
  /// checker / --explain; read them back via LitmusRunner::trace().
  /// Tracing is pure observation: results are bit-identical either way.
  bool Trace = false;
  /// Streaming sink: feed the run's events to an external incremental
  /// consumer (e.g. model::StreamingChecker) instead of recording them.
  /// The caller brackets the run with the consumer's begin()/finish().
  /// Takes precedence over \ref Trace; equally pure observation.
  sim::TraceSink *Sink = nullptr;
};

/// Executes litmus instances under micro-benchmark stress configurations
/// (⟨T_d, σ@L⟩ in the paper's notation).
class LitmusRunner {
public:
  /// Micro-benchmark stress: the access sequence σ applied at explicit
  /// scratchpad word offsets, by a random population of stressing threads
  /// occupying 50-100% of the chip (paper Sec. 3.2).
  struct MicroStress {
    bool Enabled = false;
    stress::AccessSequence Seq;
    std::vector<unsigned> ScratchOffsets;
    double OccupancyLo = 0.5;
    double OccupancyHi = 1.0;

    /// No stress at all.
    static MicroStress none() { return {}; }

    /// σ applied at a single scratchpad offset (⟨T_d, σ@l⟩).
    static MicroStress at(stress::AccessSequence Seq, unsigned Offset) {
      MicroStress S;
      S.Enabled = true;
      S.Seq = Seq;
      S.ScratchOffsets = {Offset};
      return S;
    }

    /// The paper's tuned stress for \p Chip (its Tab. 2 sequence) at the
    /// start of patch \p Region, taken modulo the chip's bank count: the
    /// per-bank stress locations `litmus --stress` scans.
    static MicroStress tuned(const sim::ChipProfile &Chip, unsigned Region);

    /// σ applied at several offsets simultaneously (⟨T_d, σ@Lm⟩).
    static MicroStress atAll(stress::AccessSequence Seq,
                             std::vector<unsigned> Offsets) {
      MicroStress S;
      S.Enabled = true;
      S.Seq = Seq;
      S.ScratchOffsets = std::move(Offsets);
      return S;
    }
  };

  /// Per-execution options (see LitmusRunOpts).
  using RunOpts = LitmusRunOpts;

  /// A runner leases one recycled ExecutionContext from its thread's pool
  /// and reuses it for every execution, so tuning sweeps that perform
  /// thousands of runOnce calls allocate nothing per run in steady state.
  /// Use the runner on the thread that constructed it.
  LitmusRunner(const sim::ChipProfile &Chip, uint64_t Seed)
      : Chip(Chip), Master(Seed), Stress(Chip) {}

  /// Executes \p P once with its communication locations \p Distance
  /// words apart; returns true iff the program's forbidden outcome was
  /// observed. \p P must satisfy Program::validate() (checked whenever the
  /// runner compiles a new plan, in every build type) and must not be
  /// mutated between executions on one runner (the runner caches a
  /// per-(program, distance) execution plan keyed by identity, so sweeps
  /// allocate nothing per run in steady state).
  ///
  /// Equivalent to countWeak(P, Distance, S, 1, Opts) != 0. Every run
  /// executes the plan's op stream through sim::runProgram, so the engine
  /// is chosen only by --engine: the compiled engine unless the mode is
  /// scalar, which steps the same stream on the reference engine.
  /// Both emit identical results and event streams (DESIGN.md Sec. 17).
  bool runOnce(const Program &P, unsigned Distance, const MicroStress &S,
               const RunOpts &Opts = RunOpts());

  /// Executes \p P \p C times; returns the number of weak behaviours.
  /// Bit-identical, run for run, to a \ref runOnce loop on the same
  /// runner; the runner's one stress source is re-targeted at each call's
  /// scratchpad, with only the per-run stressing population redrawn. When
  /// \p PerRun is non-null it receives each run's weak verdict in
  /// execution order (0/1).
  unsigned countWeak(const Program &P, unsigned Distance,
                     const MicroStress &S, unsigned C,
                     const RunOpts &Opts = RunOpts(),
                     std::vector<uint8_t> *PerRun = nullptr);

  /// Total executions performed by this runner (tuning-cost reporting).
  uint64_t executions() const { return Execs; }

  /// The events the most recent execution recorded (empty unless it ran
  /// with RunOpts::Trace), on either engine. Valid until the next
  /// execution.
  const sim::EventTrace &trace() const { return Ctx.get().trace(); }

  /// Names an address of the most recent execution for explanations: a
  /// program location name, "wb(reg)" for a register writeback slot, or a
  /// raw "a<N>" for anything else (stress scratchpad words).
  std::string addrName(sim::Addr A) const;

private:
  /// The compiled form: the flat pre-resolved op stream plus the address
  /// layout the per-run allocations are guaranteed to produce (allocation
  /// on a freshly reset context is a deterministic patch-aligned bump from
  /// zero, so addresses are bakeable at plan-build time and checked
  /// against the real allocs per run).
  struct CompiledPlan {
    const Program *P = nullptr;
    unsigned Distance = 0;
    bool Fenced = false;
    unsigned Delta = 1;
    unsigned NumLocs = 0;
    unsigned NumRegs = 0;
    sim::Addr Base = 0;        ///< Location block (loc L at Base+L*Delta).
    sim::Addr Results = 0;     ///< Register writeback block.
    sim::Addr ScratchBase = 0; ///< Stress scratchpad (when stressed).
    std::vector<std::pair<sim::Addr, sim::Word>> InitWrites;
    sim::BatchProgram BP;
  };

  const CompiledPlan &compiledPlan(const Program &P, unsigned Distance,
                                   bool Fenced);
  /// One execution of \p B on the engine sim::runProgram picks; a stressed
  /// run uses \ref Stress, which countWeak targeted at \p S.
  bool runCompiled(const CompiledPlan &B, const MicroStress &S,
                   const RunOpts &Opts);
  /// Records the program and layout addrName describes.
  void noteLayout(const Program &P, sim::Addr Base, unsigned Delta,
                  sim::Addr Results);

  const sim::ChipProfile &Chip;
  Rng Master;
  sim::ContextLease Ctx; ///< Recycled engine state, reused every run.
  uint64_t Execs = 0;
  CompiledPlan Compiled;
  // Per-run scratch, recycled across runs.
  const Program *LastProgram = nullptr; ///< Most recent run (addrName).
  std::vector<sim::Addr> LocAddr;
  std::vector<sim::Word> FinalRegs, FinalMem;
  sim::Addr ResultsBase = 0; ///< Writeback allocation (addrName).
  /// The stress source of every stressed run, re-targeted per countWeak
  /// call.
  stress::SysStress Stress;
};

} // namespace litmus
} // namespace gpuwmm

#endif // GPUWMM_LITMUS_LITMUS_H
