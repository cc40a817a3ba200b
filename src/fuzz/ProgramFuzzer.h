//===- fuzz/ProgramFuzzer.h - Random-program differential fuzzing -*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "fuzzing" half of the paper's title, generalised: generate random
/// two-thread straight-line litmus programs over a handful of shared
/// locations, enumerate their sequentially consistent outcomes
/// exhaustively, and compare against outcomes observed on the weak
/// machine. Fuzz cases are plain litmus::Program values, so a weak one is
/// already the `.litmus` artifact `fuzz --export-weak` writes and `hunt`
/// shrinks.
///
/// Two uses:
///  * Soundness validation of the memory model: with a fence after every
///    access, every outcome the weak machine produces must be
///    SC-reachable (property-tested over hundreds of random programs).
///  * Weak-behaviour fuzzing: without fences, outcomes outside the SC set
///    are genuine weak behaviours; the tuned stress should surface more of
///    them than native execution, on arbitrary programs rather than only
///    the three hand-picked litmus idioms of Sec. 3.1.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_FUZZ_PROGRAMFUZZER_H
#define GPUWMM_FUZZ_PROGRAMFUZZER_H

#include "litmus/Program.h"
#include "sim/ChipProfile.h"
#include "sim/ExecutionContext.h"
#include "sim/Types.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <set>
#include <vector>

namespace gpuwmm {
namespace fuzz {

/// Every fuzz thread's start-phase jitter bound: each thread first sleeps
/// 1 + rand(StartJitter) ticks.
inline constexpr unsigned StartJitter = 8;

/// Generates a random two-thread litmus program: \p OpsPerThread ops per
/// thread over \p NumVars locations v0..vN-1 (zero-initialised), threads
/// in blocks 0 and 1, registers r0.. in load order (thread 0's loads
/// first), PhaseJitter = StartJitter, and no forbidden clause. Stores and
/// adds write distinct non-zero values so outcomes identify their
/// writers. Fences are included only when \p WithFences.
litmus::Program generateProgram(Rng &R, unsigned NumVars,
                                unsigned OpsPerThread, bool WithFences);

/// An observable outcome: every load's value in program order for both
/// threads, followed by the final memory value of every location.
using Outcome = std::vector<sim::Word>;

/// Exhaustively enumerates the outcomes of \p P under sequential
/// consistency (all interleavings of the two threads; fences are no-ops
/// under SC). The number of interleavings is C(n+m, n) — keep programs
/// small (<= ~8 ops per thread). \p P must be fuzzable
/// (fuzz/LitmusBridge.h): its registers and block placement are ignored,
/// loads are observed in program order.
std::set<Outcome> enumerateScOutcomes(const litmus::Program &P);

/// A fuzz program compiled to one flat op stream (sim/BatchExec.h): the
/// variable addresses, load-log writebacks and register slots
/// pre-resolved, plus the baked allocation layout a freshly reset context
/// reproduces (checked per run). Compiled once per program; every run of
/// a fuzz campaign reuses it.
struct CompiledProgram {
  sim::BatchProgram BP;
  unsigned NumVars = 0;
  unsigned MaxLoads = 0; ///< Per-thread log capacity (historical layout).
  unsigned NumLoads[2] = {0, 0};
  sim::Addr Vars = 0, Log0 = 0, Log1 = 0; ///< Baked allocation layout.
};

/// Compiles the fuzzable program \p P for \p Chip (addresses depend on
/// the chip's patch size). Every thread starts with StartJitter jitter,
/// whatever \p P's PhaseJitter says.
CompiledProgram compileProgram(const litmus::Program &P,
                               const sim::ChipProfile &Chip);

/// Executes one run of \p CP on the weak machine and returns the outcome.
/// \p Stressed applies tuned sys-str+ stress to the run. \p Ctx is the
/// reusable execution engine to run on (reset for this run); the engine is
/// sim::runProgram's choice, so --engine=scalar steps the same op stream
/// on the reference engine.
Outcome runOnWeakMachine(sim::ExecutionContext &Ctx, const CompiledProgram &CP,
                         const sim::ChipProfile &Chip, uint64_t Seed,
                         bool Stressed);

/// Result of fuzzing one program for \p Runs executions.
struct FuzzResult {
  unsigned Runs = 0;
  unsigned WeakOutcomes = 0;     ///< Executions outside the SC set.
  unsigned DistinctWeak = 0;     ///< Distinct non-SC outcomes seen.
  unsigned DistinctScSeen = 0;   ///< Distinct SC outcomes seen.
  size_t ScSetSize = 0;
  /// The first non-SC outcome observed — the outcome a `.litmus` export
  /// pins as forbidden (fuzz/LitmusBridge.h). Meaningful only when
  /// WeakOutcomes > 0.
  Outcome FirstWeak;
};

/// Runs \p P repeatedly on the weak machine and classifies outcomes
/// against the exhaustive SC set: compiled once, then one
/// runOnWeakMachine per run at derived seeds.
FuzzResult fuzzProgram(const litmus::Program &P,
                       const sim::ChipProfile &Chip, unsigned Runs,
                       uint64_t Seed, bool Stressed);

/// A fuzzing batch: how many programs to generate and how to fuzz each.
struct BatchConfig {
  unsigned Programs = 20;
  unsigned RunsPerProgram = 40;
  unsigned NumVars = 3;
  unsigned OpsPerThread = 5;
  bool WithFences = false; ///< Generate fences too (soundness property).
  bool Stressed = true;
};

/// One program of a batch, with its classification.
struct BatchEntry {
  litmus::Program P;
  FuzzResult R;
};

/// Generates and fuzzes \p Cfg.Programs random programs. Program I is
/// generated from stream deriveStream(Seed, 2I) and fuzzed with stream
/// deriveStream(Seed, 2I+1), so programs are mutually independent (no
/// generation-order coupling) and the batch distributes over \p Pool with
/// results bit-identical to serial execution, in program order.
std::vector<BatchEntry> fuzzBatch(const sim::ChipProfile &Chip,
                                  const BatchConfig &Cfg, uint64_t Seed,
                                  ThreadPool *Pool = nullptr);

} // namespace fuzz
} // namespace gpuwmm

#endif // GPUWMM_FUZZ_PROGRAMFUZZER_H
