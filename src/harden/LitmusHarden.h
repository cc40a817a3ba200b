//===- harden/LitmusHarden.h - Alg. 1 over litmus programs ------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Empirical fence insertion (the paper's Alg. 1, harden/FenceInsertion.h)
/// applied to litmus::Program tests instead of application case studies —
/// the hardening stage of the `gpuwmm hunt` pipeline. Fence sites are the
/// positions after every memory access of every thread; the oracle runs
/// the fenced candidate under the tuned stress at the region that provoked
/// the weak outcome, with the streaming consistency checker attached, and
/// asks for every run to be SC — not merely for the program's pinned
/// forbidden outcome to vanish, so the kept fence set restores sequential
/// consistency rather than hiding one symptom.
///
/// Two materialisations of the resulting fence set:
///  * applyLitmusFences bakes real `fence` ops in (the program the oracle
///    verifies), and
///  * annotateOptFences inserts `fence?` (OptFence) ops — the replayable
///    corpus artifact: run plain it reproduces the weak outcome, run with
///    --fences it is the hardened variant.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_HARDEN_LITMUSHARDEN_H
#define GPUWMM_HARDEN_LITMUSHARDEN_H

#include "harden/FenceInsertion.h"
#include "litmus/Program.h"
#include "sim/ChipProfile.h"
#include "sim/FencePolicy.h"

#include <cstdint>
#include <vector>

namespace gpuwmm {
namespace harden {

/// One fence site of a litmus program: the position directly after the
/// access at \p Op of thread \p Thread. Sites are numbered thread-major
/// in op order — the id order binaryReduction halves over.
struct LitmusFenceSite {
  unsigned Thread = 0;
  size_t Op = 0;
};

/// The fence sites of \p P: one after every Store, Load, AwaitLoad (where
/// a split-phase load completes) and AtomicAdd. Existing Fence/OptFence
/// ops and AsyncLoad issues get no site.
std::vector<LitmusFenceSite> litmusFenceSites(const litmus::Program &P);

/// \p P with a real `fence` op inserted after every site \p F enables.
litmus::Program applyLitmusFences(const litmus::Program &P,
                                  const sim::FencePolicy &F);

/// \p P with a `fence?` (OptFence) op inserted after every site \p F
/// enables — the corpus artifact form.
litmus::Program annotateOptFences(const litmus::Program &P,
                                  const sim::FencePolicy &F);

/// \p P with every OptFence op removed (the inverse of annotateOptFences
/// for programs whose plain ops carry the weak behaviour).
litmus::Program stripOptFences(const litmus::Program &P);

/// Steers hardenLitmusProgram.
struct LitmusHardenOptions {
  /// Instance distance (use the distance the case was provoked at).
  unsigned Distance = 0;
  /// Alg. 1's initial per-check iteration count I.
  unsigned CheckRuns = 32;
  /// Run budget of the empirical stability check.
  unsigned StableRuns = 300;
  uint64_t Seed = 1;
  /// Run candidates under tuned stress at \p StressRegion (the region
  /// that provoked the weak outcome); when false candidates run
  /// unstressed.
  bool Stressed = true;
  unsigned StressRegion = 0;
};

/// Outcome of hardening one litmus program.
struct LitmusHardenResult {
  litmus::Program Hardened;  ///< \p P with the kept fences baked in.
  litmus::Program Annotated; ///< \p P with `fence?` at the kept sites.
  sim::FencePolicy Fences;   ///< The kept (empirically minimal) set.
  InsertionResult Insertion; ///< Alg. 1 accounting (rounds, stability).
  unsigned NumSites = 0;     ///< Total instrumentable sites.
  uint64_t Executions = 0;   ///< Litmus executions consumed.
};

/// Runs EMPIRICALFENCEINSERTION over \p P's fence sites: starting fully
/// fenced, reduce to a set whose absence the testing environment cannot
/// distinguish from fully fenced (zero checker-weak runs per check),
/// doubling iterations until empirically stable. The K-th check draws its
/// seeds from stream deriveStream(Seed, K), so the result is
/// deterministic and independent of --jobs and --engine. \p P must
/// validate.
LitmusHardenResult hardenLitmusProgram(const litmus::Program &P,
                                       const sim::ChipProfile &Chip,
                                       const LitmusHardenOptions &Opts);

} // namespace harden
} // namespace gpuwmm

#endif // GPUWMM_HARDEN_LITMUSHARDEN_H
