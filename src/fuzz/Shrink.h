//===- fuzz/Shrink.h - Delta-debugging reduction of weak cases --*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Delta-debugging shrinker for weak litmus cases (`gpuwmm fuzz --shrink`
/// and the `gpuwmm hunt` pipeline): given a program whose forbidden clause
/// pins a weak outcome (typically a `.litmus` file exported by
/// `fuzz --export-weak`), repeatedly remove instructions — or whole
/// threads — while the reduced program still provokes that same forbidden
/// outcome *as a genuinely weak behaviour*.
///
/// Every accepted reduction is double-checked: the provoking run's event
/// trace is judged by BOTH the streaming checker (model/StreamingChecker.h)
/// and the post-hoc checker (model/ConsistencyChecker.h), and any verdict
/// disagreement aborts the reduction with ShrinkResult::OracleError — a
/// silent oracle divergence must never decide which programs enter a hunt
/// corpus. Before simulating a candidate, the shrinker asks the axiomatic
/// enumerator (model/Enumerate.h) whether any non-SC execution can show
/// its forbidden outcome; a candidate it rules out cannot be judged weak
/// by either checker, so it is rejected without a run.
///
/// Instructions whose result register appears in the forbidden clause are
/// never removed (they define the outcome being pinned); split-phase
/// issue/await pairs are removed as one unit; a whole thread is removable
/// when none of its registers are pinned (this is what lets multi-thread
/// catalog-style cases like IRIW/ISA2/WRC reduce).
///
/// canonicalizeProgram / canonicalKey give shrunk cases a canonical form:
/// blocks, locations, registers and (where sound) data values are renamed
/// into a scan-order normal form, so two isomorphic weak cases found from
/// different fuzz seeds print identically — the corpus dedupe key of
/// `gpuwmm hunt`.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_FUZZ_SHRINK_H
#define GPUWMM_FUZZ_SHRINK_H

#include "litmus/Program.h"
#include "sim/ChipProfile.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gpuwmm {
namespace fuzz {

/// Steers the reduction's reproduction attempts.
struct ShrinkOptions {
  /// Instance distance between communication locations (0 = contiguous);
  /// use the distance the case was provoked at.
  unsigned Distance = 0;
  /// Executions per stress location before a candidate counts as "does
  /// not reproduce". Higher = slower but less over-eager shrinking.
  unsigned RunsPerAttempt = 200;
  uint64_t Seed = 1;
  /// Scan tuned per-bank stress locations (as `litmus --stress` does);
  /// when false candidates run unstressed.
  bool Stressed = true;
  /// Record every accepted intermediate program in ShrinkResult::Steps
  /// (the shrinker property tests re-verify each one independently).
  bool RecordSteps = false;
};

/// Outcome of a reduction.
struct ShrinkResult {
  litmus::Program Reduced; ///< The original when !Reproduced.
  /// The *original* program provoked its forbidden outcome as a weak
  /// (checker-confirmed non-SC) behaviour; when false nothing was shrunk.
  bool Reproduced = false;
  unsigned OriginalOps = 0; ///< Instructions before reduction.
  unsigned ReducedOps = 0;  ///< Instructions after reduction.
  unsigned Candidates = 0;  ///< Candidate programs evaluated.
  unsigned Accepted = 0;    ///< Reductions that kept the weak outcome.
  /// Programs (the original included) the enumerator ruled out without a
  /// run.
  unsigned RuledOut = 0;
  /// The tuned stress bank region that last provoked the weak outcome —
  /// the region `gpuwmm hunt` hardens and verifies under.
  unsigned ProvokingRegion = 0;
  /// Litmus executions simulated during the reduction.
  uint64_t LitmusRuns = 0;
  /// Streaming-vs-post-hoc verdict comparisons performed (one per
  /// forbidden-outcome run consulted during the reduction).
  uint64_t CrossChecks = 0;
  /// Non-empty iff the streaming and post-hoc checkers ever disagreed on
  /// a consulted run — a hard failure: the reduction stops immediately
  /// and the result must not be trusted.
  std::string OracleError;
  /// Accepted intermediate programs, oldest first, ending with Reduced
  /// (only populated when ShrinkOptions::RecordSteps).
  std::vector<litmus::Program> Steps;
};

/// Greedily minimises \p P under "still provokes the forbidden outcome,
/// and the axiomatic checkers agree that run is weak". Deterministic for
/// a given (program, chip, options) tuple.
ShrinkResult shrinkWeakProgram(const litmus::Program &P,
                               const sim::ChipProfile &Chip,
                               const ShrinkOptions &Opts);

/// One reduction pass's candidates for \p P, in the order the shrinker
/// tries them: \p P minus one removable unit (a whole thread first, then
/// single ops and split-phase pairs), keeping only programs that
/// validate. The shrinker accepts the first that still reproduces, then
/// starts a new pass from it.
std::vector<litmus::Program> shrinkCandidates(const litmus::Program &P);

/// Whether \p P provokes its forbidden outcome as a checker-confirmed
/// weak behaviour within \p Opts' attempt budget: the simulated half of
/// the shrinker's acceptance test, exposed for property tests. It always
/// simulates (never consults the enumerator), so it is what the
/// enumerator's soundness is tested against. A streaming/post-hoc
/// disagreement reports false and sets \p OracleError when non-null.
bool reproducesWeakProgram(const litmus::Program &P,
                           const sim::ChipProfile &Chip,
                           const ShrinkOptions &Opts,
                           std::string *OracleError = nullptr);

/// The canonical form behind hunt-corpus dedupe: blocks renumbered by
/// first appearance, locations renamed v0.. in scan order (dropping any
/// that neither ops nor the forbidden clause reference), registers
/// renamed r0.. in definition order, per-location data values renumbered
/// into a small normal range where that is a sound isomorphism (skipped
/// for locations touched by atomics or referenced with unmappable
/// values), and the forbidden conjunction sorted and deduplicated.
/// Idempotent: canonicalizeProgram(canonicalizeProgram(P)) ==
/// canonicalizeProgram(P). Name, Doc and PhaseJitter are preserved.
litmus::Program canonicalizeProgram(const litmus::Program &P);

/// The canonical printed form of \p P with a neutral name and no doc
/// comment — equal for any two isomorphic programs (canonical corpus
/// key; hash it with crc32 for compact record fields).
std::string canonicalKey(const litmus::Program &P);

} // namespace fuzz
} // namespace gpuwmm

#endif // GPUWMM_FUZZ_SHRINK_H
