//===- tuning/SequenceTuner.h - Access-sequence ranking ---------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements the paper's Sec. 3.3: rank all 63 access sequences
/// σ ∈ (ld|st)^{0..5} by the number of weak behaviours they provoke in
/// ⟨T_d, σ@l⟩ instances, summed over distances and patch-aligned stress
/// locations; then pick the Pareto-optimal sequence over the three tuning
/// idioms (MP/LB/SB by default) with the paper's two-of-three tie-break.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_TUNING_SEQUENCETUNER_H
#define GPUWMM_TUNING_SEQUENCETUNER_H

#include "litmus/Litmus.h"
#include "stress/AccessSequence.h"
#include "support/ThreadPool.h"
#include "tuning/Pareto.h"

#include <vector>

namespace gpuwmm {
namespace tuning {

/// One sequence's scores over the three litmus tests.
struct SequenceScore {
  stress::AccessSequence Seq;
  Objectives Scores = {0, 0, 0}; ///< MP, LB, SB order.

  uint64_t total() const { return Scores[0] + Scores[1] + Scores[2]; }
};

/// Ranks access sequences for one chip.
class SequenceTuner {
public:
  struct Config {
    unsigned NumLocations = 256; ///< L; stress at the first word of each
                                 ///< critical-patch-sized region within L.
    unsigned Executions = 30;    ///< C per (test, d, location, sequence).
    /// Distances to sum over; when empty, multiples of the patch size
    /// {P, 2P, 3P, 7P/2} are used.
    std::vector<unsigned> Distances;
    /// The three tuning idioms (Fig. 2 by default; any catalog trio).
    std::array<const litmus::Program *, 3> Tests = litmus::tuningPrograms();
  };

  SequenceTuner(const sim::ChipProfile &Chip, uint64_t Seed)
      : Chip(Chip), Seed(Seed) {}

  /// Scores all 63 sequences given the chip's critical patch size. Each
  /// sequence is an independent trial on its own derived RNG stream, so
  /// the ranking distributes over \p Pool with results bit-identical to
  /// serial execution.
  std::vector<SequenceScore> rankAll(unsigned PatchSize, const Config &Cfg,
                                     ThreadPool *Pool = nullptr);

  /// Pareto selection with the paper's tie-break.
  static stress::AccessSequence
  selectBest(const std::vector<SequenceScore> &Ranked);

  /// Sorts a copy of \p Ranked by descending score on test \p KindIdx
  /// (for Tab. 3-style reporting).
  static std::vector<SequenceScore>
  sortedByKind(std::vector<SequenceScore> Ranked, unsigned KindIdx);

  uint64_t executions() const { return Execs; }

private:
  const sim::ChipProfile &Chip;
  uint64_t Seed;
  uint64_t Execs = 0;
};

} // namespace tuning
} // namespace gpuwmm

#endif // GPUWMM_TUNING_SEQUENCETUNER_H
