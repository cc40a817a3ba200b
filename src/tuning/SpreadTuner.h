//===- tuning/SpreadTuner.h - Stress-spread selection -----------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements the paper's Sec. 3.4: determine how many critical-patch-sized
/// regions to stress simultaneously. For each spread m, run litmus
/// instances with stress applied at a random m-subset of the scratchpad's
/// regions; pick the Pareto-optimal spread over the three tuning idioms
/// (MP/LB/SB by default). The paper found
/// m = 2 on every chip (Tab. 2, Fig. 4).
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_TUNING_SPREADTUNER_H
#define GPUWMM_TUNING_SPREADTUNER_H

#include "litmus/Litmus.h"
#include "stress/AccessSequence.h"
#include "support/ThreadPool.h"
#include "tuning/Pareto.h"

#include <vector>

namespace gpuwmm {
namespace tuning {

/// One spread's scores over the three litmus tests.
struct SpreadScore {
  unsigned Spread = 1;
  Objectives Scores = {0, 0, 0};
};

/// Scores spreads 1..MaxSpread for one chip.
class SpreadTuner {
public:
  struct Config {
    unsigned MaxSpread = 16;  ///< M; scratchpad spans M regions.
    unsigned Executions = 50; ///< C per (test, d, spread).
    /// Distances to sum over; defaults to multiples of the patch size.
    std::vector<unsigned> Distances;
    /// The three tuning idioms (Fig. 2 by default; any catalog trio).
    std::array<const litmus::Program *, 3> Tests = litmus::tuningPrograms();
  };

  SpreadTuner(const sim::ChipProfile &Chip, uint64_t Seed)
      : Chip(Chip), Seed(Seed) {}

  /// Scores every spread 1..MaxSpread. Each spread is an independent
  /// trial with its own derived runner and subset-sampling streams, so
  /// the ranking distributes over \p Pool with results bit-identical to
  /// serial execution.
  std::vector<SpreadScore> rankAll(unsigned PatchSize,
                                   stress::AccessSequence Seq,
                                   const Config &Cfg,
                                   ThreadPool *Pool = nullptr);

  /// Pareto selection (the paper observed a unique winner, no tie-break
  /// needed; we reuse the standard selection for robustness).
  static unsigned selectBest(const std::vector<SpreadScore> &Ranked);

  uint64_t executions() const { return Execs; }

private:
  const sim::ChipProfile &Chip;
  uint64_t Seed;
  uint64_t Execs = 0;
};

} // namespace tuning
} // namespace gpuwmm

#endif // GPUWMM_TUNING_SPREADTUNER_H
