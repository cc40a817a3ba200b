//===- tuning/PatchFinder.h - Critical patch size discovery ----*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements the paper's Sec. 3.2: sweep stress over every scratchpad
/// location for a range of communication distances, extract eps-patches
/// (maximal contiguous runs of locations whose stress provokes more than
/// eps weak behaviours) and derive the chip's critical patch size — the
/// patch size P on which MP, LB and SB all agree.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_TUNING_PATCHFINDER_H
#define GPUWMM_TUNING_PATCHFINDER_H

#include "litmus/Litmus.h"
#include "stress/AccessSequence.h"
#include "support/ThreadPool.h"

#include <map>
#include <optional>
#include <vector>

namespace gpuwmm {
namespace tuning {

/// Raw weak-behaviour histograms from a patch-finding sweep.
struct PatchScan {
  /// Hist[kind][dIdx][location] = weak behaviours in C executions of
  /// ⟨T_d, σ@location⟩.
  std::vector<std::vector<std::vector<unsigned>>> Hist;
  std::vector<unsigned> Distances;
  unsigned NumLocations = 0;
  unsigned Executions = 0; ///< C, per (test, d, location) cell.
};

/// An eps-patch: a maximal contiguous run of effective stress locations.
struct EpsPatch {
  unsigned Start = 0;
  unsigned Size = 0;
};

/// Outcome of critical-patch-size detection.
struct PatchDecision {
  /// Mode patch size per litmus test (0 = no patches found).
  std::array<unsigned, 3> PerKindMode = {0, 0, 0};
  /// The agreed critical patch size, if MP, LB and SB agree.
  std::optional<unsigned> CriticalPatchSize;
  /// Majority (2-of-3) value used as a fallback when full agreement fails
  /// (the paper's 980 required exactly such judgement).
  std::optional<unsigned> MajorityPatchSize;
};

/// Runs patch-finding sweeps and analyses them.
class PatchFinder {
public:
  struct Config {
    unsigned NumLocations = 256;       ///< L.
    std::vector<unsigned> Distances;   ///< Subsampled d values.
    unsigned Executions = 50;          ///< C per cell.
    unsigned Eps = 3;                  ///< Noise threshold.
    /// The stressing loop body during patch finding: the paper's stressing
    /// thread stores to and then loads from its location.
    stress::AccessSequence Seq = stress::AccessSequence::parse("st ld");
    /// The three tuning idioms (Fig. 2 by default; any catalog trio via
    /// `gpuwmm tune --tests=a,b,c`).
    std::array<const litmus::Program *, 3> Tests = litmus::tuningPrograms();
  };

  /// Default distance subsampling for a chip: a spread of d values around
  /// multiples of plausible patch sizes up to 4*64.
  static std::vector<unsigned> defaultDistances();

  PatchFinder(const sim::ChipProfile &Chip, uint64_t Seed)
      : Chip(Chip), Seed(Seed) {}

  /// Runs the full sweep (|kinds| * |Distances| * L * C executions).
  ///
  /// Every (test, distance, location) cell executes on its own litmus
  /// runner seeded via Rng::deriveStream of the cell's flat index, so the
  /// sweep distributes over \p Pool with results bit-identical to serial
  /// execution, and repeated scans of one finder reproduce each other.
  PatchScan scan(const Config &Cfg, ThreadPool *Pool = nullptr);

  /// Extracts eps-patches from one histogram.
  static std::vector<EpsPatch> epsPatches(const std::vector<unsigned> &Hist,
                                          unsigned Eps);

  /// Counts eps-patches by size over all of one test's histograms.
  static std::map<unsigned, unsigned>
  patchSizeCounts(const PatchScan &Scan, unsigned KindIdx, unsigned Eps);

  /// Applies the paper's critical-patch-size rule to a scan.
  static PatchDecision decide(const PatchScan &Scan, unsigned Eps);

  uint64_t executions() const { return Execs; }

private:
  const sim::ChipProfile &Chip;
  uint64_t Seed;
  uint64_t Execs = 0;
};

} // namespace tuning
} // namespace gpuwmm

#endif // GPUWMM_TUNING_PATCHFINDER_H
