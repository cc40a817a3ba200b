//===- tuning/PatchFinder.cpp - Critical patch size discovery ----------------===//

#include "tuning/PatchFinder.h"

#include <algorithm>
#include <cassert>

using namespace gpuwmm;
using namespace gpuwmm::tuning;
using litmus::LitmusRunner;

std::vector<unsigned> PatchFinder::defaultDistances() {
  // Cover the interesting transitions for both candidate patch sizes
  // (32 and 64): below, at and beyond each boundary.
  return {0, 16, 32, 48, 64, 96, 128};
}

PatchScan PatchFinder::scan(const Config &Cfg, ThreadPool *Pool) {
  PatchScan Scan;
  Scan.Distances =
      Cfg.Distances.empty() ? defaultDistances() : Cfg.Distances;
  Scan.NumLocations = Cfg.NumLocations;
  Scan.Executions = Cfg.Executions;
  Scan.Hist.resize(Cfg.Tests.size());
  for (size_t K = 0; K != Cfg.Tests.size(); ++K) {
    Scan.Hist[K].resize(Scan.Distances.size());
    for (auto &Row : Scan.Hist[K])
      Row.resize(Cfg.NumLocations);
  }

  // Flatten (kind, distance, location): each cell runs on a private
  // litmus runner whose seed is derived from the cell's flat index, and
  // writes only its own histogram slot.
  const size_t NumCells =
      Cfg.Tests.size() * Scan.Distances.size() * Cfg.NumLocations;
  gpuwmm::parallelFor(Pool, NumCells, [&](size_t I) {
    const size_t K = I / (Scan.Distances.size() * Cfg.NumLocations);
    const size_t D = I / Cfg.NumLocations % Scan.Distances.size();
    const unsigned L = static_cast<unsigned>(I % Cfg.NumLocations);
    LitmusRunner Cell(Chip, Rng::deriveStream(Seed, I));
    Scan.Hist[K][D][L] =
        Cell.countWeak(*Cfg.Tests[K], Scan.Distances[D],
                       LitmusRunner::MicroStress::at(Cfg.Seq, L),
                       Cfg.Executions);
  });
  Execs += static_cast<uint64_t>(NumCells) * Cfg.Executions;
  return Scan;
}

std::vector<EpsPatch>
PatchFinder::epsPatches(const std::vector<unsigned> &Hist, unsigned Eps) {
  std::vector<EpsPatch> Patches;
  unsigned I = 0;
  const unsigned N = static_cast<unsigned>(Hist.size());
  while (I != N) {
    if (Hist[I] <= Eps) {
      ++I;
      continue;
    }
    const unsigned Start = I;
    while (I != N && Hist[I] > Eps)
      ++I;
    Patches.push_back({Start, I - Start});
  }
  return Patches;
}

std::map<unsigned, unsigned>
PatchFinder::patchSizeCounts(const PatchScan &Scan, unsigned KindIdx,
                             unsigned Eps) {
  std::map<unsigned, unsigned> Counts;
  for (const auto &Row : Scan.Hist[KindIdx])
    for (const EpsPatch &P : epsPatches(Row, Eps))
      ++Counts[P.Size];
  return Counts;
}

PatchDecision PatchFinder::decide(const PatchScan &Scan, unsigned Eps) {
  PatchDecision Decision;
  for (size_t K = 0; K != Scan.Hist.size(); ++K) {
    const auto Counts = patchSizeCounts(Scan, K, Eps);
    unsigned Mode = 0;
    unsigned Best = 0;
    for (const auto &[Size, Count] : Counts) {
      if (Count > Best) {
        Best = Count;
        Mode = Size;
      }
    }
    Decision.PerKindMode[K] = Mode;
  }

  const auto &M = Decision.PerKindMode;
  if (M[0] != 0 && M[0] == M[1] && M[1] == M[2]) {
    Decision.CriticalPatchSize = M[0];
    Decision.MajorityPatchSize = M[0];
    return Decision;
  }
  // 2-of-3 fallback (cf. the paper's handling of the 980, where MP patches
  // only emerge for very large distances).
  for (unsigned I = 0; I != 3; ++I) {
    const unsigned A = M[I];
    if (A != 0 && (A == M[(I + 1) % 3] || A == M[(I + 2) % 3])) {
      Decision.MajorityPatchSize = A;
      break;
    }
  }
  return Decision;
}
