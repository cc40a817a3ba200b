//===- bench/bench_patch_finding.cpp - Paper Fig. 3 ---------------------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// Regenerates Fig. 3: patch-finding histograms (weak behaviours per
// stressed scratchpad location) for the GTX Titan, Tesla C2075 and GTX 980
// at three distances each, rendered as ASCII bar plots, plus the derived
// critical patch size. The shapes to check: no weak behaviour when the
// communication locations are within one patch (small d); patch-width bars
// whose positions shift as d crosses patch boundaries; patch size 32 on
// Kepler vs 64 on Fermi/Maxwell.
//
//===----------------------------------------------------------------------===//

#include "support/Options.h"
#include "tuning/PatchFinder.h"

#include <cstdio>

using namespace gpuwmm;

namespace {

void plotHistogram(const std::vector<unsigned> &Hist, unsigned MaxCount,
                   unsigned Buckets = 64) {
  // Collapse locations into buckets and print a height-4 bar chart.
  const unsigned PerBucket =
      std::max<unsigned>(1, static_cast<unsigned>(Hist.size()) / Buckets);
  std::vector<unsigned> Collapsed;
  for (size_t I = 0; I < Hist.size(); I += PerBucket) {
    unsigned Sum = 0;
    for (size_t J = I; J != std::min(Hist.size(), I + PerBucket); ++J)
      Sum = std::max(Sum, Hist[J]);
    Collapsed.push_back(Sum);
  }
  const char Levels[] = " .:|#";
  std::printf("    |");
  for (unsigned V : Collapsed) {
    unsigned L = 0;
    if (MaxCount != 0 && V != 0)
      L = 1 + (4 - 1) * std::min(V, MaxCount) / MaxCount;
    std::putchar(Levels[L]);
  }
  std::printf("|\n");
}

void runChip(const char *Name, const std::vector<unsigned> &Distances,
             unsigned C, uint64_t Seed) {
  const sim::ChipProfile *Chip = sim::ChipProfile::lookup(Name);
  if (!Chip)
    return;

  tuning::PatchFinder PF(*Chip, Seed);
  tuning::PatchFinder::Config Cfg;
  Cfg.NumLocations = 256;
  Cfg.Distances = Distances;
  Cfg.Executions = C;
  const tuning::PatchScan Scan = PF.scan(Cfg);
  // The patch-size decision uses the full default distance sweep (as the
  // tuning pipeline does); the three distances above are plotted only.
  tuning::PatchFinder::Config FullCfg = Cfg;
  FullCfg.Distances = tuning::PatchFinder::defaultDistances();
  const auto Decision =
      tuning::PatchFinder::decide(PF.scan(FullCfg), Cfg.Eps);

  std::printf("-- %s --\n", Chip->Name);
  const auto Tests = litmus::tuningPrograms();
  for (size_t K = 0; K != Tests.size(); ++K) {
    if (Tests[K]->Name == "SB")
      continue; // The paper omits SB from Fig. 3 (similar to LB).
    for (size_t D = 0; D != Scan.Distances.size(); ++D) {
      unsigned MaxCount = 0;
      for (unsigned V : Scan.Hist[K][D])
        MaxCount = std::max(MaxCount, V);
      std::printf("  %s d=%-3u (max %u weak / %u runs per location)\n",
                  Tests[K]->Name.c_str(), Scan.Distances[D],
                  MaxCount, C);
      plotHistogram(Scan.Hist[K][D], MaxCount);
    }
  }
  std::string Derived = "(none)";
  if (Decision.CriticalPatchSize)
    Derived = std::to_string(*Decision.CriticalPatchSize);
  else if (Decision.MajorityPatchSize)
    Derived = std::to_string(*Decision.MajorityPatchSize) + " (majority)";
  std::printf("  per-test mode patch sizes: MP=%u LB=%u SB=%u -> critical "
              "patch size %s (paper: %u)\n\n",
              Decision.PerKindMode[0], Decision.PerKindMode[1],
              Decision.PerKindMode[2], Derived.c_str(),
              Chip->PatchSizeWords);
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts(Argc, Argv);
  const unsigned C = Opts.getCount("executions", scaledCount(60));
  const uint64_t Seed = Opts.getSeed(3);

  std::printf("== Figure 3: patch finding (x axis: stressed scratchpad "
              "location 0..255, bar height: weak behaviours) ==\n\n");
  // The paper plots d in {0, 32, 64} for Titan and {0, 64, 128} for
  // C2075/980.
  runChip("titan", {0, 32, 64}, C, Seed);
  runChip("c2075", {0, 64, 128}, C, Rng::deriveStream(Seed, 1));
  runChip("980", {0, 64, 128}, C, Rng::deriveStream(Seed, 2));
  return 0;
}
