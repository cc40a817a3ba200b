//===- tuning/SpreadTuner.cpp - Stress-spread selection ----------------------===//

#include "tuning/SpreadTuner.h"

#include "support/Check.h"


using namespace gpuwmm;
using namespace gpuwmm::tuning;
using litmus::LitmusRunner;

std::vector<SpreadScore> SpreadTuner::rankAll(unsigned PatchSize,
                                              stress::AccessSequence Seq,
                                              const Config &Cfg,
                                              ThreadPool *Pool) {
  GPUWMM_CHECK(PatchSize > 0, "patch size required");
  std::vector<unsigned> Distances = Cfg.Distances;
  if (Distances.empty())
    Distances = {PatchSize, 2 * PatchSize, 3 * PatchSize,
                 3 * PatchSize + PatchSize / 2};

  std::vector<SpreadScore> Ranked(Cfg.MaxSpread);
  gpuwmm::parallelFor(Pool, Cfg.MaxSpread, [&](size_t I) {
    const unsigned M = static_cast<unsigned>(I) + 1;
    SpreadScore &Score = Ranked[I];
    Score.Spread = M;
    // Independent streams per spread: one for the litmus executions, one
    // for the random region subsets.
    const uint64_t SpreadSeed = Rng::deriveStream(Seed, I);
    LitmusRunner Runner(Chip, Rng::deriveStream(SpreadSeed, 0));
    Rng SubsetRng(Rng::deriveStream(SpreadSeed, 1));
    // One stress description and one sample buffer serve every execution.
    LitmusRunner::MicroStress S = LitmusRunner::MicroStress::atAll(Seq, {});
    std::vector<unsigned> Regions;
    for (size_t K = 0; K != Cfg.Tests.size(); ++K) {
      uint64_t Total = 0;
      for (unsigned D : Distances) {
        for (unsigned C = 0; C != Cfg.Executions; ++C) {
          // A fresh random m-subset of regions per execution, as in the
          // paper's ⟨T_d, σ@Lm⟩ tests.
          SubsetRng.sampleDistinct(M, Cfg.MaxSpread, Regions);
          S.ScratchOffsets.clear();
          for (unsigned Region : Regions)
            S.ScratchOffsets.push_back(Region * PatchSize);
          Total += Runner.countWeak(*Cfg.Tests[K], D, S, 1);
        }
      }
      Score.Scores[K] = Total;
    }
  });
  Execs += static_cast<uint64_t>(Cfg.MaxSpread) * Cfg.Tests.size() *
           Distances.size() * Cfg.Executions;
  return Ranked;
}

unsigned SpreadTuner::selectBest(const std::vector<SpreadScore> &Ranked) {
  std::vector<Objectives> Scores;
  Scores.reserve(Ranked.size());
  for (const SpreadScore &S : Ranked)
    Scores.push_back(S.Scores);
  const size_t Winner = selectParetoWinner(Scores);

  // Engineering tie-break beyond the paper: when a smaller spread's total
  // score is statistically indistinguishable from the Pareto winner's
  // (within ~18%), prefer the smaller spread — fewer stressed regions for
  // the same effectiveness. The paper's spread curves are shallow around
  // the optimum (Fig. 4), so without this the sampled winner wobbles
  // between adjacent spreads.
  auto Total = [](const Objectives &O) { return O[0] + O[1] + O[2]; };
  const uint64_t WinnerTotal = Total(Scores[Winner]);
  size_t Best = Winner;
  for (size_t I = 0; I != Ranked.size(); ++I) {
    if (Ranked[I].Spread >= Ranked[Best].Spread)
      continue;
    if (static_cast<double>(Total(Scores[I])) >=
        0.82 * static_cast<double>(WinnerTotal))
      Best = I;
  }
  return Ranked[Best].Spread;
}
