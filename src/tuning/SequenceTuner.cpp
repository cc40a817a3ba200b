//===- tuning/SequenceTuner.cpp - Access-sequence ranking --------------------===//

#include "tuning/SequenceTuner.h"

#include "support/Check.h"

#include <algorithm>

using namespace gpuwmm;
using namespace gpuwmm::tuning;
using litmus::LitmusRunner;

std::vector<SequenceScore> SequenceTuner::rankAll(unsigned PatchSize,
                                                  const Config &Cfg,
                                                  ThreadPool *Pool) {
  GPUWMM_CHECK(PatchSize > 0, "patch size required");
  std::vector<unsigned> Distances = Cfg.Distances;
  if (Distances.empty())
    Distances = {PatchSize, 2 * PatchSize, 3 * PatchSize,
                 3 * PatchSize + PatchSize / 2};

  // Stressing multiple locations within one patch is redundant (Sec. 3.2),
  // so stress the first word of each patch-sized region within L.
  std::vector<unsigned> Locations;
  for (unsigned L = 0; L < Cfg.NumLocations; L += PatchSize)
    Locations.push_back(L);

  // One independent trial per sequence, on a runner seeded from the
  // sequence's index — trials are order-free, so they distribute over the
  // pool without changing any score.
  const auto All = stress::AccessSequence::enumerateAll();
  std::vector<SequenceScore> Ranked(All.size());
  gpuwmm::parallelFor(Pool, All.size(), [&](size_t I) {
    SequenceScore &Score = Ranked[I];
    Score.Seq = All[I];
    LitmusRunner Runner(Chip, Rng::deriveStream(Seed, I));
    for (size_t K = 0; K != Cfg.Tests.size(); ++K) {
      uint64_t Total = 0;
      for (unsigned D : Distances) {
        for (unsigned Loc : Locations) {
          const auto S = LitmusRunner::MicroStress::at(All[I], Loc);
          Total += Runner.countWeak(*Cfg.Tests[K], D, S, Cfg.Executions);
        }
      }
      Score.Scores[K] = Total;
    }
  });
  Execs += static_cast<uint64_t>(All.size()) * Cfg.Tests.size() *
           Distances.size() * Locations.size() * Cfg.Executions;
  return Ranked;
}

stress::AccessSequence
SequenceTuner::selectBest(const std::vector<SequenceScore> &Ranked) {
  std::vector<Objectives> Scores;
  Scores.reserve(Ranked.size());
  for (const SequenceScore &S : Ranked)
    Scores.push_back(S.Scores);
  return Ranked[selectParetoWinner(Scores)].Seq;
}

std::vector<SequenceScore>
SequenceTuner::sortedByKind(std::vector<SequenceScore> Ranked,
                            unsigned KindIdx) {
  GPUWMM_CHECK(KindIdx < 3, "bad litmus kind index");
  std::stable_sort(Ranked.begin(), Ranked.end(),
                   [KindIdx](const SequenceScore &A, const SequenceScore &B) {
                     return A.Scores[KindIdx] > B.Scores[KindIdx];
                   });
  return Ranked;
}
