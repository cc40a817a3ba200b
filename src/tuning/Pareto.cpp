//===- tuning/Pareto.cpp - Pareto-optimal parameter selection ----------------===//

#include "tuning/Pareto.h"

#include "support/Check.h"


using namespace gpuwmm;
using namespace gpuwmm::tuning;

std::vector<size_t>
tuning::paretoFront(const std::vector<Objectives> &Scores) {
  std::vector<size_t> Front;
  for (size_t I = 0; I != Scores.size(); ++I) {
    bool Dominated = false;
    for (size_t J = 0; J != Scores.size() && !Dominated; ++J)
      Dominated = J != I && dominates(Scores[J], Scores[I]);
    if (!Dominated)
      Front.push_back(I);
  }
  return Front;
}

size_t tuning::selectParetoWinner(const std::vector<Objectives> &Scores) {
  GPUWMM_CHECK(!Scores.empty(), "no candidates");
  const std::vector<size_t> Front = paretoFront(Scores);
  GPUWMM_CHECK(!Front.empty(), "a finite set always has a Pareto front");
  if (Front.size() == 1)
    return Front.front();

  // Tie-break: a candidate that wins at least two of three tests against
  // every other front member.
  for (size_t I : Front) {
    bool BeatsAll = true;
    for (size_t J : Front) {
      if (I == J)
        continue;
      unsigned Wins = 0;
      for (size_t K = 0; K != 3; ++K)
        Wins += Scores[I][K] > Scores[J][K];
      if (Wins < 2) {
        BeatsAll = false;
        break;
      }
    }
    if (BeatsAll)
      return I;
  }

  // Fallback: highest total.
  size_t Best = Front.front();
  uint64_t BestTotal = 0;
  for (size_t I : Front) {
    const uint64_t Total = Scores[I][0] + Scores[I][1] + Scores[I][2];
    if (Total > BestTotal) {
      BestTotal = Total;
      Best = I;
    }
  }
  return Best;
}
