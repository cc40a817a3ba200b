//===- bench/bench_spread.cpp - Paper Fig. 4 ---------------------------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// Regenerates Fig. 4: spread-finding curves (score vs number of
// simultaneously stressed regions) for the GTX 980 and Tesla K20 per
// litmus test. The paper's characteristic shape: a peak at spread 2 with a
// decaying tail (U-shaped prominence on 980, shallower on K20).
//
//===----------------------------------------------------------------------===//

#include "stress/Environment.h"
#include "support/Options.h"
#include "support/Table.h"
#include "tuning/SpreadTuner.h"

#include <cstdio>
#include <iostream>

using namespace gpuwmm;

static void runChip(const std::string &Name, unsigned MaxSpread,
                    unsigned Executions, uint64_t Seed) {
  const sim::ChipProfile *Chip = sim::ChipProfile::lookup(Name);
  if (!Chip) {
    std::fprintf(stderr, "error: unknown chip '%s'\n", Name.c_str());
    return;
  }
  const auto Tuned = stress::TunedStressParams::paperDefaults(*Chip);

  tuning::SpreadTuner Tuner(*Chip, Seed);
  tuning::SpreadTuner::Config Cfg;
  Cfg.MaxSpread = MaxSpread;
  Cfg.Executions = Executions;
  const auto Ranked =
      Tuner.rankAll(Tuned.PatchWords, Tuned.Seq, Cfg);
  const unsigned Best = tuning::SpreadTuner::selectBest(Ranked);

  std::printf("-- %s (sequence \"%s\", patch %u) --\n", Chip->Name,
              Tuned.Seq.str().c_str(), Tuned.PatchWords);
  Table T({"spread", "MP score", "LB score", "SB score"});
  for (const auto &S : Ranked)
    T.addRow({std::to_string(S.Spread), std::to_string(S.Scores[0]),
              std::to_string(S.Scores[1]), std::to_string(S.Scores[2])});
  T.print(std::cout);
  std::printf("maximally effective spread: %u (paper: 2)\n\n", Best);
}

int main(int Argc, char **Argv) {
  Options Opts(Argc, Argv);
  const unsigned MaxSpread =
      static_cast<unsigned>(Opts.getInt("max-spread", 16, 1, 1 << 10));
  const unsigned Executions = Opts.getCount("executions", scaledCount(60));
  const uint64_t Seed = Opts.getSeed(11);

  std::printf("== Figure 4: spread finding ==\n\n");
  const std::string Only = Opts.getString("chip", "");
  if (!Only.empty()) {
    runChip(Only, MaxSpread, Executions, Seed);
    return 0;
  }
  runChip("980", MaxSpread, Executions, Seed);
  runChip("k20", MaxSpread, Executions, Rng::deriveStream(Seed, 1));
  return 0;
}
