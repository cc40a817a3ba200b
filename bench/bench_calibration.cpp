//===- bench/bench_calibration.cpp - Model calibration diagnostics -----------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// Diagnostic bench: prints, for each chip, the quantities the weak-memory
// model is calibrated against — native weak-behaviour rates (must be near
// zero, as on real hardware), direct-hit stressed rates (must be large),
// wrong-bank stressed rates (must be near native), and the spread response
// curve. Useful when porting the model to new chip profiles.
//
//===----------------------------------------------------------------------===//

#include "litmus/Litmus.h"
#include "stress/Environment.h"
#include "support/Options.h"
#include "support/Table.h"

#include <cstdio>
#include <iostream>

using namespace gpuwmm;
using litmus::LitmusRunner;

int main(int Argc, char **Argv) {
  Options Opts(Argc, Argv);
  const unsigned C = Opts.getCount("runs", scaledCount(1500));
  const uint64_t Seed = Opts.getSeed(5);
  const std::string Only = Opts.getString("chip", "");
  const unsigned MaxSpread =
      static_cast<unsigned>(Opts.getInt("max-spread", 5, 1, 16));

  const auto PatchSeq = stress::AccessSequence::parse("st ld");
  const auto AltSeq = stress::AccessSequence::parse("ld st ld st");

  size_t NumChips = 0;
  const sim::ChipProfile *Chips = sim::ChipProfile::all(NumChips);
  for (size_t I = 0; I != NumChips; ++I) {
    const sim::ChipProfile &Chip = Chips[I];
    if (!Only.empty() && Only != Chip.ShortName)
      continue;
    const unsigned P = Chip.PatchSizeWords;

    std::printf("== %s (P=%u, banks=%u, sens=%.2f) ==\n", Chip.ShortName, P,
                Chip.NumBanks, Chip.Sensitivity);
    Table T({"test", "native%", "hit%", "miss%", "m=1", "m=2", "m=3", "m=4",
             "m=5"});
    const auto Tests = litmus::tuningPrograms();
    for (size_t K = 0; K != Tests.size(); ++K) {
      LitmusRunner Runner(Chip, Rng::deriveStream(Seed, K));
      const litmus::Program &Test = *Tests[K];

      const double Native =
          100.0 * Runner.countWeak(Test, 2 * P,
                                   LitmusRunner::MicroStress::none(), C) /
          C;
      // Direct hit: find the most effective single location in the first
      // NumBanks patches (one maps to bank(x)).
      unsigned BestHit = 0;
      unsigned WorstHit = ~0u;
      for (unsigned R = 0; R != Chip.NumBanks; ++R) {
        const unsigned W = Runner.countWeak(
            Test, 2 * P, LitmusRunner::MicroStress::at(PatchSeq, R * P),
            C / 4);
        BestHit = std::max(BestHit, W);
        WorstHit = std::min(WorstHit, W);
      }
      std::vector<std::string> Row{
          Test.Name, formatDouble(Native, 2),
          formatDouble(100.0 * BestHit / (C / 4), 1),
          formatDouble(100.0 * WorstHit / (C / 4), 1)};

      // Spread curve with the canonical alternating sequence over 16
      // regions (score = weak count over C runs, random subsets).
      Rng SubsetRng(Rng::deriveStream(Seed, 100 + K));
      for (unsigned M = 1; M <= MaxSpread; ++M) {
        unsigned Score = 0;
        for (unsigned Run = 0; Run != C / 2; ++Run) {
          std::vector<unsigned> Offs;
          for (unsigned Region : SubsetRng.sampleDistinct(M, 16))
            Offs.push_back(Region * P);
          Score += Runner.countWeak(
              Test, 2 * P, LitmusRunner::MicroStress::atAll(AltSeq, Offs),
              1);
        }
        Row.push_back(std::to_string(Score));
      }
      T.addRow(Row);
    }
    T.print(std::cout);
    std::printf("\n");
  }
  return 0;
}
