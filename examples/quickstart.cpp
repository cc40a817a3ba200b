//===- examples/quickstart.cpp - First steps with gpuwmm ---------------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// Quickstart: run the three classic litmus tests (MP, LB, SB) on a
// simulated GTX Titan, natively and under the paper's tuned memory stress,
// and see how dramatically targeted stress amplifies weak behaviours.
//
//===----------------------------------------------------------------------===//

#include "litmus/Litmus.h"
#include "stress/Environment.h"
#include "support/Options.h"

#include <cstdio>

using namespace gpuwmm;

int main(int Argc, char **Argv) {
  Options Opts(Argc, Argv);
  const std::string ChipName = Opts.getString("chip", "titan");
  const unsigned Runs = Opts.getCount("runs", scaledCount(400));
  const uint64_t Seed = Opts.getSeed(42);

  const sim::ChipProfile *Chip = sim::ChipProfile::lookup(ChipName);
  if (!Chip) {
    std::fprintf(stderr, "error: unknown chip '%s'\n", ChipName.c_str());
    return 1;
  }
  std::printf("chip: %s (%s, %s)\n", Chip->Name, archName(Chip->Arch),
              Chip->ShortName);
  std::printf("runs per configuration: %u\n\n", Runs);

  const auto Tuned = stress::TunedStressParams::paperDefaults(*Chip);
  const unsigned P = Tuned.PatchWords;
  std::printf("tuned stress: patch=%u words, sequence=\"%s\", spread=%u\n\n",
              P, Tuned.Seq.str().c_str(), Tuned.Spread);

  std::printf("%-4s  %-4s  %-18s  %-18s  %s\n", "test", "d", "native weak",
              "stressed weak", "stress location");
  for (const litmus::Program *T : litmus::tuningPrograms()) {
    for (unsigned D : {0u, P, 2 * P}) {
      litmus::LitmusRunner Runner(*Chip, Seed);
      const unsigned Native = Runner.countWeak(
          *T, D, litmus::LitmusRunner::MicroStress::none(), Runs);
      // Stress the patch-sized region holding location x: on real chips
      // one cannot know which scratchpad patch conflicts with the
      // application; the tuning pipeline discovers effective ones. Here we
      // sweep the first few regions and report the best.
      unsigned BestWeak = 0;
      unsigned BestLoc = 0;
      for (unsigned Region = 0; Region != 8; ++Region) {
        const unsigned Loc = Region * P;
        const unsigned W = Runner.countWeak(
            *T, D, litmus::LitmusRunner::MicroStress::at(Tuned.Seq, Loc),
            Runs);
        if (W > BestWeak) {
          BestWeak = W;
          BestLoc = Loc;
        }
      }
      std::printf("%-4s  %-4u  %5u/%u (%5.1f%%)   %5u/%u (%5.1f%%)   @%u\n",
                  T->Name.c_str(), D, Native, Runs, 100.0 * Native / Runs,
                  BestWeak, Runs, 100.0 * BestWeak / Runs, BestLoc);
    }
  }

  std::printf("\nWith a fence between each thread's two operations the weak "
              "behaviours vanish:\n");
  for (const litmus::Program *T : litmus::tuningPrograms()) {
    litmus::LitmusRunner Runner(*Chip, Seed);
    litmus::LitmusRunner::RunOpts Fenced;
    Fenced.WithFences = true;
    unsigned Weak = 0;
    for (unsigned Region = 0; Region != 8; ++Region)
      Weak += Runner.countWeak(
          *T, 2 * P,
          litmus::LitmusRunner::MicroStress::at(Tuned.Seq, Region * P),
          Runs / 4, Fenced);
    std::printf("  %-4s fenced, stressed: %u weak\n", T->Name.c_str(), Weak);
  }
  return 0;
}
