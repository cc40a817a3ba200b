//===- bench/bench_fuzz.cpp - Random-program weak-behaviour fuzzing -----------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// Extension experiment (the "fuzzing" of the paper's title, generalised
// beyond the three litmus idioms): generate random two-thread programs,
// enumerate their SC outcomes exhaustively, and measure how often the
// native machine vs. the tuned testing environment produce outcomes
// outside the SC set. The paper's black-box claim predicts the tuned
// environment needs no knowledge of the program to expose its weak
// behaviours — this experiment checks that on programs nobody wrote.
//
//===----------------------------------------------------------------------===//

#include "fuzz/ProgramFuzzer.h"
#include "harden/LitmusHarden.h"
#include "support/Options.h"
#include "support/Table.h"

#include <cstdio>
#include <iostream>

using namespace gpuwmm;

int main(int Argc, char **Argv) {
  Options Opts(Argc, Argv);
  const std::string ChipName = Opts.getString("chip", "titan");
  const unsigned Programs = Opts.getCount("programs", scaledCount(40));
  const unsigned Runs = Opts.getCount("runs", scaledCount(40));
  const uint64_t Seed = Opts.getSeed(101);

  const sim::ChipProfile *Chip = sim::ChipProfile::lookup(ChipName);
  if (!Chip) {
    std::fprintf(stderr, "error: unknown chip '%s'\n", ChipName.c_str());
    return 1;
  }

  std::printf("== Random-program fuzzing on %s: %u programs x %u runs ==\n\n",
              Chip->Name, Programs, Runs);

  Rng Gen(Seed);
  unsigned NativeWeakProgs = 0, StressedWeakProgs = 0;
  uint64_t NativeWeakRuns = 0, StressedWeakRuns = 0;
  unsigned FencedViolations = 0;

  for (unsigned I = 0; I != Programs; ++I) {
    const litmus::Program P = fuzz::generateProgram(Gen, 3, 5, false);
    const auto Native =
        fuzz::fuzzProgram(P, *Chip, Runs, Rng::deriveStream(Seed, 2 * I),
                          /*Stressed=*/false);
    const auto Stressed =
        fuzz::fuzzProgram(P, *Chip, Runs, Rng::deriveStream(Seed, 2 * I),
                          /*Stressed=*/true);
    // A fence after every access (Alg. 1's starting point).
    const litmus::Program AllFenced = harden::applyLitmusFences(
        P, sim::FencePolicy::all(static_cast<unsigned>(
               harden::litmusFenceSites(P).size())));
    const auto Fenced =
        fuzz::fuzzProgram(AllFenced, *Chip, /*Runs=*/8,
                          Rng::deriveStream(Seed, 2 * I + 1), true);
    NativeWeakProgs += Native.WeakOutcomes > 0;
    StressedWeakProgs += Stressed.WeakOutcomes > 0;
    NativeWeakRuns += Native.WeakOutcomes;
    StressedWeakRuns += Stressed.WeakOutcomes;
    FencedViolations += Fenced.WeakOutcomes;
  }

  Table T({"configuration", "programs with weak outcomes",
           "weak runs (total)"});
  T.addRow({"native (no-str-)",
            std::to_string(NativeWeakProgs) + "/" +
                std::to_string(Programs),
            std::to_string(NativeWeakRuns)});
  T.addRow({"tuned stress (sys-str+)",
            std::to_string(StressedWeakProgs) + "/" +
                std::to_string(Programs),
            std::to_string(StressedWeakRuns)});
  T.addRow({"fully fenced + sys-str+", "0/" + std::to_string(Programs),
            std::to_string(FencedViolations) + " (must be 0)"});
  T.print(std::cout);

  std::printf("\nShape to check: the tuned environment exposes non-SC "
              "outcomes on far more programs and runs than native "
              "execution, and a fence after every access eliminates them "
              "entirely (model soundness).\n");
  return FencedViolations == 0 ? 0 : 1;
}
