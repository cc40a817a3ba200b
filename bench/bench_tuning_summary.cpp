//===- bench/bench_tuning_summary.cpp - Paper Tab. 2 -------------------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// Regenerates Tab. 2: for every chip, run the full Sec. 3 tuning pipeline
// (patch finding, access-sequence ranking, spread finding) and report the
// derived stressing parameters alongside the paper's published values.
//
//===----------------------------------------------------------------------===//

#include "stress/Environment.h"
#include "support/Options.h"
#include "support/Table.h"
#include "tuning/Tuner.h"

#include <cstdio>
#include <iostream>

using namespace gpuwmm;

int main(int Argc, char **Argv) {
  Options Opts(Argc, Argv);
  const double Scale =
      Opts.getDouble("scale", 1.0, 1e-3, 1e3) * experimentScale();
  const uint64_t Seed = Opts.getSeed(7);
  const std::string Only = Opts.getString("chip", "");

  std::printf("== Table 2: stressing parameters and tuning cost ==\n");
  std::printf("(execution counts scaled by %.2f; the paper used ~68M "
              "executions per chip)\n\n",
              Scale);

  Table T({"chip", "c. patch size", "sequence", "spread", "executions",
           "time (s)", "paper: patch/seq/spread", "agree"});

  size_t NumChips = 0;
  const sim::ChipProfile *Chips = sim::ChipProfile::all(NumChips);
  for (size_t I = 0; I != NumChips; ++I) {
    const sim::ChipProfile &Chip = Chips[I];
    if (!Only.empty() && Only != Chip.ShortName)
      continue;

    tuning::Tuner Tune(Chip, Rng::deriveStream(Seed, I));
    const tuning::TuningResult R = Tune.tune(Scale);
    const auto Paper = stress::TunedStressParams::paperDefaults(Chip);

    const bool PatchAgrees = R.Params.PatchWords == Paper.PatchWords;
    const bool SpreadAgrees = R.Params.Spread == Paper.Spread;
    const bool SeqMixes = [&] {
      bool HasLd = false, HasSt = false;
      for (unsigned K = 0; K != R.Params.Seq.length(); ++K)
        (R.Params.Seq.isStore(K) ? HasSt : HasLd) = true;
      return HasLd && HasSt;
    }();

    std::string Agree;
    Agree += PatchAgrees ? 'P' : '.';
    Agree += SeqMixes ? 'S' : '.';
    Agree += SpreadAgrees ? 'M' : '.';

    T.addRow({Chip.ShortName, std::to_string(R.Params.PatchWords),
              R.Params.Seq.str(), std::to_string(R.Params.Spread),
              std::to_string(R.Executions), formatDouble(R.WallSeconds, 1),
              std::string(std::to_string(Paper.PatchWords)) + " / " +
                  Paper.Seq.str() + " / " + std::to_string(Paper.Spread),
              Agree});
  }
  T.print(std::cout);
  std::printf("\nagree column: P = critical patch size matches the paper, "
              "S = selected sequence mixes loads and stores (as all of the "
              "paper's winners do), M = spread matches the paper.\n");
  return 0;
}
