//===- bench/bench_environments.cpp - Paper Tab. 5 ----------------------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// Regenerates Tab. 5: the effectiveness of the eight testing environments
// on every chip. Each cell is "a/b": errors were observed for b of the ten
// applications, and for a of them the environment was effective (errors in
// more than 5% of executions). The paper runs each cell for one hour; we
// run a configurable number of executions per application.
//
//===----------------------------------------------------------------------===//

#include "harness/EnvironmentRunner.h"
#include "support/Options.h"
#include "support/Table.h"

#include <cstdio>
#include <iostream>

using namespace gpuwmm;

int main(int Argc, char **Argv) {
  Options Opts(Argc, Argv);
  const unsigned Runs = Opts.getCount("runs", scaledCount(60));
  const uint64_t Seed = Opts.getSeed(13);
  const std::string OnlyChip = Opts.getString("chip", "");

  std::printf("== Table 5: effectiveness of the eight testing environments "
              "==\n");
  std::printf("(a/b: errors observed for b of 10 applications, effective "
              "(>5%% of %u runs) for a; * marks the most capable "
              "environment per chip)\n\n",
              Runs);

  std::vector<std::string> Headers{"chip"};
  for (const auto &Env : stress::Environment::all())
    Headers.push_back(Env.name());
  Table T(Headers);

  size_t NumChips = 0;
  const sim::ChipProfile *Chips = sim::ChipProfile::all(NumChips);
  for (size_t CI = 0; CI != NumChips; ++CI) {
    const sim::ChipProfile &Chip = Chips[CI];
    if (!OnlyChip.empty() && OnlyChip != Chip.ShortName)
      continue;
    const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);

    std::vector<harness::EnvironmentSummary> Summaries;
    unsigned BestScore = 0;
    for (const auto &Env : stress::Environment::all()) {
      const auto S = harness::runEnvironmentSummary(
          Chip, Env, Tuned, Runs, Rng::deriveStream(Seed, CI));
      BestScore = std::max(BestScore,
                           S.AppsEffective * 100 + S.AppsWithErrors);
      Summaries.push_back(S);
    }

    std::vector<std::string> Row{Chip.ShortName};
    for (const auto &S : Summaries) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%u/%u%s", S.AppsEffective,
                    S.AppsWithErrors,
                    S.AppsEffective * 100 + S.AppsWithErrors == BestScore
                        ? "*"
                        : "");
      Row.push_back(Buf);
    }
    T.addRow(Row);
  }
  T.print(std::cout);
  std::printf("\nShape to check against the paper's Tab. 5: sys-str "
              "environments dominate every chip (observing errors in ~8 of "
              "10 applications — all but the fenced sdk-red and cub-scan); "
              "no-str shows errors almost nowhere; rand-str and cache-str "
              "sit far below sys-str.\n");
  return 0;
}
