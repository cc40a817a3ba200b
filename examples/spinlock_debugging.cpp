//===- examples/spinlock_debugging.cpp - Debugging cbe-dot end to end ---------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// The paper's Sec. 1 walkthrough as a runnable program. The cbe-dot
// application (Fig. 1) computes a dot product with a spinlock-protected
// global accumulation. We:
//
//   1. execute it natively      -> no errors; it looks correct;
//   2. execute it under the tuned testing environment (sys-str+)
//                               -> weak-memory errors appear readily
//                                  (the paper saw 102/1000 on a K20);
//   3. run empirical fence insertion (Sec. 5)
//                               -> a single fence after the store to *c,
//                                  the same defect prior hand analysis
//                                  blamed in the unlock path;
//   4. re-test the hardened application -> empirically stable;
//   5. compare the cost of the inserted fence against conservative
//      fencing (Sec. 6).
//
//===----------------------------------------------------------------------===//

#include "harden/FenceInsertion.h"
#include "harness/CostBenchmark.h"
#include "harness/EnvironmentRunner.h"
#include "support/Options.h"
#include "support/Table.h"

#include <cstdio>

using namespace gpuwmm;

int main(int Argc, char **Argv) {
  Options Opts(Argc, Argv);
  const std::string ChipName = Opts.getString("chip", "k20");
  const unsigned Runs = Opts.getCount("runs", scaledCount(300));
  const uint64_t Seed = Opts.getSeed(2016);

  const sim::ChipProfile *Chip = sim::ChipProfile::lookup(ChipName);
  if (!Chip) {
    std::fprintf(stderr, "error: unknown chip '%s'\n", ChipName.c_str());
    return 1;
  }
  const auto Tuned = stress::TunedStressParams::paperDefaults(*Chip);
  const auto App = apps::AppKind::CbeDot;

  std::printf("== Debugging cbe-dot (Fig. 1) on the simulated %s ==\n\n",
              Chip->Name);

  // 1. Native execution: the bug hides.
  const auto Native = harness::runCell(
      App, *Chip, {stress::StressKind::None, false}, Tuned, Runs, Seed);
  std::printf("1. native executions:        %u/%u erroneous\n",
              Native.Errors, Native.Runs);
  std::printf("   A developer who is not suspicious about weak memory "
              "might conclude the application is correct.\n\n");

  // 2. The tuned testing environment provokes the bug.
  const auto Stressed = harness::runCell(
      App, *Chip, {stress::StressKind::Sys, true}, Tuned, Runs, Seed);
  std::printf("2. under sys-str+:           %u/%u erroneous (paper: "
              "102/1000 on the K20)\n\n",
              Stressed.Errors, Stressed.Runs);

  // 3. Empirical fence insertion.
  const unsigned NumSites = apps::appNumSites(App);
  harden::AppCheckOracle Oracle(App, *Chip, Seed + 1, /*StableRuns=*/300);
  const auto Insertion = harden::empiricalFenceInsertion(
      sim::FencePolicy::all(NumSites), Oracle);
  const auto Instance = apps::makeApp(App);
  std::printf("3. empirical fence insertion: %u of %u fences remain "
              "(stable=%s, %u round(s))\n",
              Insertion.Fences.count(), NumSites,
              Insertion.Stable ? "yes" : "NO", Insertion.Rounds);
  for (unsigned S : Insertion.Fences.sites())
    std::printf("   fence after: %s\n", Instance->siteName(S));
  std::printf("   (the paper's hand analysis prescribes exactly this "
              "fence at the start of unlock())\n\n");

  // 4. The hardened application is empirically stable.
  unsigned HardenedErrors = 0;
  Rng Master(Seed + 2);
  for (unsigned I = 0; I != Runs; ++I)
    HardenedErrors += apps::isErroneous(apps::runApplicationOnce(
        App, *Chip, {stress::StressKind::Sys, true}, Tuned,
        &Insertion.Fences, Master.fork(I).next()));
  std::printf("4. hardened, under sys-str+: %u/%u erroneous\n\n",
              HardenedErrors, Runs);

  // 5. What did hardening cost?
  const auto CostNone = harness::measureCost(
      App, *Chip, sim::FencePolicy::none(NumSites), 25, Seed + 3);
  const auto CostEmp =
      harness::measureCost(App, *Chip, Insertion.Fences, 25, Seed + 3);
  const auto CostCons = harness::measureCost(
      App, *Chip, sim::FencePolicy::all(NumSites), 25, Seed + 3);
  std::printf("5. runtime: no fences %.3f ms | emp fences %.3f ms (%s) | "
              "cons fences %.3f ms (%s)\n",
              CostNone.RuntimeMs, CostEmp.RuntimeMs,
              formatOverheadPercent(CostEmp.RuntimeMs /
                                    CostNone.RuntimeMs)
                  .c_str(),
              CostCons.RuntimeMs,
              formatOverheadPercent(CostCons.RuntimeMs /
                                    CostNone.RuntimeMs)
                  .c_str());
  if (CostNone.EnergyValid)
    std::printf("   energy:  no fences %.2f J  | emp fences %.2f J (%s) | "
                "cons fences %.2f J (%s)\n",
                CostNone.EnergyJ, CostEmp.EnergyJ,
                formatOverheadPercent(CostEmp.EnergyJ / CostNone.EnergyJ)
                    .c_str(),
                CostCons.EnergyJ,
                formatOverheadPercent(CostCons.EnergyJ / CostNone.EnergyJ)
                    .c_str());
  return 0;
}
