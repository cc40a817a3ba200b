//===- bench/bench_fence_cost.cpp - Paper Fig. 5 ------------------------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// Regenerates Fig. 5: for every chip/application combination, the runtime
// and energy of the application with no fences, with the fences found by
// empirical insertion ("emp", derived per GPU as in the paper), and with a
// fence after every access ("cons"). Prints the scatter-plot points
// (log-log in the paper) plus the headline statistics the paper reports:
// median overheads of both strategies.
//
//===----------------------------------------------------------------------===//

#include "harden/FenceInsertion.h"
#include "harness/CostBenchmark.h"
#include "support/Options.h"
#include "support/Statistics.h"
#include "support/Table.h"

#include <cstdio>
#include <iostream>

using namespace gpuwmm;

namespace {

const apps::AppKind CostApps[] = {
    apps::AppKind::CbeHt,    apps::AppKind::CbeDot,
    apps::AppKind::CtOctree, apps::AppKind::TpoTm,
    apps::AppKind::SdkRedNf, apps::AppKind::CubScanNf,
    apps::AppKind::LsBhNf};

} // namespace

int main(int Argc, char **Argv) {
  Options Opts(Argc, Argv);
  const uint64_t Seed = Opts.getSeed(23);
  const unsigned Runs = Opts.getCount("runs", scaledCount(25));
  const unsigned StableRuns = Opts.getCount("stable-runs", scaledCount(150));
  const std::string OnlyChip = Opts.getString("chip", "");

  std::printf("== Figure 5: cost of {no, emp, cons} fences ==\n");
  std::printf("(averaged over %u passing native runs per point; energy "
              "only on chips with power instrumentation)\n\n",
              Runs);

  size_t NumChips = 0;
  const sim::ChipProfile *Chips = sim::ChipProfile::all(NumChips);

  Table T({"chip", "app", "no f. ms", "emp ms", "cons ms", "emp ovh",
           "cons ovh", "no f. J", "emp J", "cons J"});

  std::vector<double> EmpRuntimeOvh, ConsRuntimeOvh;
  std::vector<double> EmpEnergyOvh, ConsEnergyOvh;
  unsigned RuntimePoints = 0, EnergyPoints = 0;

  for (size_t CI = 0; CI != NumChips; ++CI) {
    const sim::ChipProfile &Chip = Chips[CI];
    if (!OnlyChip.empty() && OnlyChip != Chip.ShortName)
      continue;
    for (apps::AppKind App : CostApps) {
      const unsigned NumSites = apps::appNumSites(App);
      const uint64_t PairSeed = Rng::deriveStream(
          Rng::deriveStream(Seed, CI), static_cast<uint64_t>(App));
      // Disjoint branches: the oracle internally derives per-check streams
      // from its seed, so it gets its own branch; the measurement stream is
      // shared across the three fence policies (paired by design).
      const uint64_t OracleSeed = Rng::deriveStream(PairSeed, 0);
      const uint64_t MeasureSeed = Rng::deriveStream(PairSeed, 1);

      // emp fences are found per GPU, as in the paper (Sec. 6).
      harden::AppCheckOracle Oracle(App, Chip, OracleSeed, StableRuns);
      const auto Insertion = harden::empiricalFenceInsertion(
          sim::FencePolicy::all(NumSites), Oracle);

      const auto NoF = harness::measureCost(
          App, Chip, sim::FencePolicy::none(NumSites), Runs, MeasureSeed);
      const auto Emp = harness::measureCost(App, Chip, Insertion.Fences,
                                            Runs, MeasureSeed);
      const auto Cons = harness::measureCost(
          App, Chip, sim::FencePolicy::all(NumSites), Runs, MeasureSeed);

      const double EmpOvh = Emp.RuntimeMs / NoF.RuntimeMs;
      const double ConsOvh = Cons.RuntimeMs / NoF.RuntimeMs;
      EmpRuntimeOvh.push_back(EmpOvh);
      ConsRuntimeOvh.push_back(ConsOvh);
      ++RuntimePoints;

      std::vector<std::string> Row{
          Chip.ShortName,
          apps::appName(App),
          formatDouble(NoF.RuntimeMs, 2),
          formatDouble(Emp.RuntimeMs, 2),
          formatDouble(Cons.RuntimeMs, 2),
          formatOverheadPercent(EmpOvh),
          formatOverheadPercent(ConsOvh)};
      if (NoF.EnergyValid) {
        EmpEnergyOvh.push_back(Emp.EnergyJ / NoF.EnergyJ);
        ConsEnergyOvh.push_back(Cons.EnergyJ / NoF.EnergyJ);
        ++EnergyPoints;
        Row.push_back(formatDouble(NoF.EnergyJ, 2));
        Row.push_back(formatDouble(Emp.EnergyJ, 2));
        Row.push_back(formatDouble(Cons.EnergyJ, 2));
      } else {
        Row.push_back("-");
        Row.push_back("-");
        Row.push_back("-");
      }
      T.addRow(Row);
    }
  }
  T.print(std::cout);

  std::printf("\n%u runtime points, %u energy points (paper: 93 runtime, "
              "54 energy before outlier removal)\n",
              RuntimePoints, EnergyPoints);
  std::printf("median runtime overhead: emp %s, cons %s (paper: emp <3%%, "
              "cons 174%%)\n",
              formatOverheadPercent(median(EmpRuntimeOvh)).c_str(),
              formatOverheadPercent(median(ConsRuntimeOvh)).c_str());
  if (!EmpEnergyOvh.empty())
    std::printf("median energy overhead:  emp %s, cons %s (paper: emp <3%%, "
                "cons 171%%)\n",
                formatOverheadPercent(median(EmpEnergyOvh)).c_str(),
                formatOverheadPercent(median(ConsEnergyOvh)).c_str());
  return 0;
}
