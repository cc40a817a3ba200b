//===- harness/CostBenchmark.cpp - Sec. 6 fence-cost study --------------------===//

#include "harness/CostBenchmark.h"

using namespace gpuwmm;
using namespace gpuwmm::harness;

CostMeasurement harness::measureCost(apps::AppKind App,
                                     const sim::ChipProfile &Chip,
                                     const sim::FencePolicy &Fences,
                                     unsigned Runs, uint64_t Seed) {
  CostMeasurement M;
  Rng Master(Seed);
  double RuntimeSum = 0.0;
  double EnergySum = 0.0;

  // "Natively" means without any testing environment: no stress, no
  // thread randomisation (paper Sec. 6).
  sim::ContextLease Ctx; // One recycled engine across all measured runs.
  for (unsigned I = 0; M.RunsUsed != Runs && I != 4 * Runs; ++I) {
    Rng R = Master.fork(I);
    sim::Device Dev(Ctx.get(), Chip, R.next());
    Dev.setFencePolicy(&Fences);

    std::unique_ptr<apps::Application> Instance = apps::makeApp(App);
    Dev.setMaxTicks(Instance->maxTicks());
    Instance->setup(Dev, R);
    if (!Instance->run(Dev) || !Instance->checkPostCondition(Dev)) {
      // The paper discards erroneous runs from the performance averages.
      ++M.RunsDiscarded;
      continue;
    }
    ++M.RunsUsed;
    RuntimeSum += Dev.runtimeMs();
    const sim::EnergyEstimate E = Dev.energy();
    M.EnergyValid = E.Valid;
    EnergySum += E.Joules;
  }

  if (M.RunsUsed != 0) {
    M.RuntimeMs = RuntimeSum / M.RunsUsed;
    M.EnergyJ = EnergySum / M.RunsUsed;
  }
  return M;
}
