//===- harden/FenceInsertion.cpp - Empirical fence insertion ------------------===//

#include "harden/FenceInsertion.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <vector>

using namespace gpuwmm;
using namespace gpuwmm::harden;
using sim::FencePolicy;

namespace {

/// Removes the sites in \p ToRemove from \p F.
FencePolicy without(const FencePolicy &F,
                    const std::vector<unsigned> &ToRemove) {
  FencePolicy Result = F;
  for (unsigned S : ToRemove)
    Result.set(S, false);
  return Result;
}

} // namespace

FencePolicy harden::binaryReduction(FencePolicy F, CheckOracle &Oracle,
                                    unsigned Iterations) {
  while (F.count() > 1) {
    // SplitFences: sites sorted by code location; first half vs second.
    const std::vector<unsigned> Sites = F.sites();
    const std::vector<unsigned> F1(Sites.begin(),
                                   Sites.begin() + Sites.size() / 2);
    const std::vector<unsigned> F2(Sites.begin() + Sites.size() / 2,
                                   Sites.end());
    if (Oracle.checkApplication(without(F, F1), Iterations)) {
      F = without(F, F1);
      continue;
    }
    if (Oracle.checkApplication(without(F, F2), Iterations)) {
      F = without(F, F2);
      continue;
    }
    // Both halves appear necessary at this granularity.
    return F;
  }
  return F;
}

FencePolicy harden::linearReduction(FencePolicy F, CheckOracle &Oracle,
                                    unsigned Iterations) {
  for (unsigned S : F.sites()) {
    FencePolicy Candidate = F;
    Candidate.set(S, false);
    if (Oracle.checkApplication(Candidate, Iterations))
      F = Candidate;
  }
  return F;
}

InsertionResult
harden::empiricalFenceInsertion(const FencePolicy &Initial,
                                CheckOracle &Oracle,
                                const InsertionConfig &Config) {
  const auto Start = std::chrono::steady_clock::now();
  InsertionResult Result;
  unsigned Iterations = Config.InitialIterations;
  FencePolicy Reduced = Initial;
  for (unsigned Round = 0; Round != Config.MaxRounds; ++Round) {
    ++Result.Rounds;
    const FencePolicy Fb = binaryReduction(Initial, Oracle, Iterations);
    Reduced = linearReduction(Fb, Oracle, Iterations);
    if (Oracle.empiricallyStable(Reduced)) {
      Result.Stable = true;
      break;
    }
    // Not stable: restart from the original set with doubled iterations.
    Iterations *= 2;
  }
  Result.Fences = Reduced;
  Result.WallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  return Result;
}

//===----------------------------------------------------------------------===//
// AppCheckOracle
//===----------------------------------------------------------------------===//

AppCheckOracle::AppCheckOracle(apps::AppKind App,
                               const sim::ChipProfile &Chip, uint64_t Seed,
                               unsigned StableRuns, ThreadPool *Pool)
    : App(App), Chip(Chip), Env{stress::StressKind::Sys, true},
      Tuned(stress::TunedStressParams::paperDefaults(Chip)), Seed(Seed),
      StableRuns(StableRuns), Pool(Pool) {}

bool AppCheckOracle::checkApplication(const FencePolicy &F,
                                      unsigned Iterations) {
  const uint64_t CheckSeed = Rng::deriveStream(Seed, Checks++);
  // Scan in fixed-size chunks, stopping after the first chunk containing
  // an error: most failing candidates error within the first few runs, so
  // this keeps the serial early-exit savings, while full-chunk execution
  // keeps the verdict AND executions() identical for every job count
  // (the chunk size must therefore never depend on the pool).
  constexpr unsigned ChunkSize = 32;
  std::vector<uint8_t> Erroneous(Iterations, 0);
  for (unsigned Base = 0; Base < Iterations; Base += ChunkSize) {
    const unsigned Chunk = std::min(ChunkSize, Iterations - Base);
    Execs += Chunk;
    parallelFor(Pool, Chunk, [&](size_t I) {
      sim::ContextLease Ctx; // Worker-recycled execution engine.
      Erroneous[Base + I] = apps::isErroneous(apps::runApplicationOnce(
          Ctx.get(), App, Chip, Env, Tuned, &F,
          Rng::deriveStream(CheckSeed, Base + static_cast<uint64_t>(I))));
    });
    for (unsigned I = 0; I != Chunk; ++I)
      if (Erroneous[Base + I])
        return false;
  }
  return true;
}

bool AppCheckOracle::empiricallyStable(const FencePolicy &F) {
  return checkApplication(F, StableRuns);
}
