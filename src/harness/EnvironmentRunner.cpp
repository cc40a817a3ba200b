//===- harness/EnvironmentRunner.cpp - Tab. 5 experiment driver --------------===//

#include "harness/EnvironmentRunner.h"

#include <algorithm>
#include <vector>

using namespace gpuwmm;
using namespace gpuwmm::harness;

namespace {

/// Runs one contiguous chunk of a cell's runs on the calling worker's
/// leased context, writing per-run verdicts. Pure in its arguments: the
/// leased context is recycled worker state, and neither context history
/// nor the engine affects results (DESIGN.md Secs. 12, 19).
void runChunk(apps::AppKind App, const sim::ChipProfile &Chip,
              const stress::Environment &Env,
              const stress::TunedStressParams &Tuned, uint64_t CellSeed,
              unsigned Begin, unsigned End, apps::AppVerdict *Verdicts) {
  sim::ContextLease Ctx;
  for (unsigned I = Begin; I != End; ++I)
    Verdicts[I] = apps::runApplicationOnce(
        Ctx.get(), App, Chip, Env, Tuned, /*Policy=*/nullptr,
        Rng::deriveStream(CellSeed, static_cast<uint64_t>(I)));
}

/// Folds per-run verdicts into a CellResult. The fold is a commutative
/// count, but we still reduce in index order so the accumulation is the
/// same expression serial execution evaluates.
void accumulate(CellResult &Cell, apps::AppVerdict V) {
  if (apps::isErroneous(V))
    ++Cell.Errors;
  if (V == apps::AppVerdict::Timeout)
    ++Cell.Timeouts;
}

} // namespace

CellResult harness::runCell(apps::AppKind App, const sim::ChipProfile &Chip,
                            const stress::Environment &Env,
                            const stress::TunedStressParams &Tuned,
                            unsigned Runs, uint64_t Seed, ThreadPool *Pool) {
  CellResult Cell;
  Cell.Runs = Runs;
  const size_t Chunks = (Runs + CellChunkRuns - 1) / CellChunkRuns;
  std::vector<apps::AppVerdict> Verdicts(Runs);
  parallelFor(Pool, Chunks, [&](size_t C) {
    const unsigned Begin = static_cast<unsigned>(C) * CellChunkRuns;
    runChunk(App, Chip, Env, Tuned, Seed, Begin,
             std::min(Begin + CellChunkRuns, Runs), Verdicts.data());
  });
  for (apps::AppVerdict V : Verdicts)
    accumulate(Cell, V);
  return Cell;
}

EnvironmentSummary harness::runEnvironmentSummary(
    const sim::ChipProfile &Chip, const stress::Environment &Env,
    const stress::TunedStressParams &Tuned, unsigned Runs, uint64_t Seed,
    ThreadPool *Pool) {
  const size_t NumApps = apps::AllAppKinds.size();
  // Flatten (app, chunk) into one index space so small per-app run counts
  // still fill every worker; chunks never straddle an app boundary (each
  // cell has its own seed stream).
  const size_t ChunksPerApp = (Runs + CellChunkRuns - 1) / CellChunkRuns;
  std::vector<apps::AppVerdict> Verdicts(NumApps * Runs);
  parallelFor(Pool, NumApps * ChunksPerApp, [&](size_t I) {
    const size_t A = I / ChunksPerApp;
    const unsigned Begin =
        static_cast<unsigned>(I % ChunksPerApp) * CellChunkRuns;
    const uint64_t CellSeed = Rng::deriveStream(Seed, static_cast<uint64_t>(A));
    runChunk(apps::AllAppKinds[A], Chip, Env, Tuned, CellSeed, Begin,
             std::min(Begin + CellChunkRuns, Runs),
             Verdicts.data() + A * Runs);
  });

  EnvironmentSummary Summary;
  for (size_t A = 0; A != NumApps; ++A) {
    CellResult Cell;
    Cell.Runs = Runs;
    for (unsigned I = 0; I != Runs; ++I)
      accumulate(Cell, Verdicts[A * Runs + I]);
    Summary.AppsWithErrors += Cell.observed();
    Summary.AppsEffective += Cell.effective();
  }
  return Summary;
}
