//===- harness/EnvironmentRunner.cpp - Tab. 5 experiment driver --------------===//

#include "harness/EnvironmentRunner.h"

#include "model/StreamingChecker.h"

#include <algorithm>

using namespace gpuwmm;
using namespace gpuwmm::harness;

namespace {

/// Executes runs [Begin, End) of one cell on the calling worker's leased
/// context, writing per-run verdicts and, for every OracleEvery-th run,
/// the oracle's status (1 = axioms held, 2 = violation). Pure in its
/// arguments: the leased context and checker are recycled worker state,
/// and neither context history nor the engine affects results (DESIGN.md
/// Secs. 12, 19).
void runChunk(const CellSpec &Cell, unsigned Begin, unsigned End,
              unsigned OracleEvery, apps::AppVerdict *Verdicts,
              uint8_t *OracleStatus) {
  sim::ContextLease Ctx;
  thread_local model::StreamingChecker Checker;
  for (unsigned Run = Begin; Run != End; ++Run) {
    const bool Check = OracleEvery != 0 && Run % OracleEvery == 0;
    if (Check)
      Checker.begin();
    Ctx.get().requestStreaming(Check ? &Checker : nullptr);
    Verdicts[Run] = apps::runApplicationOnce(
        Ctx.get(), Cell.App, *Cell.Chip, Cell.Env, *Cell.Tuned,
        /*Policy=*/nullptr, Rng::deriveStream(Cell.Seed, Run));
    if (Check)
      OracleStatus[Run] = Checker.finish().AxiomsOk ? 1 : 2;
  }
}

} // namespace

std::vector<CellTally> harness::runCells(const std::vector<CellSpec> &Cells,
                                         unsigned Runs, unsigned OracleEvery,
                                         ThreadPool *Pool) {
  const size_t ChunksPerCell = (Runs + CellChunkRuns - 1) / CellChunkRuns;
  std::vector<apps::AppVerdict> Verdicts(Cells.size() * Runs);
  // Per-run oracle status (0 = unchecked), kept only when it samples.
  std::vector<uint8_t> OracleStatus(OracleEvery ? Verdicts.size() : 0, 0);
  parallelFor(Pool, Cells.size() * ChunksPerCell, [&](size_t I) {
    const size_t C = I / ChunksPerCell;
    const unsigned Begin =
        static_cast<unsigned>(I % ChunksPerCell) * CellChunkRuns;
    runChunk(Cells[C], Begin, std::min(Begin + CellChunkRuns, Runs),
             OracleEvery, Verdicts.data() + C * Runs,
             OracleEvery ? OracleStatus.data() + C * Runs : nullptr);
  });

  // The fold is a commutative count, but it still runs in index order so
  // the accumulation is the expression serial execution evaluates.
  std::vector<CellTally> Tallies(Cells.size());
  for (size_t C = 0; C != Cells.size(); ++C) {
    CellTally &T = Tallies[C];
    T.Result.Runs = Runs;
    for (size_t I = C * Runs; I != (C + 1) * Runs; ++I) {
      T.Result.Errors += apps::isErroneous(Verdicts[I]);
      T.Result.Timeouts += Verdicts[I] == apps::AppVerdict::Timeout;
      if (OracleEvery) {
        T.OracleChecked += OracleStatus[I] != 0;
        T.OracleViolations += OracleStatus[I] == 2;
      }
    }
  }
  return Tallies;
}

CellResult harness::runCell(apps::AppKind App, const sim::ChipProfile &Chip,
                            const stress::Environment &Env,
                            const stress::TunedStressParams &Tuned,
                            unsigned Runs, uint64_t Seed, ThreadPool *Pool) {
  return runCells({{App, &Chip, Env, &Tuned, Seed}}, Runs,
                  /*OracleEvery=*/0, Pool)
      .front()
      .Result;
}
