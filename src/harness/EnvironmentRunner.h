//===- harness/EnvironmentRunner.h - Tab. 5 experiment driver ---*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the paper's Sec. 4 experiment: execute an application repeatedly
/// under a testing environment and record how often erroneous runs
/// (post-condition failures, timeouts, faults) occur. An environment is
/// "effective" for a chip/application pair when errors appear in more than
/// 5% of executions.
///
/// Every execution's seed is derived from (cell seed, run index) via
/// Rng::deriveStream, so runs are independent cells of an index space and
/// can execute on a ThreadPool with results bit-identical to serial
/// execution (DESIGN.md Sec. 11).
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_HARNESS_ENVIRONMENTRUNNER_H
#define GPUWMM_HARNESS_ENVIRONMENTRUNNER_H

#include "apps/Application.h"
#include "stress/Environment.h"
#include "support/ThreadPool.h"

#include <vector>

namespace gpuwmm {
namespace harness {

/// Error statistics for one (chip, application, environment) cell.
struct CellResult {
  unsigned Runs = 0;
  unsigned Errors = 0;   ///< All erroneous runs (including timeouts).
  unsigned Timeouts = 0; ///< Runs that exceeded the tick budget.

  /// Any erroneous run observed?
  bool observed() const { return Errors > 0; }

  /// The paper's effectiveness threshold: errors in more than 5% of runs.
  bool effective() const {
    return Runs != 0 &&
           static_cast<double>(Errors) > 0.05 * static_cast<double>(Runs);
  }

  double errorRate() const {
    return Runs == 0 ? 0.0
                     : static_cast<double>(Errors) /
                           static_cast<double>(Runs);
  }

  bool operator==(const CellResult &O) const {
    return Runs == O.Runs && Errors == O.Errors && Timeouts == O.Timeouts;
  }
};

/// Runs per work unit when a cell's runs are spread over a pool
/// (runCell, runEnvironmentSummary, the campaign). Chunking is
/// wall-clock only: run I's seed depends on I alone, never on its chunk.
inline constexpr unsigned CellChunkRuns = 64;

/// Summary over the ten applications for one (chip, environment) pair, as
/// presented in Tab. 5's "a/b" cells.
struct EnvironmentSummary {
  unsigned AppsWithErrors = 0; ///< b: applications with any erroneous run.
  unsigned AppsEffective = 0;  ///< a: applications above the 5% threshold.

  /// Counts one application's cell.
  void add(const CellResult &R) {
    AppsWithErrors += R.observed();
    AppsEffective += R.effective();
  }

  bool operator==(const EnvironmentSummary &O) const {
    return AppsWithErrors == O.AppsWithErrors &&
           AppsEffective == O.AppsEffective;
  }
};

/// One application cell to run: \p App under \p Env on \p Chip, run I
/// executing with seed deriveStream(Seed, I).
struct CellSpec {
  apps::AppKind App = apps::AppKind::CbeHt;
  const sim::ChipProfile *Chip = nullptr;
  stress::Environment Env;
  const stress::TunedStressParams *Tuned = nullptr;
  uint64_t Seed = 0;
};

/// One cell's counts, with the oracle's when it sampled runs.
struct CellTally {
  CellResult Result;
  unsigned OracleChecked = 0;    ///< Runs streamed through the checker.
  unsigned OracleViolations = 0; ///< Axiom violations among them.
};

/// Runs \p Runs executions of every cell in \p Cells: the one per-run
/// loop behind runCell, runEnvironmentSummary and the campaign. Every
/// \p OracleEvery-th run of a cell (none when 0) streams its events
/// through the worker's incremental checker as it executes: no trace is
/// retained, so checking every run costs frontier-bounded memory, and
/// the checker only observes, so counts are the same with it on or off.
/// The flattened (cell, chunk of CellChunkRuns runs) space is spread
/// over \p Pool, so small cells still fill every worker; results are
/// bit-identical for any pool and engine.
std::vector<CellTally> runCells(const std::vector<CellSpec> &Cells,
                                unsigned Runs, unsigned OracleEvery,
                                ThreadPool *Pool);

/// Runs \p Runs executions of one cell. Fences are as shipped: no inserted
/// fences; built-in fences enabled unless the app is a -nf variant. Run I
/// executes with seed deriveStream(Seed, I); when \p Pool is non-null the
/// runs are distributed over it (same result for any job count).
CellResult runCell(apps::AppKind App, const sim::ChipProfile &Chip,
                   const stress::Environment &Env,
                   const stress::TunedStressParams &Tuned, unsigned Runs,
                   uint64_t Seed, ThreadPool *Pool = nullptr);

/// Runs a full Tab. 5 row cell: all ten applications for one
/// (chip, environment) pair. Application A's cell runs with seed
/// deriveStream(Seed, index of A in AllAppKinds); the (app, run) index
/// space is flattened so a pool is kept busy across app boundaries.
EnvironmentSummary
runEnvironmentSummary(const sim::ChipProfile &Chip,
                      const stress::Environment &Env,
                      const stress::TunedStressParams &Tuned, unsigned Runs,
                      uint64_t Seed, ThreadPool *Pool = nullptr);

} // namespace harness
} // namespace gpuwmm

#endif // GPUWMM_HARNESS_ENVIRONMENTRUNNER_H
