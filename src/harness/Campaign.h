//===- harness/Campaign.h - Parallel Tab. 5 campaign engine ----*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the paper's full Tab. 5 grid — chips x testing environments x
/// applications — as one parallel campaign and renders a JSON report.
///
/// Every (chip, env, app, run) tuple owns an RNG stream derived from the
/// campaign seed and the tuple's *canonical* identity (its position in the
/// full Tab. 1 / Tab. 5 orderings, not in the user's selection), so:
///  * the report is byte-identical for any --jobs value, and
///  * a sub-grid campaign reproduces exactly the corresponding cells of
///    the full campaign at the same seed — the property the golden
///    regression tests pin.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_HARNESS_CAMPAIGN_H
#define GPUWMM_HARNESS_CAMPAIGN_H

#include "harness/EnvironmentRunner.h"
#include "litmus/Litmus.h"

#include <iosfwd>
#include <string>
#include <vector>

namespace gpuwmm {
namespace harness {

/// The grid a campaign covers. Empty vectors are invalid; use
/// CampaignConfig::full() for the paper's complete grid.
struct CampaignConfig {
  std::vector<const sim::ChipProfile *> Chips;
  std::vector<stress::Environment> Envs;
  std::vector<apps::AppKind> Apps;
  /// Litmus catalog tests to run per chip alongside the app grid
  /// (gpuwmm campaign --litmus=a,b). Empty (the default) leaves the
  /// report byte-identical to a pre-litmus campaign.
  std::vector<const litmus::Program *> LitmusTests;
  unsigned Runs = 100;
  uint64_t Seed = 1;
  /// Cross-check every Nth run of every cell against the consistency
  /// oracle (gpuwmm campaign --oracle=N; --oracle=all means N=1): checked
  /// app runs stream their events through the incremental checker
  /// (model/StreamingChecker.h) and are validated against the model's
  /// axioms as they execute — no trace is retained, so memory stays
  /// bounded by the checker's frontier and checking every run is the
  /// default-capable path. Checked litmus runs additionally compare the
  /// checker's SC-vs-weak verdict with the operational outcome. 0 (the
  /// default) disables the oracle and keeps the oracle tally fields out
  /// of the JSON report entirely. The oracle observes only, so counts
  /// never depend on this setting.
  unsigned OracleEvery = 0;

  /// The paper's full Tab. 5 grid: 7 chips x 8 environments x 10 apps.
  static CampaignConfig full();
};

/// One (chip, environment, application) cell of the grid.
struct CampaignCell {
  const sim::ChipProfile *Chip = nullptr;
  stress::Environment Env;
  apps::AppKind App = apps::AppKind::CbeHt;
  CellResult Result;
  unsigned OracleChecked = 0;    ///< Runs validated (OracleEvery > 0).
  unsigned OracleViolations = 0; ///< Axiom violations among them.
};

/// One (chip, litmus test) cell: the best per-bank stress location's weak
/// count over Runs executions at the chip's default distance — the same
/// scan `gpuwmm litmus --stress` performs.
struct LitmusCampaignCell {
  const sim::ChipProfile *Chip = nullptr;
  const litmus::Program *Test = nullptr;
  unsigned Runs = 0;
  unsigned Weak = 0;
  unsigned OracleChecked = 0;   ///< Runs cross-checked (OracleEvery > 0).
  /// Axiom violations plus checker-vs-interpreter verdict disagreements.
  unsigned OracleViolations = 0;
};

/// A completed campaign: cells in chip-major (chip, env, app) order plus
/// the per-(chip, env) Tab. 5 "a/b" summaries in matching order.
struct CampaignReport {
  CampaignConfig Config;
  std::vector<CampaignCell> Cells;
  std::vector<EnvironmentSummary> Summaries; ///< Chips.size()*Envs.size().
  std::vector<LitmusCampaignCell> LitmusCells; ///< Chip-major, test order.

  const EnvironmentSummary &summary(size_t ChipIdx, size_t EnvIdx) const {
    return Summaries[ChipIdx * Config.Envs.size() + EnvIdx];
  }
};

/// The seed of cell (Chip, Env, App) under campaign seed \p Seed, derived
/// from canonical identities. Exposed so tests can cross-check cells
/// against direct runCell calls.
uint64_t campaignCellSeed(uint64_t Seed, const sim::ChipProfile &Chip,
                          const stress::Environment &Env, apps::AppKind App);

/// The seed of litmus cell (Chip, Test), derived from canonical chip and
/// catalog positions (disjoint from the app cells' stream space), so a
/// litmus sub-selection reproduces the full selection's cells.
uint64_t campaignLitmusSeed(uint64_t Seed, const sim::ChipProfile &Chip,
                            const litmus::Program &Test);

/// Runs the whole grid, distributing the flattened (cell, run) index space
/// over \p Pool (serial when null).
CampaignReport runCampaign(const CampaignConfig &Config,
                           ThreadPool *Pool = nullptr);

/// Runs one app cell at its canonical derived seed, parallelizing the
/// run index space over \p Pool. Counts are bit-identical to the same
/// cell inside runCampaign — the unit the sharded fabric executes and
/// the merge reassembles.
CampaignCell runCampaignAppCell(const CampaignConfig &Config,
                                const sim::ChipProfile &Chip,
                                const stress::Environment &Env,
                                apps::AppKind App,
                                ThreadPool *Pool = nullptr);

/// Runs one litmus cell (the per-bank stress scan) at its canonical
/// derived seed; bit-identical to the same cell inside runCampaign.
LitmusCampaignCell runCampaignLitmusCell(const CampaignConfig &Config,
                                         const sim::ChipProfile &Chip,
                                         const litmus::Program &Test);

/// How a sharded campaign worker runs (gpuwmm campaign --out-dir=DIR
/// [--resume] [--cells=A..B,K]; DESIGN.md Sec. 16).
struct FabricOptions {
  std::string Dir; ///< Campaign directory (manifest + shard files).
  /// Skip cells that already have a durable record in the store
  /// (tolerating torn tails: a torn cell is re-run).
  bool Resume = false;
  /// Work-list indices this worker covers (null = every cell), so N
  /// workers can stripe one grid with disjoint --cells= selections.
  const std::vector<size_t> *Selection = nullptr;
  /// Crash-injection test hook (GPUWMM_CAMPAIGN_CRASH_AFTER, RecordDir's):
  /// SIGKILL this process right after the Nth durable append, proving
  /// --resume + report recover byte-identically. 0 = off.
  unsigned CrashAfterAppends = 0;
};

/// What a fabric worker did, for the CLI's stderr summary and tests.
struct FabricOutcome {
  unsigned Completed = 0; ///< Cells run and durably appended.
  unsigned Skipped = 0;   ///< Cells already durable (--resume).
  unsigned OracleViolations = 0; ///< Across this worker's cells.
  std::string ShardPath; ///< This worker's shard file ("" if none).
  std::vector<std::string> Warnings; ///< E.g. torn tails seen on resume.
};

/// Runs \p Config's cells as a sharded campaign worker: opens (or joins)
/// the store at \p Opts.Dir, then runs each selected cell and appends
/// one fsync'd record per completion — a SIGKILL at any point loses at
/// most the in-flight cell. False + \p Err on configuration or I/O
/// errors.
bool runCampaignFabric(const CampaignConfig &Config,
                       const FabricOptions &Opts, ThreadPool *Pool,
                       FabricOutcome &Out, std::string *Err);

/// Renders the report as JSON ("gpuwmm-campaign-v2"): a schema_version +
/// tool metadata header (name and build version only — never wall-clock
/// or host information, so output is byte-stable across machines and job
/// counts), the grid, every cell's counts, the Tab. 5 summaries, and —
/// when the oracle ran — per-cell oracle tallies.
void writeCampaignJson(const CampaignReport &Report, std::ostream &OS);

} // namespace harness
} // namespace gpuwmm

#endif // GPUWMM_HARNESS_CAMPAIGN_H
