//===- harness/Campaign.cpp - Parallel Tab. 5 campaign engine ----------------===//

#include "harness/Campaign.h"

#include "apps/AppCompile.h"
#include "harness/ShardStore.h"
#include "harness/WorkList.h"
#include "model/StreamingChecker.h"
#include "sim/BatchExec.h"
#include "support/Check.h"

#include <algorithm>
#include <numeric>
#include <ostream>
#include <set>

using namespace gpuwmm;
using namespace gpuwmm::harness;

namespace {

/// Canonical position of \p Chip in the Tab. 1 ordering.
uint64_t canonicalChipIndex(const sim::ChipProfile &Chip) {
  size_t Count = 0;
  const sim::ChipProfile *All = sim::ChipProfile::all(Count);
  size_t I = 0;
  while (I != Count && &All[I] != &Chip)
    ++I;
  GPUWMM_CHECK(I != Count, "chip not in the canonical table");
  return I;
}

/// Canonical position of \p Env in the Tab. 5 column ordering.
uint64_t canonicalEnvIndex(const stress::Environment &Env) {
  const auto &All = stress::Environment::all();
  size_t I = 0;
  while (I != All.size() &&
         (All[I].Kind != Env.Kind || All[I].Randomise != Env.Randomise))
    ++I;
  GPUWMM_CHECK(I != All.size(), "environment not in the canonical table");
  return I;
}

/// Canonical position of \p App in the Tab. 4 ordering.
uint64_t canonicalAppIndex(apps::AppKind App) {
  size_t I = 0;
  while (I != apps::AllAppKinds.size() && apps::AllAppKinds[I] != App)
    ++I;
  GPUWMM_CHECK(I != apps::AllAppKinds.size(),
               "app not in the canonical table");
  return I;
}

/// Canonical position of \p Test in the litmus catalog.
uint64_t canonicalLitmusIndex(const litmus::Program &Test) {
  const auto &All = litmus::catalog();
  size_t I = 0;
  while (I != All.size() && All[I].Name != Test.Name)
    ++I;
  GPUWMM_CHECK(I != All.size(), "litmus test not in the catalog");
  return I;
}

} // namespace

CampaignConfig CampaignConfig::full() {
  CampaignConfig Config;
  size_t Count = 0;
  const sim::ChipProfile *All = sim::ChipProfile::all(Count);
  for (size_t I = 0; I != Count; ++I)
    Config.Chips.push_back(&All[I]);
  for (const stress::Environment &Env : stress::Environment::all())
    Config.Envs.push_back(Env);
  for (apps::AppKind App : apps::AllAppKinds)
    Config.Apps.push_back(App);
  return Config;
}

uint64_t harness::campaignCellSeed(uint64_t Seed,
                                   const sim::ChipProfile &Chip,
                                   const stress::Environment &Env,
                                   apps::AppKind App) {
  // Pack the canonical identity into one stream index. The factors are the
  // full table sizes, not the selection sizes, so a sub-grid draws the
  // same streams as the full grid.
  const uint64_t NumEnvs = stress::Environment::all().size();
  const uint64_t NumApps = apps::AllAppKinds.size();
  const uint64_t Packed =
      (canonicalChipIndex(Chip) * NumEnvs + canonicalEnvIndex(Env)) *
          NumApps +
      canonicalAppIndex(App);
  return Rng::deriveStream(Seed, Packed);
}

uint64_t harness::campaignLitmusSeed(uint64_t Seed,
                                     const sim::ChipProfile &Chip,
                                     const litmus::Program &Test) {
  // A stream space disjoint from the app cells' (whose packed indices are
  // bounded by the full grid size, far below 1 << 20).
  const uint64_t Packed =
      (uint64_t{1} << 20) +
      canonicalChipIndex(Chip) * litmus::catalog().size() +
      canonicalLitmusIndex(Test);
  return Rng::deriveStream(Seed, Packed);
}

CampaignReport harness::runCampaign(const CampaignConfig &Config,
                                    ThreadPool *Pool) {
  GPUWMM_CHECK(!Config.Chips.empty() && !Config.Envs.empty() &&
                   !Config.Apps.empty(),
               "empty campaign grid");
  CampaignReport Report;
  Report.Config = Config;

  // Lay out the cells (and their tuned parameters) up front, then run
  // them as one flattened (cell, chunk) space: with only tens of cells
  // but hundreds of runs each, cell-level distribution alone would starve
  // workers at the tail.
  std::vector<stress::TunedStressParams> Tuned;
  Tuned.reserve(Config.Chips.size());
  for (const sim::ChipProfile *Chip : Config.Chips)
    Tuned.push_back(stress::TunedStressParams::paperDefaults(*Chip));
  std::vector<CellSpec> Specs;
  for (size_t C = 0; C != Config.Chips.size(); ++C)
    for (const stress::Environment &Env : Config.Envs)
      for (apps::AppKind App : Config.Apps)
        Specs.push_back(
            {App, Config.Chips[C], Env, &Tuned[C],
             campaignCellSeed(Config.Seed, *Config.Chips[C], Env, App)});
  const std::vector<CellTally> Tallies =
      runCells(Specs, Config.Runs, Config.OracleEvery, Pool);
  Report.Cells.reserve(Specs.size());
  for (size_t I = 0; I != Specs.size(); ++I)
    Report.Cells.push_back({Specs[I].Chip, Specs[I].Env, Specs[I].App,
                            Tallies[I].Result, Tallies[I].OracleChecked,
                            Tallies[I].OracleViolations});

  // Litmus cells: for each (chip, test), the `gpuwmm litmus --stress`
  // scan — Runs executions per per-bank stress location, best location's
  // weak count — at the chip's default distance. Each cell owns a
  // canonical-identity seed, so results are job-count independent and a
  // sub-selection reproduces the full selection.
  if (!Config.LitmusTests.empty()) {
    Report.LitmusCells.resize(Config.Chips.size() *
                              Config.LitmusTests.size());
    parallelFor(Pool, Report.LitmusCells.size(), [&](size_t I) {
      Report.LitmusCells[I] = runCampaignLitmusCell(
          Config, *Config.Chips[I / Config.LitmusTests.size()],
          *Config.LitmusTests[I % Config.LitmusTests.size()]);
    });
  }

  // Tab. 5 "a/b" summaries, one per (chip, env) in cell order.
  Report.Summaries.resize(Config.Chips.size() * Config.Envs.size());
  for (size_t CellIdx = 0; CellIdx != Report.Cells.size(); ++CellIdx)
    Report.Summaries[CellIdx / Config.Apps.size()].add(
        Report.Cells[CellIdx].Result);
  return Report;
}

CampaignCell harness::runCampaignAppCell(const CampaignConfig &Config,
                                         const sim::ChipProfile &Chip,
                                         const stress::Environment &Env,
                                         apps::AppKind App,
                                         ThreadPool *Pool) {
  // runCampaign's per-run math, one cell wide: this cell's counts are
  // bit-identical to the monolithic campaign's.
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  const CellTally T =
      runCells({{App, &Chip, Env, &Tuned,
                 campaignCellSeed(Config.Seed, Chip, Env, App)}},
               Config.Runs, Config.OracleEvery, Pool)
          .front();
  return {&Chip, Env, App, T.Result, T.OracleChecked, T.OracleViolations};
}

LitmusCampaignCell
harness::runCampaignLitmusCell(const CampaignConfig &Config,
                               const sim::ChipProfile &Chip,
                               const litmus::Program &Test) {
  // The `gpuwmm litmus --stress` scan: Runs executions per per-bank
  // stress location, best location's weak count, at the chip's default
  // distance and the cell's canonical-identity seed.
  LitmusCampaignCell Cell;
  Cell.Chip = &Chip;
  Cell.Test = &Test;
  Cell.Runs = Config.Runs;
  litmus::LitmusRunner Runner(Chip,
                              campaignLitmusSeed(Config.Seed, Chip, Test));
  const unsigned Distance = 2 * Chip.PatchSizeWords;
  model::StreamingChecker Checker;
  for (unsigned Region = 0; Region != Chip.NumBanks; ++Region) {
    const auto Stress =
        litmus::LitmusRunner::MicroStress::tuned(Chip, Region);
    unsigned Weak = 0;
    for (unsigned Run = 0; Run != Config.Runs; ++Run) {
      // Checked runs stream through the incremental oracle: the axioms
      // must hold and the checker's SC-vs-weak classification must agree
      // with the operational outcome. The oracle observes only, so the
      // weak counts are identical with it on or off.
      const bool Check =
          Config.OracleEvery != 0 && Run % Config.OracleEvery == 0;
      litmus::LitmusRunner::RunOpts Opts;
      if (Check) {
        Checker.begin();
        Opts.Sink = &Checker;
      }
      const bool Forbidden = Runner.runOnce(Test, Distance, Stress, Opts);
      Weak += Forbidden;
      if (!Check)
        continue;
      const model::StreamVerdict &R = Checker.finish();
      ++Cell.OracleChecked;
      if (!R.AxiomsOk || R.weak() != Forbidden)
        ++Cell.OracleViolations;
    }
    Cell.Weak = std::max(Cell.Weak, Weak);
  }
  return Cell;
}

bool harness::runCampaignFabric(const CampaignConfig &Config,
                                const FabricOptions &Opts, ThreadPool *Pool,
                                FabricOutcome &Out, std::string *Err) {
  Out = FabricOutcome();
  GPUWMM_CHECK(!Config.Chips.empty() && !Config.Envs.empty() &&
                   !Config.Apps.empty(),
               "empty campaign grid");
  const std::vector<CampaignWorkItem> Work = buildWorkList(Config);

  // Cell identity is the store's dedupe key, so a selection that aliases
  // cells (e.g. --chips=titan,titan) would collapse in the merge and can
  // never reproduce the monolithic report — refuse it up front.
  {
    std::set<std::string> Keys;
    for (const CampaignWorkItem &Item : Work)
      if (!Keys.insert(workItemKey(Config, Item)).second) {
        if (Err)
          *Err = "campaign selection repeats cell '" +
                 workItemKey(Config, Item) +
                 "'; sharded campaigns need a duplicate-free grid";
        return false;
      }
  }

  std::optional<ShardStore> Store =
      ShardStore::open(Opts.Dir, Config, Err, Opts.CrashAfterAppends);
  if (!Store)
    return false;

  std::set<std::string> Durable;
  if (Opts.Resume) {
    // Torn tails are tolerated here by construction: the torn record
    // never parses, so its cell is absent from Durable and re-runs.
    LoadedShards Shards;
    if (!loadCampaignShards(Opts.Dir, Shards, Err))
      return false;
    Out.Warnings = Shards.Warnings;
    for (const ShardRecord &R : Shards.Records)
      Durable.insert(R.key());
  }

  std::vector<size_t> All;
  const std::vector<size_t> *Selection = Opts.Selection;
  if (!Selection) {
    All.resize(Work.size());
    std::iota(All.begin(), All.end(), size_t{0});
    Selection = &All;
  }

  for (const size_t Idx : *Selection) {
    GPUWMM_CHECK(Idx < Work.size(), "cell index outside the work list");
    const CampaignWorkItem &Item = Work[Idx];
    const std::string Key = workItemKey(Config, Item);
    if (Durable.count(Key)) {
      ++Out.Skipped;
      continue;
    }
    ShardRecord Record;
    Record.Chip = Config.Chips[Item.ChipIdx]->ShortName;
    Record.Seed = workItemSeed(Config, Item);
    Record.Runs = Config.Runs;
    if (Item.ItemKind == CampaignWorkItem::Kind::Litmus) {
      const LitmusCampaignCell Cell = runCampaignLitmusCell(
          Config, *Config.Chips[Item.ChipIdx],
          *Config.LitmusTests[Item.TestIdx]);
      Record.IsLitmus = true;
      Record.Test = Cell.Test->Name;
      Record.Weak = Cell.Weak;
      Record.OracleChecked = Cell.OracleChecked;
      Record.OracleViolations = Cell.OracleViolations;
    } else {
      const CampaignCell Cell = runCampaignAppCell(
          Config, *Config.Chips[Item.ChipIdx], Config.Envs[Item.EnvIdx],
          Config.Apps[Item.AppIdx], Pool);
      Record.Env = Cell.Env.name();
      Record.App = apps::appName(Cell.App);
      Record.Errors = Cell.Result.Errors;
      Record.Timeouts = Cell.Result.Timeouts;
      Record.OracleChecked = Cell.OracleChecked;
      Record.OracleViolations = Cell.OracleViolations;
    }
    if (!Store->append(Record, Err))
      return false;
    ++Out.Completed;
    Out.OracleViolations += Record.OracleViolations;
  }
  Out.ShardPath = Store->shardPath();
  return true;
}

void harness::writeCampaignJson(const CampaignReport &Report,
                                std::ostream &OS) {
  const CampaignConfig &Config = Report.Config;
  // The header carries only build-stable metadata (schema + tool name and
  // version) — never wall-clock or host facts, so the report stays
  // byte-identical across machines and job counts for one seed.
  OS << "{\n"
     << "  \"schema\": \"gpuwmm-campaign-v2\",\n"
     << "  \"schema_version\": 2,\n"
     << "  \"tool\": {\"name\": \"gpuwmm\", \"version\": \"" GPUWMM_VERSION
        "\"},\n"
     << "  \"seed\": " << Config.Seed << ",\n"
     << "  \"runs\": " << Config.Runs << ",\n";
  if (Config.OracleEvery)
    OS << "  \"oracle_every\": " << Config.OracleEvery << ",\n";

  OS << "  \"chips\": [";
  for (size_t I = 0; I != Config.Chips.size(); ++I)
    OS << (I ? ", " : "") << '"' << Config.Chips[I]->ShortName << '"';
  OS << "],\n  \"envs\": [";
  for (size_t I = 0; I != Config.Envs.size(); ++I)
    OS << (I ? ", " : "") << '"' << Config.Envs[I].name() << '"';
  OS << "],\n  \"apps\": [";
  for (size_t I = 0; I != Config.Apps.size(); ++I)
    OS << (I ? ", " : "") << '"' << apps::appName(Config.Apps[I]) << '"';
  OS << "],\n";

  // The litmus dimension is optional; an empty selection leaves the
  // report byte-identical to a pre-litmus campaign (pinned goldens).
  if (!Report.LitmusCells.empty()) {
    OS << "  \"litmus\": [\n";
    for (size_t I = 0; I != Report.LitmusCells.size(); ++I) {
      const LitmusCampaignCell &Cell = Report.LitmusCells[I];
      OS << "    {\"chip\": \"" << Cell.Chip->ShortName
         << "\", \"test\": \"" << Cell.Test->Name
         << "\", \"runs\": " << Cell.Runs << ", \"weak\": " << Cell.Weak;
      if (Config.OracleEvery)
        OS << ", \"oracle_checked\": " << Cell.OracleChecked
           << ", \"oracle_violations\": " << Cell.OracleViolations;
      OS << "}" << (I + 1 == Report.LitmusCells.size() ? "" : ",") << "\n";
    }
    OS << "  ],\n";
  }

  OS << "  \"cells\": [\n";
  for (size_t I = 0; I != Report.Cells.size(); ++I) {
    const CampaignCell &Cell = Report.Cells[I];
    const CellResult &R = Cell.Result;
    OS << "    {\"chip\": \"" << Cell.Chip->ShortName << "\", \"env\": \""
       << Cell.Env.name() << "\", \"app\": \"" << apps::appName(Cell.App)
       << "\", \"runs\": " << R.Runs << ", \"errors\": " << R.Errors
       << ", \"timeouts\": " << R.Timeouts << ", \"effective\": "
       << (R.effective() ? "true" : "false")
       // Which engine the cell's runs took (additive v2 key; derived, not
       // stored — every app runs compiled unless --engine=scalar).
       << ", \"engine\": \""
       << (sim::engineMode() == sim::EngineMode::Scalar ? "scalar"
                                                         : "batched")
       << '"';
    if (Config.OracleEvery)
      OS << ", \"oracle_checked\": " << Cell.OracleChecked
         << ", \"oracle_violations\": " << Cell.OracleViolations;
    OS << "}" << (I + 1 == Report.Cells.size() ? "" : ",") << "\n";
  }
  OS << "  ],\n";

  OS << "  \"summaries\": [\n";
  for (size_t C = 0; C != Config.Chips.size(); ++C)
    for (size_t E = 0; E != Config.Envs.size(); ++E) {
      const EnvironmentSummary &S = Report.summary(C, E);
      const bool Last =
          C + 1 == Config.Chips.size() && E + 1 == Config.Envs.size();
      OS << "    {\"chip\": \"" << Config.Chips[C]->ShortName
         << "\", \"env\": \"" << Config.Envs[E].name()
         << "\", \"apps_effective\": " << S.AppsEffective
         << ", \"apps_with_errors\": " << S.AppsWithErrors << "}"
         << (Last ? "" : ",") << "\n";
    }
  OS << "  ]\n}\n";
}
