//===- perfbench/src/Workloads.cpp - The four benchmark workloads ---------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// tab5 and tab5-oracle run harness::runCampaign; hunt runs hunt::runHunt
/// into a fresh corpus directory per pass; tune runs tuning::Tuner::tune.
/// Each replay drives the same work through the layers' public stage
/// functions with the same derived seeds, so its report must equal the
/// untraced pass byte for byte.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "apps/AppCompile.h"
#include "fuzz/LitmusBridge.h"
#include "fuzz/Shrink.h"
#include "harden/LitmusHarden.h"
#include "harness/Campaign.h"
#include "hunt/Hunt.h"
#include "litmus/Litmus.h"
#include "model/StreamingChecker.h"
#include "support/Rng.h"
#include "tuning/Tuner.h"

#include <algorithm>
#include <filesystem>
#include <set>
#include <sstream>
#include <unistd.h>

using namespace gpuwmm;
using namespace perfbench;

Sizes Sizes::standard() {
  Sizes S;
  S.Tab5Runs = 4;
  S.OracleRuns = 1;
  S.HuntRounds = 30;
  S.TuneScale = 10.0;
  return S;
}

Sizes Sizes::quick() {
  Sizes S;
  S.Tab5Runs = 1;
  S.OracleRuns = 1;
  S.HuntRounds = 2;
  S.TuneScale = 0.05;
  return S;
}

namespace {

const sim::ChipProfile &titan() { return *sim::ChipProfile::lookup("titan"); }

/// "no-str+" -> "no-str-plus", "no-str-" -> "no-str-minus": metric names
/// allow neither sign.
std::string envMetricName(const stress::Environment &Env) {
  std::string N = Env.name();
  N.back() = '-';
  return N + (Env.Randomise ? "plus" : "minus");
}

/// The tail of a per-item time distribution: the highest percentile with
/// at least ten items beyond it, as (value, percentile).
std::pair<double, double> tailOf(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  if (V.size() <= 10)
    return {V.empty() ? 0.0 : V.back(), 100.0};
  const size_t Beyond = 10;
  return {V[V.size() - Beyond - 1],
          100.0 * static_cast<double>(V.size() - Beyond) /
              static_cast<double>(V.size())};
}

double ratio(double Num, double Den) { return Den == 0.0 ? 0.0 : Num / Den; }

//===----------------------------------------------------------------------===//
// tab5 / tab5-oracle
//===----------------------------------------------------------------------===//

class CampaignWorkload final : public Workload {
public:
  CampaignWorkload(harness::CampaignConfig Config,
                   harness::CampaignConfig Warm)
      : Config(std::move(Config)), Warm(std::move(Warm)) {}

  void setup(ThreadPool &Pool) override { harness::runCampaign(Warm, &Pool); }

  PassOutput pass(ThreadPool &Pool) override {
    return summarize(harness::runCampaign(Config, &Pool));
  }

  PassOutput replay(ThreadPool &Pool, SpanLog &Log, uint32_t Parent,
                    MetricMap &M) override;

private:
  PassOutput summarize(const harness::CampaignReport &R) const;

  harness::CampaignConfig Config;
  harness::CampaignConfig Warm;
};

PassOutput
CampaignWorkload::summarize(const harness::CampaignReport &R) const {
  PassOutput Out;
  std::ostringstream OS;
  harness::writeCampaignJson(R, OS);
  Out.Report = OS.str();
  unsigned Violations = 0;
  for (const harness::CampaignCell &Cell : R.Cells) {
    Out.Units += Config.OracleEvery ? Cell.OracleChecked : Cell.Result.Runs;
    Violations += Cell.OracleViolations;
    if (Config.OracleEvery && Cell.OracleChecked != Cell.Result.Runs)
      Out.Problems.push_back(std::string("cell ") + Cell.Chip->ShortName +
                             "/" + Cell.Env.name() + "/" +
                             apps::appName(Cell.App) +
                             " skipped oracle checks");
  }
  if (Violations)
    Out.Problems.push_back(std::to_string(Violations) +
                           " oracle violation(s) in the campaign");
  return Out;
}

PassOutput CampaignWorkload::replay(ThreadPool &Pool, SpanLog &Log,
                                    uint32_t Parent, MetricMap &M) {
  // The cell list in runCampaign's chip-major (chip, env, app) order; each
  // cell runs serially on one worker, as runCampaign's single-chunk cells
  // do at these run counts.
  harness::CampaignReport R;
  R.Config = Config;
  for (const sim::ChipProfile *Chip : Config.Chips)
    for (const stress::Environment &Env : Config.Envs)
      for (apps::AppKind App : Config.Apps) {
        harness::CampaignCell Cell;
        Cell.Chip = Chip;
        Cell.Env = Env;
        Cell.App = App;
        R.Cells.push_back(Cell);
      }
  std::vector<double> CellSec(R.Cells.size());

  ScopedSpan Top(Log, "harness.runCampaign", Parent);
  const Clock::time_point Start = Clock::now();
  Pool.parallelFor(R.Cells.size(), [&](size_t I) {
    harness::CampaignCell &Cell = R.Cells[I];
    ScopedSpan S(Log, "harness.runCampaignAppCell", Top.id(),
                 std::string(Cell.Chip->ShortName) + "/" + Cell.Env.name() +
                     "/" + apps::appName(Cell.App));
    Cell = harness::runCampaignAppCell(Config, *Cell.Chip, Cell.Env, Cell.App,
                                       nullptr);
    CellSec[I] = S.close();
  });
  const double Wall = secondsBetween(Start, Clock::now());
  Top.close();

  R.Summaries.resize(Config.Chips.size() * Config.Envs.size());
  for (size_t I = 0; I != R.Cells.size(); ++I) {
    const harness::CellResult &C = R.Cells[I].Result;
    harness::EnvironmentSummary &S = R.Summaries[I / Config.Apps.size()];
    S.AppsWithErrors += C.observed();
    S.AppsEffective += C.effective();
  }

  // Layer metrics: cell times split by app, environment and engine.
  std::map<std::string, double> AppSec, EnvSec;
  for (apps::AppKind App : apps::AllAppKinds)
    AppSec[apps::appName(App)] = 0.0;
  for (const stress::Environment &Env : stress::Environment::all())
    EnvSec[envMetricName(Env)] = 0.0;
  double CompiledSec = 0, CoroutineSec = 0, CompiledRuns = 0,
         CoroutineRuns = 0, Total = 0, Timeouts = 0, Errors = 0;
  for (size_t I = 0; I != R.Cells.size(); ++I) {
    const harness::CampaignCell &Cell = R.Cells[I];
    AppSec[apps::appName(Cell.App)] += CellSec[I];
    EnvSec[envMetricName(Cell.Env)] += CellSec[I];
    Total += CellSec[I];
    Timeouts += Cell.Result.Timeouts;
    Errors += Cell.Result.Errors;
    if (apps::appLowerable(Cell.App)) {
      CompiledSec += CellSec[I];
      CompiledRuns += Cell.Result.Runs;
    } else {
      CoroutineSec += CellSec[I];
      CoroutineRuns += Cell.Result.Runs;
    }
  }
  std::vector<double> CellMs(CellSec);
  for (double &V : CellMs)
    V *= 1e3;
  const auto [Tail, TailPct] = tailOf(CellMs);
  M["harness.cell_ms_p50"] = {median(CellMs), "ms"};
  M["harness.cell_ms_tail"] = {Tail, "ms"};
  M["harness.cell_ms_tail_pct"] = {TailPct, "%"};
  M["harness.pool_busy_frac"] = {ratio(Total, Wall * Pool.jobs()), "ratio"};
  for (const auto &[Name, S] : AppSec)
    M["apps." + Name + ".s"] = {S, "s"};
  for (const auto &[Name, S] : EnvSec)
    M["stress." + Name + ".s"] = {S, "s"};
  M["sim.compiled.ns_per_run"] = {1e9 * ratio(CompiledSec, CompiledRuns),
                                  "ns"};
  M["sim.coroutine.ns_per_run"] = {1e9 * ratio(CoroutineSec, CoroutineRuns),
                                   "ns"};
  M["apps.timeouts"] = {Timeouts, "count"};
  M["apps.erroneous_runs"] = {Errors, "count"};
  return summarize(R);
}

//===----------------------------------------------------------------------===//
// hunt
//===----------------------------------------------------------------------===//

class HuntWorkload final : public Workload {
public:
  HuntWorkload(uint64_t Seed, unsigned Rounds, std::string Root)
      : Seed(Seed), Rounds(Rounds), Root(std::move(Root)) {}
  ~HuntWorkload() override {
    std::error_code Ignored;
    std::filesystem::remove_all(Root, Ignored);
  }
  HuntWorkload(const HuntWorkload &) = delete;
  HuntWorkload &operator=(const HuntWorkload &) = delete;

  void setup(ThreadPool &Pool) override {
    std::filesystem::remove_all(Root);
    std::filesystem::create_directories(Root);
    hunt::HuntConfig Cfg = config(freshDir());
    Cfg.Rounds = 2;
    hunt::HuntReport R;
    std::string Err;
    hunt::runHunt(Cfg, &Pool, R, &Err);
    std::filesystem::remove_all(Cfg.CorpusDir);
  }

  PassOutput pass(ThreadPool &Pool) override {
    const hunt::HuntConfig Cfg = config(freshDir());
    hunt::HuntReport R;
    std::string Err;
    PassOutput Out;
    if (!hunt::runHunt(Cfg, &Pool, R, &Err))
      Out.Problems.push_back("runHunt failed: " + Err);
    std::filesystem::remove_all(Cfg.CorpusDir);
    return summarize(R, std::move(Out));
  }

  PassOutput replay(ThreadPool &Pool, SpanLog &Log, uint32_t Parent,
                    MetricMap &M) override;

private:
  /// A corpus directory no earlier pass has used.
  std::string freshDir() {
    return Root + "/corpus-" + std::to_string(NextDir++);
  }

  /// The CLI's default hunt budgets on titan, except four times the
  /// programs per round (so the parallel stages fill the pool), a smaller
  /// fuzzed program shape and larger Alg. 1 budgets: at the CLI's shape and
  /// budgets hunts fail or leave unclean corpora on some seeds
  /// (perfbench/README.md, "hunt").
  hunt::HuntConfig config(std::string Dir) const {
    hunt::HuntConfig Cfg;
    Cfg.Chip = &titan();
    Cfg.Rounds = Rounds;
    Cfg.Fuzz.Programs = 80;
    Cfg.Fuzz.NumVars = 2;
    Cfg.Fuzz.OpsPerThread = 3;
    Cfg.Distance = 2 * titan().PatchSizeWords;
    Cfg.HardenRuns = 128;
    Cfg.StableRuns = 1200;
    Cfg.Seed = Seed;
    Cfg.CorpusDir = std::move(Dir);
    return Cfg;
  }

  static PassOutput summarize(const hunt::HuntReport &R, PassOutput Out) {
    std::ostringstream OS;
    hunt::writeHuntJson(R, OS);
    for (const hunt::CorpusEntry &E : R.Entries)
      OS << "key " << E.Name << "\n" << E.Key << "\n";
    Out.Report = OS.str();
    Out.Units = static_cast<double>(R.ProgramsFuzzed);
    if (!R.clean())
      Out.Problems.push_back("hunt corpus is not oracle-clean");
    return Out;
  }

  uint64_t Seed;
  unsigned Rounds;
  std::string Root;
  unsigned NextDir = 0;
};

/// A shrunk case that survived dedupe (runHunt's serial triage output),
/// plus the replay's time in its harden and verify calls.
struct Survivor {
  litmus::Program Canon;
  size_t SourceIndex = 0;
  hunt::CorpusEntry E;
  double HardenSec = 0, VerifySec = 0;
};

/// runHunt's harden + verify stage for one survivor: Alg. 1 at the
/// provoking region, then VerifyRuns oracle-checked runs, retrying with
/// doubled budgets until the verify stream is clean (at most five times).
void hardenAndVerify(Survivor &S, const hunt::HuntConfig &Cfg,
                     uint64_t HardenSeed, uint64_t VerifySeed, SpanLog &Log,
                     uint32_t Parent) {
  const auto Tuned = stress::TunedStressParams::paperDefaults(*Cfg.Chip);
  const auto Stress =
      Cfg.Fuzz.Stressed
          ? litmus::LitmusRunner::MicroStress::at(
                Tuned.Seq, (S.E.ProvokingRegion % Cfg.Chip->NumBanks) *
                               Tuned.PatchWords)
          : litmus::LitmusRunner::MicroStress::none();
  const std::string Tag = "case " + std::to_string(S.SourceIndex);
  constexpr unsigned MaxHardenAttempts = 5;
  for (unsigned Attempt = 0; Attempt != MaxHardenAttempts; ++Attempt) {
    harden::LitmusHardenOptions HO;
    HO.Distance = Cfg.Distance;
    HO.CheckRuns = Cfg.HardenRuns << Attempt;
    HO.StableRuns = Cfg.StableRuns << Attempt;
    HO.Seed = Rng::deriveStream(HardenSeed, Attempt);
    HO.Stressed = Cfg.Fuzz.Stressed;
    HO.StressRegion = S.E.ProvokingRegion;
    ScopedSpan HS(Log, "harden.hardenLitmusProgram", Parent, Tag);
    const harden::LitmusHardenResult HR =
        harden::hardenLitmusProgram(S.Canon, *Cfg.Chip, HO);
    S.HardenSec += HS.close();
    S.E.Annotated = HR.Annotated;
    S.E.FenceSites = HR.NumSites;
    S.E.Fences = static_cast<unsigned>(HR.Fences.count());
    S.E.HardenRounds = HR.Insertion.Rounds;
    S.E.HardenStable = HR.Insertion.Stable;
    S.E.HardenAttempts = Attempt + 1;

    ScopedSpan VS(Log, "hunt.verify", Parent, Tag);
    S.E.VerifyRuns = Cfg.VerifyRuns;
    S.E.VerifyWeak = S.E.VerifyForbidden = 0;
    S.E.AxiomViolations = {};
    litmus::LitmusRunner Runner(*Cfg.Chip, VerifySeed);
    model::StreamingChecker Checker;
    litmus::LitmusRunOpts Opts;
    Opts.Sink = &Checker;
    for (unsigned Run = 0; Run != Cfg.VerifyRuns; ++Run) {
      Checker.begin();
      const bool Forbidden =
          Runner.runOnce(HR.Hardened, Cfg.Distance, Stress, Opts);
      const model::StreamVerdict &V = Checker.finish();
      if (Forbidden)
        ++S.E.VerifyForbidden;
      if (!V.AxiomsOk) {
        const int Idx = hunt::axiomKeyIndex(V.AxiomViolation);
        if (Idx >= 0)
          ++S.E.AxiomViolations[Idx];
      } else if (V.weak()) {
        ++S.E.VerifyWeak;
        ++S.E.AxiomViolations[hunt::axiomKeyIndex("causality")];
      }
    }
    S.VerifySec += VS.close();
    bool Clean = S.E.VerifyWeak == 0;
    for (uint64_t N : S.E.AxiomViolations)
      Clean = Clean && N == 0;
    if (Clean)
      return;
  }
}

PassOutput HuntWorkload::replay(ThreadPool &Pool, SpanLog &Log,
                                uint32_t Parent, MetricMap &M) {
  const hunt::HuntConfig Cfg = config(freshDir());
  hunt::HuntReport Report;
  Report.Config = Cfg;
  PassOutput Out;
  ScopedSpan Top(Log, "hunt.runHunt", Parent);

  double FuzzSec = 0, ShrinkSec = 0, HardenSec = 0, VerifySec = 0,
         CorpusSec = 0;
  std::vector<double> AppendMs;
  uint64_t Fsyncs = 0, Reproduced = 0, Attempts = 0;

  hunt::Corpus::OpenOptions CO;
  CO.Dir = Cfg.CorpusDir;
  hunt::Corpus C;
  std::string Err;
  bool Ok;
  {
    ScopedSpan S(Log, "hunt.Corpus.open", Top.id());
    Ok = hunt::Corpus::open(CO, Cfg.manifest(), C, &Err);
    CorpusSec += S.close();
  }
  if (Ok) {
    Report.Warnings = C.warnings();
    Report.StartRound = static_cast<unsigned>(C.lastCompletedRound() + 1);
  }

  for (unsigned Round = Report.StartRound; Ok && Round < Cfg.Rounds;
       ++Round) {
    ScopedSpan RS(Log, "hunt.round", Top.id(), std::to_string(Round));
    const uint64_t FuzzSeed = Rng::deriveStream(Cfg.Seed, 4 * Round);
    const uint64_t ShrinkSeed = Rng::deriveStream(Cfg.Seed, 4 * Round + 1);
    const uint64_t HardenSeed = Rng::deriveStream(Cfg.Seed, 4 * Round + 2);
    const uint64_t VerifySeed = Rng::deriveStream(Cfg.Seed, 4 * Round + 3);

    std::vector<fuzz::BatchEntry> Batch;
    {
      ScopedSpan S(Log, "fuzz.fuzzBatch", RS.id());
      Batch = fuzz::fuzzBatch(*Cfg.Chip, Cfg.Fuzz, FuzzSeed, &Pool);
      FuzzSec += S.close();
    }
    Report.ProgramsFuzzed += Batch.size();
    std::vector<size_t> WeakIdx;
    for (size_t I = 0; I != Batch.size(); ++I)
      if (Batch[I].R.WeakOutcomes)
        WeakIdx.push_back(I);
    Report.WeakPrograms += WeakIdx.size();

    std::vector<fuzz::ShrinkResult> Shrunk(WeakIdx.size());
    std::vector<double> ShrinkCallSec(WeakIdx.size());
    Pool.parallelFor(WeakIdx.size(), [&](size_t J) {
      const fuzz::BatchEntry &B = Batch[WeakIdx[J]];
      const litmus::Program Original =
          fuzz::toLitmusProgram(B.P, "hunt-candidate", &B.R.FirstWeak);
      fuzz::ShrinkOptions SO;
      SO.Distance = Cfg.Distance;
      SO.RunsPerAttempt = Cfg.ShrinkRuns;
      SO.Seed = Rng::deriveStream(ShrinkSeed, static_cast<uint64_t>(J));
      SO.Stressed = Cfg.Fuzz.Stressed;
      ScopedSpan S(Log, "fuzz.shrinkWeakProgram", RS.id());
      Shrunk[J] = fuzz::shrinkWeakProgram(Original, *Cfg.Chip, SO);
      ShrinkCallSec[J] = S.close();
    });
    for (double S : ShrinkCallSec)
      ShrinkSec += S;

    // Serial triage in index order, as runHunt's.
    std::vector<Survivor> Survivors;
    std::set<std::string> RoundKeys;
    for (size_t J = 0; J != Shrunk.size(); ++J) {
      fuzz::ShrinkResult &SR = Shrunk[J];
      Report.ShrinkCandidates += SR.Candidates;
      Report.ShrinkAccepted += SR.Accepted;
      Report.CrossChecks += SR.CrossChecks;
      if (!SR.OracleError.empty()) {
        Err = "round " + std::to_string(Round) +
              ": consistency checkers disagreed during shrink: " +
              SR.OracleError;
        Ok = false;
        break;
      }
      if (!SR.Reproduced) {
        ++Report.NotReproduced;
        continue;
      }
      ++Reproduced;
      Survivor S;
      S.Canon = fuzz::canonicalizeProgram(SR.Reduced);
      S.E.Key = fuzz::canonicalKey(SR.Reduced);
      S.SourceIndex = J;
      if (C.contains(S.E.Key) || !RoundKeys.insert(S.E.Key).second) {
        ++Report.Duplicates;
        continue;
      }
      S.E.Round = Round;
      S.E.OriginalOps = SR.OriginalOps;
      S.E.ReducedOps = SR.ReducedOps;
      S.E.ShrinkCandidates = SR.Candidates;
      S.E.ShrinkAccepted = SR.Accepted;
      S.E.CrossChecks = SR.CrossChecks;
      S.E.ProvokingRegion = SR.ProvokingRegion;
      Survivors.push_back(std::move(S));
    }
    if (!Ok)
      break;

    Pool.parallelFor(Survivors.size(), [&](size_t K) {
      const uint64_t Src = static_cast<uint64_t>(Survivors[K].SourceIndex);
      hardenAndVerify(Survivors[K], Cfg, Rng::deriveStream(HardenSeed, Src),
                      Rng::deriveStream(VerifySeed, Src), Log, RS.id());
    });

    for (Survivor &S : Survivors) {
      Attempts += S.E.HardenAttempts;
      HardenSec += S.HardenSec;
      VerifySec += S.VerifySec;
      ScopedSpan AS(Log, "hunt.Corpus.append", RS.id());
      Ok = C.append(std::move(S.E), &Err);
      const double Sec = AS.close();
      CorpusSec += Sec;
      AppendMs.push_back(1e3 * Sec);
      ++Fsyncs;
      if (!Ok)
        break;
      ++Report.NewEntries;
    }
    if (!Ok)
      break;
    ScopedSpan MS(Log, "hunt.Corpus.markRoundDone", RS.id());
    Ok = C.markRoundDone(Round, &Err);
    const double Sec = MS.close();
    CorpusSec += Sec;
    AppendMs.push_back(1e3 * Sec);
    ++Fsyncs;
    if (Ok)
      ++Report.RoundsRun;
  }
  Top.close();
  std::filesystem::remove_all(Cfg.CorpusDir);
  if (!Ok)
    Out.Problems.push_back("hunt replay failed: " + Err);

  Report.Entries = C.entries();
  for (const hunt::CorpusEntry &E : Report.Entries) {
    Report.OracleChecked += E.VerifyRuns;
    Report.OracleWeak += E.VerifyWeak;
    Report.OracleForbidden += E.VerifyForbidden;
    for (size_t I = 0; I != hunt::NumAxioms; ++I)
      Report.AxiomCounts[I] += E.AxiomViolations[I];
  }

  M["fuzz.batch.s"] = {FuzzSec, "s"};
  M["fuzz.weak_frac"] = {
      ratio(static_cast<double>(Report.WeakPrograms),
            static_cast<double>(Report.ProgramsFuzzed)),
      "ratio"};
  M["fuzz.shrink.s"] = {ShrinkSec, "s"};
  M["fuzz.shrink.accept_frac"] = {
      ratio(static_cast<double>(Report.ShrinkAccepted),
            static_cast<double>(Report.ShrinkCandidates)),
      "ratio"};
  M["fuzz.shrink.cross_checks"] = {static_cast<double>(Report.CrossChecks),
                                   "count"};
  M["harden.s"] = {HardenSec, "s"};
  M["harden.attempts"] = {static_cast<double>(Attempts), "count"};
  M["hunt.verify.s"] = {VerifySec, "s"};
  M["hunt.dup_frac"] = {ratio(static_cast<double>(Report.Duplicates),
                              static_cast<double>(Reproduced)),
                        "ratio"};
  M["support.fsyncs"] = {static_cast<double>(Fsyncs), "count"};
  M["support.append_ms_p50"] = {median(AppendMs), "ms"};
  M["hunt.corpus.s"] = {CorpusSec, "s"};
  return summarize(Report, std::move(Out));
}

//===----------------------------------------------------------------------===//
// tune
//===----------------------------------------------------------------------===//

class TuneWorkload final : public Workload {
public:
  TuneWorkload(uint64_t Seed, double Scale) : Seed(Seed), Scale(Scale) {}

  void setup(ThreadPool &Pool) override {
    tuning::Tuner(titan(), Seed).tune(Sizes::quick().TuneScale, &Pool);
  }

  PassOutput pass(ThreadPool &Pool) override {
    return summarize(tuning::Tuner(titan(), Seed).tune(Scale, &Pool));
  }

  PassOutput replay(ThreadPool &Pool, SpanLog &Log, uint32_t Parent,
                    MetricMap &M) override;

private:
  static PassOutput summarize(const tuning::TuningResult &R) {
    std::ostringstream OS;
    OS << "patch_words " << R.Params.PatchWords << "\nsequence "
       << R.Params.Seq.str() << "\nspread " << R.Params.Spread
       << "\nscratch_regions " << R.Params.ScratchRegions
       << "\nexecutions " << R.Executions << "\n";
    for (const tuning::SequenceScore &S : R.SequenceRanking)
      OS << "sequence_score " << S.Seq.str() << " " << S.Scores[0] << " "
         << S.Scores[1] << " " << S.Scores[2] << "\n";
    for (const tuning::SpreadScore &S : R.SpreadRanking)
      OS << "spread_score " << S.Spread << " " << S.Scores[0] << " "
         << S.Scores[1] << " " << S.Scores[2] << "\n";
    PassOutput Out;
    Out.Report = OS.str();
    Out.Units = static_cast<double>(R.Executions);
    return Out;
  }

  uint64_t Seed;
  double Scale;
};

PassOutput TuneWorkload::replay(ThreadPool &Pool, SpanLog &Log,
                                uint32_t Parent, MetricMap &M) {
  // Tuner::tune's three stages with its derived seeds and budgets.
  const sim::ChipProfile &Chip = titan();
  const auto Tests = litmus::tuningPrograms();
  auto Scaled = [this](unsigned N) {
    return std::max(8u, static_cast<unsigned>(N * Scale));
  };
  tuning::TuningResult R;
  ScopedSpan Top(Log, "tuning.Tuner.tune", Parent);

  ScopedSpan PS(Log, "tuning.PatchFinder.scan", Top.id());
  tuning::PatchFinder PF(Chip, Rng::deriveStream(Seed, 1));
  tuning::PatchFinder::Config PFCfg;
  PFCfg.NumLocations = 256;
  PFCfg.Executions = Scaled(50);
  PFCfg.Tests = Tests;
  R.Patch = tuning::PatchFinder::decide(PF.scan(PFCfg, &Pool), PFCfg.Eps);
  const double PatchSec = PS.close();
  unsigned P = Chip.PatchSizeWords;
  if (R.Patch.CriticalPatchSize)
    P = *R.Patch.CriticalPatchSize;
  else if (R.Patch.MajorityPatchSize)
    P = *R.Patch.MajorityPatchSize;
  R.Params.PatchWords = P;

  ScopedSpan SS(Log, "tuning.SequenceTuner.rankAll", Top.id());
  tuning::SequenceTuner ST(Chip, Rng::deriveStream(Seed, 2));
  tuning::SequenceTuner::Config STCfg;
  STCfg.NumLocations = 256;
  STCfg.Executions = Scaled(30);
  STCfg.Tests = Tests;
  R.SequenceRanking = ST.rankAll(P, STCfg, &Pool);
  R.Params.Seq = tuning::SequenceTuner::selectBest(R.SequenceRanking);
  const double SeqSec = SS.close();

  ScopedSpan SpS(Log, "tuning.SpreadTuner.rankAll", Top.id());
  tuning::SpreadTuner SpT(Chip, Rng::deriveStream(Seed, 3));
  tuning::SpreadTuner::Config SpCfg;
  SpCfg.MaxSpread = 16;
  SpCfg.Executions = Scaled(500);
  SpCfg.Tests = Tests;
  R.SpreadRanking = SpT.rankAll(P, R.Params.Seq, SpCfg, &Pool);
  R.Params.Spread = tuning::SpreadTuner::selectBest(R.SpreadRanking);
  R.Params.ScratchRegions = 64;
  const double SpreadSec = SpS.close();
  R.Executions = PF.executions() + ST.executions() + SpT.executions();

  M["tuning.patch.s"] = {PatchSec, "s"};
  M["tuning.sequence.s"] = {SeqSec, "s"};
  M["tuning.spread.s"] = {SpreadSec, "s"};
  M["tuning.patch.ns_per_exec"] = {
      1e9 * ratio(PatchSec, static_cast<double>(PF.executions())), "ns"};
  M["tuning.sequence.ns_per_exec"] = {
      1e9 * ratio(SeqSec, static_cast<double>(ST.executions())), "ns"};
  M["tuning.spread.ns_per_exec"] = {
      1e9 * ratio(SpreadSec, static_cast<double>(SpT.executions())), "ns"};
  return summarize(R);
}

/// The library seeds a benchmark seed picks from, per workload: benchmark
/// seed N runs member N mod size. Each member ran without a failed check,
/// and the members of one family match on the count that dominates the
/// pass's cost, so the seed changes what is computed but not how much
/// (perfbench/README.md, "Seeds", has the scans they were picked from).
///
/// tab5: campaign seeds whose 4-run grid has 52-53 timeouts (the median of
/// seeds 1-30; a tpo-tm timeout costs ~100x a completed run). Seed 4 also
/// qualifies but is left out: its warm-up makes ls-bh read outside the
/// memory image (an unchecked access in Release builds).
constexpr uint64_t Tab5Seeds[] = {2, 5, 7, 26, 28};
/// tab5-oracle: a family of one. The checked cost of a single tpo-tm run
/// spans 0.04-46 s across seeds and no proxy predicts it. A pass is eight
/// such runs (one per environment) on the pool, so its wall time is the
/// makespan of eight uneven cells. Seed 28 is among the cheapest of seeds
/// 1-100 (13.1 busy seconds) and the only cheap one whose cells pack onto
/// four workers with almost no idle tail, whatever order the first three
/// finish in.
constexpr uint64_t OracleSeeds[] = {28};
/// hunt: seeds of 30 rounds that hardened every entry at the first
/// attempt and stayed oracle-clean (escalated hardening doubles budgets up
/// to four times, a 2x swing in pass time).
constexpr uint64_t HuntSeeds[] = {3, 4, 5, 8, 21, 22, 27, 28};

template <size_t N>
uint64_t member(const uint64_t (&Family)[N], uint64_t Seed) {
  return Family[Seed % N];
}

} // namespace

std::unique_ptr<Workload> perfbench::makeWorkload(WorkloadKind K,
                                                  uint64_t Seed,
                                                  const Sizes &S,
                                                  const std::string &WorkDir) {
  switch (K) {
  case WorkloadKind::Tab5: {
    harness::CampaignConfig Config = harness::CampaignConfig::full();
    Config.Runs = S.Tab5Runs;
    Config.Seed = member(Tab5Seeds, Seed);
    // Warm-up: eight runs of every cell but tpo-tm's (whose timeouts are
    // most of a pass) compile each chip's plans and fill the workers'
    // context pools.
    harness::CampaignConfig Warm = Config;
    Warm.Apps.erase(
        std::find(Warm.Apps.begin(), Warm.Apps.end(), apps::AppKind::TpoTm));
    Warm.Runs = 8;
    return std::make_unique<CampaignWorkload>(std::move(Config),
                                              std::move(Warm));
  }
  case WorkloadKind::Tab5Oracle: {
    harness::CampaignConfig Config = harness::CampaignConfig::full();
    Config.Chips = {&titan()};
    Config.Runs = S.OracleRuns;
    Config.OracleEvery = 1;
    Config.Seed = member(OracleSeeds, Seed);
    // Warm-up: four checked runs of every cell but tpo-tm's (whose
    // checked runs are most of a pass) size the checkers and contexts.
    harness::CampaignConfig Warm = Config;
    Warm.Apps.erase(
        std::find(Warm.Apps.begin(), Warm.Apps.end(), apps::AppKind::TpoTm));
    Warm.Runs = 4;
    return std::make_unique<CampaignWorkload>(std::move(Config),
                                              std::move(Warm));
  }
  case WorkloadKind::Hunt:
    return std::make_unique<HuntWorkload>(
        member(HuntSeeds, Seed), S.HuntRounds,
        WorkDir + "/hunt-" + std::to_string(::getpid()));
  case WorkloadKind::Tune:
    return std::make_unique<TuneWorkload>(Seed, S.TuneScale);
  }
  return nullptr;
}
