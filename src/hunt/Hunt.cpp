//===- hunt/Hunt.cpp - Closed-loop bug-mining pipeline ----------------------===//

#include "hunt/Hunt.h"

#include "fuzz/LitmusBridge.h"
#include "fuzz/Shrink.h"
#include "harden/LitmusHarden.h"
#include "litmus/Litmus.h"
#include "model/StreamingChecker.h"
#include "support/Rng.h"

#include <ostream>
#include <set>
#include <utility>

using namespace gpuwmm;
using namespace gpuwmm::hunt;

CorpusManifest HuntConfig::manifest() const {
  CorpusManifest M;
  M.Chip = Chip->ShortName;
  M.Seed = Seed;
  M.Programs = Fuzz.Programs;
  M.RunsPerProgram = Fuzz.RunsPerProgram;
  M.NumVars = Fuzz.NumVars;
  M.OpsPerThread = Fuzz.OpsPerThread;
  M.Distance = Distance;
  M.ShrinkRuns = ShrinkRuns;
  M.HardenRuns = HardenRuns;
  M.StableRuns = StableRuns;
  M.VerifyRuns = VerifyRuns;
  return M;
}

bool HuntReport::clean() const {
  if (OracleWeak)
    return false;
  for (uint64_t N : AxiomCounts)
    if (N)
      return false;
  return true;
}

namespace {

/// A shrunk case that survived dedupe, awaiting harden + verify.
struct Survivor {
  litmus::Program Canon;
  std::string Key;
  /// Index among this round's weak cases — the harden/verify seed key.
  /// Keyed here rather than by position in the survivor list so a
  /// resumed round (where already-durable entries dedupe away and the
  /// list shrinks) still derives the same seeds per case and reproduces
  /// identical entry statistics.
  size_t SourceIndex = 0;
  CorpusEntry E; ///< Shrink-stage fields filled; rest after harden.
  uint64_t HardenRuns = 0; ///< Litmus executions Alg. 1 consumed.
  uint64_t VerifyRuns = 0; ///< Oracle-checked executions, all attempts.
};

/// Hardening attempts per survivor before giving up and recording the
/// residual violations honestly (each attempt doubles Alg. 1's budgets).
constexpr unsigned MaxHardenAttempts = 5;

/// Hardens one survivor at its provoking stress region, then runs the
/// hardened program VerifyRuns times under the streaming oracle, tallying
/// weak/forbidden outcomes and per-axiom violations. The verify stream is
/// the spec, not a dice roll: it is fixed per survivor, and when the
/// hardened program still shows a non-SC run on it (Alg. 1's empirical
/// checks are statistical — a rare reordering can slip past them),
/// hardening is retried with doubled check/stability budgets and a fresh
/// oracle seed until the verify stream is clean. Pure function of
/// (survivor, seeds) — safe as a parallel per-index stage.
void hardenAndVerify(Survivor &S, const HuntConfig &Cfg,
                     uint64_t HardenSeed, uint64_t VerifySeed) {
  const auto Stress =
      Cfg.Fuzz.Stressed
          ? litmus::LitmusRunner::MicroStress::tuned(*Cfg.Chip,
                                                     S.E.ProvokingRegion)
          : litmus::LitmusRunner::MicroStress::none();

  for (unsigned Attempt = 0; Attempt != MaxHardenAttempts; ++Attempt) {
    harden::LitmusHardenOptions HO;
    HO.Distance = Cfg.Distance;
    HO.CheckRuns = Cfg.HardenRuns << Attempt;
    HO.StableRuns = Cfg.StableRuns << Attempt;
    HO.Seed = Rng::deriveStream(HardenSeed, Attempt);
    HO.Stressed = Cfg.Fuzz.Stressed;
    HO.StressRegion = S.E.ProvokingRegion;
    const harden::LitmusHardenResult HR =
        harden::hardenLitmusProgram(S.Canon, *Cfg.Chip, HO);
    S.HardenRuns += HR.Executions;
    S.VerifyRuns += Cfg.VerifyRuns;
    S.E.Annotated = HR.Annotated;
    S.E.FenceSites = HR.NumSites;
    S.E.Fences = static_cast<unsigned>(HR.Fences.count());
    S.E.HardenRounds = HR.Insertion.Rounds;
    S.E.HardenStable = HR.Insertion.Stable;
    S.E.HardenAttempts = Attempt + 1;

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
        const int Idx = axiomKeyIndex(V.AxiomViolation);
        if (Idx >= 0)
          ++S.E.AxiomViolations[Idx];
      } else if (V.weak()) {
        ++S.E.VerifyWeak;
        ++S.E.AxiomViolations[axiomKeyIndex("causality")];
      }
    }
    bool Clean = S.E.VerifyWeak == 0;
    for (uint64_t N : S.E.AxiomViolations)
      Clean = Clean && N == 0;
    if (Clean)
      return;
  }
}

} // namespace

bool hunt::runHunt(const HuntConfig &Cfg, ThreadPool *Pool,
                   HuntReport &Report, std::string *Err) {
  Report = HuntReport();
  Report.Config = Cfg;

  Corpus::OpenOptions CO;
  CO.Dir = Cfg.CorpusDir;
  CO.Resume = Cfg.Resume;
  CO.CrashAfterAppends = Cfg.CrashAfterAppends;
  Corpus C;
  if (!Corpus::open(CO, Cfg.manifest(), C, Err))
    return false;
  Report.Warnings = C.warnings();
  Report.StartRound = static_cast<unsigned>(C.lastCompletedRound() + 1);

  for (unsigned Round = Report.StartRound; Round < Cfg.Rounds; ++Round) {
    // Stage seeds: four decoupled streams per round, so adding runs to
    // one stage never perturbs another.
    const uint64_t FuzzSeed = Rng::deriveStream(Cfg.Seed, 4 * Round);
    const uint64_t ShrinkSeed = Rng::deriveStream(Cfg.Seed, 4 * Round + 1);
    const uint64_t HardenSeed = Rng::deriveStream(Cfg.Seed, 4 * Round + 2);
    const uint64_t VerifySeed = Rng::deriveStream(Cfg.Seed, 4 * Round + 3);

    // Fuzz: batch-classify random programs against their SC sets.
    const std::vector<fuzz::BatchEntry> Batch =
        fuzz::fuzzBatch(*Cfg.Chip, Cfg.Fuzz, FuzzSeed, Pool);
    Report.ProgramsFuzzed += Batch.size();
    std::vector<size_t> WeakIdx;
    for (size_t I = 0; I != Batch.size(); ++I)
      if (Batch[I].R.WeakOutcomes)
        WeakIdx.push_back(I);
    Report.WeakPrograms += WeakIdx.size();

    // Shrink every weak case in parallel (per-index seed, per-index slot).
    std::vector<fuzz::ShrinkResult> Shrunk(WeakIdx.size());
    std::vector<litmus::Program> Originals(WeakIdx.size());
    parallelFor(Pool, WeakIdx.size(), [&](size_t J) {
      const fuzz::BatchEntry &B = Batch[WeakIdx[J]];
      Originals[J] = fuzz::toLitmusProgram(
          B.P, "hunt-candidate", &B.R.FirstWeak);
      fuzz::ShrinkOptions SO;
      SO.Distance = Cfg.Distance;
      SO.RunsPerAttempt = Cfg.ShrinkRuns;
      SO.Seed = Rng::deriveStream(ShrinkSeed, static_cast<uint64_t>(J));
      SO.Stressed = Cfg.Fuzz.Stressed;
      Shrunk[J] = fuzz::shrinkWeakProgram(Originals[J], *Cfg.Chip, SO);
    });

    // Serial triage in index order: oracle hard-fail, then dedupe.
    std::vector<Survivor> Survivors;
    std::set<std::string> RoundKeys;
    for (size_t J = 0; J != Shrunk.size(); ++J) {
      fuzz::ShrinkResult &SR = Shrunk[J];
      Report.ShrinkCandidates += SR.Candidates;
      Report.ShrinkAccepted += SR.Accepted;
      Report.ShrinkRuledOut += SR.RuledOut;
      Report.ShrinkLitmusRuns += SR.LitmusRuns;
      Report.CrossChecks += SR.CrossChecks;
      if (!SR.OracleError.empty()) {
        // A diverging oracle invalidates the whole mining run: nothing
        // this round decided can be trusted, and continuing would bake
        // the divergence into the corpus.
        if (Err)
          *Err = "round " + std::to_string(Round) +
                 ": consistency checkers disagreed during shrink: " +
                 SR.OracleError;
        return false;
      }
      if (!SR.Reproduced) {
        ++Report.NotReproduced;
        continue;
      }
      Survivor S;
      S.Canon = fuzz::canonicalizeProgram(SR.Reduced);
      S.Key = fuzz::canonicalKey(SR.Reduced);
      S.SourceIndex = J;
      if (C.contains(S.Key) || !RoundKeys.insert(S.Key).second) {
        ++Report.Duplicates;
        continue;
      }
      S.E.Round = Round;
      S.E.Key = S.Key;
      S.E.OriginalOps = SR.OriginalOps;
      S.E.ReducedOps = SR.ReducedOps;
      S.E.ShrinkCandidates = SR.Candidates;
      S.E.ShrinkAccepted = SR.Accepted;
      S.E.CrossChecks = SR.CrossChecks;
      S.E.ProvokingRegion = SR.ProvokingRegion;
      Survivors.push_back(std::move(S));
    }

    // Harden + oracle-verify the survivors in parallel.
    parallelFor(Pool, Survivors.size(), [&](size_t K) {
      const uint64_t Src = static_cast<uint64_t>(Survivors[K].SourceIndex);
      hardenAndVerify(Survivors[K], Cfg,
                      Rng::deriveStream(HardenSeed, Src),
                      Rng::deriveStream(VerifySeed, Src));
    });

    // Durable appends, in index order, then the round marker.
    for (Survivor &S : Survivors) {
      Report.HardenLitmusRuns += S.HardenRuns;
      Report.VerifyLitmusRuns += S.VerifyRuns;
      if (!C.append(std::move(S.E), Err))
        return false;
      ++Report.NewEntries;
    }
    if (!C.markRoundDone(Round, Err))
      return false;
    ++Report.RoundsRun;
  }

  Report.Entries = C.entries();
  for (const CorpusEntry &E : Report.Entries) {
    Report.OracleChecked += E.VerifyRuns;
    Report.OracleWeak += E.VerifyWeak;
    Report.OracleForbidden += E.VerifyForbidden;
    for (size_t I = 0; I != NumAxioms; ++I)
      Report.AxiomCounts[I] += E.AxiomViolations[I];
  }
  return true;
}

void hunt::writeHuntJson(const HuntReport &Report, std::ostream &OS,
                         bool WithWork) {
  const HuntConfig &Cfg = Report.Config;
  // Build-stable metadata only (no wall-clock, no host facts): the report
  // is byte-identical across machines, --jobs and --engine for one config.
  OS << "{\n"
     << "  \"schema\": \"gpuwmm-hunt-v1\",\n"
     << "  \"schema_version\": 1,\n"
     << "  \"tool\": {\"name\": \"gpuwmm\", \"version\": \"" GPUWMM_VERSION
        "\"},\n"
     << "  \"chip\": \"" << Cfg.Chip->ShortName << "\",\n"
     << "  \"seed\": " << Cfg.Seed << ",\n"
     << "  \"rounds\": " << Cfg.Rounds << ",\n"
     << "  \"start_round\": " << Report.StartRound << ",\n"
     << "  \"rounds_run\": " << Report.RoundsRun << ",\n"
     << "  \"config\": {\"programs\": " << Cfg.Fuzz.Programs
     << ", \"runs_per_program\": " << Cfg.Fuzz.RunsPerProgram
     << ", \"num_vars\": " << Cfg.Fuzz.NumVars
     << ", \"ops_per_thread\": " << Cfg.Fuzz.OpsPerThread
     << ", \"distance\": " << Cfg.Distance
     << ", \"shrink_runs\": " << Cfg.ShrinkRuns
     << ", \"harden_runs\": " << Cfg.HardenRuns
     << ", \"stable_runs\": " << Cfg.StableRuns
     << ", \"verify_runs\": " << Cfg.VerifyRuns << "},\n";

  OS << "  \"totals\": {\"programs_fuzzed\": " << Report.ProgramsFuzzed
     << ", \"weak_programs\": " << Report.WeakPrograms
     << ", \"not_reproduced\": " << Report.NotReproduced
     << ", \"shrink_candidates\": " << Report.ShrinkCandidates
     << ", \"shrink_accepted\": " << Report.ShrinkAccepted
     << ", \"cross_checks\": " << Report.CrossChecks
     << ", \"duplicates\": " << Report.Duplicates
     << ", \"new_entries\": " << Report.NewEntries
     << ", \"corpus_size\": " << Report.Entries.size();
  if (WithWork)
    OS << ", \"shrink_ruled_out\": " << Report.ShrinkRuledOut
       << ", \"litmus_runs\": {\"shrink\": " << Report.ShrinkLitmusRuns
       << ", \"harden\": " << Report.HardenLitmusRuns
       << ", \"verify\": " << Report.VerifyLitmusRuns << "}";
  OS << "},\n";

  OS << "  \"oracle\": {\"checked\": " << Report.OracleChecked
     << ", \"weak\": " << Report.OracleWeak
     << ", \"forbidden\": " << Report.OracleForbidden
     << ", \"clean\": " << (Report.clean() ? "true" : "false")
     << ", \"axiom_violations\": {";
  const auto &Keys = axiomKeys();
  for (size_t I = 0; I != Keys.size(); ++I)
    OS << (I ? ", " : "") << "\"" << Keys[I]
       << "\": " << Report.AxiomCounts[I];
  OS << "}},\n";

  OS << "  \"entries\": [";
  for (size_t I = 0; I != Report.Entries.size(); ++I)
    OS << (I ? "," : "") << "\n    "
       << entryJson(Report.Entries[I], /*WithAxioms=*/false);
  OS << (Report.Entries.empty() ? "" : "\n  ") << "]\n}\n";
}
