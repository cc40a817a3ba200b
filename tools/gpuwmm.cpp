//===- tools/gpuwmm.cpp - Command-line driver ---------------------------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// The command-line front end a user of the paper's tooling would reach
// for: run litmus tests, tune a chip, test an application under an
// environment, harden it via empirical fence insertion, fuzz random
// programs, or run the full Tab. 5 campaign — all from one binary.
//
// Every command accepts --jobs=N. Results are bit-identical for every N
// (the parallel engine's determinism contract, DESIGN.md Sec. 11); the
// flag only changes wall-clock time.
//
//===----------------------------------------------------------------------===//

#include "apps/AppCompile.h"
#include "fuzz/LitmusBridge.h"
#include "fuzz/ProgramFuzzer.h"
#include "fuzz/Shrink.h"
#include "harden/FenceInsertion.h"
#include "harness/Campaign.h"
#include "harness/EnvironmentRunner.h"
#include "harness/Merge.h"
#include "harness/WorkList.h"
#include "hunt/Hunt.h"
#include "litmus/Format.h"
#include "model/Enumerate.h"
#include "model/StreamingChecker.h"
#include "sim/BatchExec.h"
#include "support/Options.h"
#include "support/Suggest.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
#include "tuning/Tuner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace gpuwmm;

namespace {

int usage() {
  std::printf(
      "usage: gpuwmm <command> [--options]\n"
      "\n"
      "commands:\n"
      "  chips                         list the simulated GPUs\n"
      "  litmus list                   list the built-in litmus catalog\n"
      "  litmus  --chip [--test=NAME | --file=T.litmus] --distance\n"
      "          [--stress] [--fences] [--runs] [--print] [--explain]\n"
      "                                run a litmus test from the built-in\n"
      "                                catalog (see: gpuwmm litmus list) or\n"
      "                                a .litmus file (docs/litmus-format.md);\n"
      "                                --print shows the .litmus text instead;\n"
      "                                --explain cross-checks every run against\n"
      "                                the axiomatic oracle and prints the\n"
      "                                event chain behind a weak outcome (or\n"
      "                                says the outcome is SC-reachable)\n"
      "  tune    --chip [--scale] [--tests=a,b,c]\n"
      "                                run the Sec. 3 tuning pipeline against\n"
      "                                a catalog idiom trio (default MP,LB,SB)\n"
      "  test    --chip --app --env [--runs]\n"
      "                                run an application under an environment\n"
      "  harden  --chip --app [--stable-runs]\n"
      "                                empirical fence insertion (Alg. 1)\n"
      "  fuzz    --chip [--programs] [--runs] [--file=T.litmus]\n"
      "          [--export-weak=DIR] [--shrink [--out=T.litmus]]\n"
      "                                random-program differential fuzzing;\n"
      "                                --file re-fuzzes an exported case,\n"
      "                                --export-weak writes failing programs\n"
      "                                as replayable .litmus files,\n"
      "                                --shrink delta-debugs --file to a\n"
      "                                minimal program that still provokes\n"
      "                                the same forbidden outcome (re-checked\n"
      "                                by the axiomatic oracle)\n"
      "  hunt    --chip [--rounds] [--programs] [--runs] [--distance]\n"
      "          [--shrink-runs] [--harden-runs] [--stable-runs]\n"
      "          [--verify-runs] [--corpus-dir=DIR [--resume]] [--out]\n"
      "                                closed-loop bug mining: fuzz random\n"
      "                                programs in batches, shrink each weak\n"
      "                                case (every acceptance cross-checked\n"
      "                                by both consistency checkers), dedupe\n"
      "                                by canonical form into a crash-safe\n"
      "                                corpus, harden survivors (Alg. 1) and\n"
      "                                verify the hardened tests SC under\n"
      "                                the streaming oracle; emits a JSON\n"
      "                                report and one replayable .litmus\n"
      "                                per corpus entry; --resume extends\n"
      "                                an existing corpus to --rounds\n"
      "  campaign [--chips=a,b] [--envs=x,y] [--apps=p,q] [--litmus=t,u]\n"
      "          [--runs] [--out] [--oracle=N|all]\n"
      "          [--out-dir=DIR [--resume] [--cells=A..B,K]]\n"
      "                                the Tab. 5 grid; emits a JSON report;\n"
      "                                --oracle=N streams every Nth run\n"
      "                                through the axiomatic oracle\n"
      "                                (--oracle=all checks every run;\n"
      "                                memory stays frontier-bounded);\n"
      "                                --out-dir shards one fsync'd record\n"
      "                                per cell into DIR instead (survives\n"
      "                                SIGKILL; several workers may stripe\n"
      "                                the grid with disjoint --cells=),\n"
      "                                --resume skips cells already durable\n"
      "  report  --dir=DIR [--out]     merge a sharded campaign directory\n"
      "                                into the schema-v2 JSON report,\n"
      "                                byte-identical to a single-process\n"
      "                                run (order-independent, duplicates\n"
      "                                deduped, torn tails tolerated)\n"
      "\n"
      "common options: --seed=N; --jobs=N worker threads (results are\n"
      "identical for every N; default GPUWMM_JOBS or all cores);\n"
      "--engine=auto|scalar engine selection (auto runs every program\n"
      "on the compiled engine, traced and oracle-checked runs included;\n"
      "scalar steps the same programs on the reference engine, the\n"
      "tick-by-tick scheduler; results are engine-independent; default\n"
      "auto);\n"
      "GPUWMM_SCALE scales run counts globally. Unknown options are\n"
      "rejected.\n");
  return 2;
}

const sim::ChipProfile *chipOrDie(const Options &Opts) {
  const std::string Name = Opts.getString("chip", "titan");
  const sim::ChipProfile *Chip = sim::ChipProfile::lookup(Name);
  if (!Chip) {
    size_t Count = 0;
    const sim::ChipProfile *Chips = sim::ChipProfile::all(Count);
    std::vector<std::string> Names;
    for (size_t I = 0; I != Count; ++I)
      Names.push_back(Chips[I].ShortName);
    std::fprintf(stderr, "error: unknown chip '%s'%s (try: gpuwmm chips)\n",
                 Name.c_str(), suggestClause(Name, Names).c_str());
    std::exit(2);
  }
  return Chip;
}

/// Looks up a litmus catalog test; on failure prints an error with close
/// catalog matches ("did you mean ...") and returns null.
const litmus::Program *catalogTestOrNull(const std::string &Name) {
  if (const litmus::Program *P = litmus::findCatalogProgram(Name))
    return P;
  std::fprintf(stderr,
               "error: unknown litmus test '%s'%s (see: gpuwmm litmus "
               "list)\n",
               Name.c_str(),
               suggestClause(Name, litmus::catalogNames()).c_str());
  return nullptr;
}

/// Every option key any command reads (main() rejects all others).
constexpr const char *KnownOptions[] = {
    "app",         "apps",     "cells",       "chip",        "chips",
    "corpus-dir",  "dir",      "distance",    "engine",      "env",
    "envs",        "explain",  "export-weak", "fences",      "file",
    "harden-runs", "jobs",     "litmus",      "oracle",      "out",
    "out-dir",     "print",    "programs",    "resume",      "rounds",
    "runs",        "scale",    "seed",        "shrink",      "shrink-runs",
    "stable-runs", "stress",   "test",        "tests",       "verify-runs"};

/// Upper bound on --jobs: far beyond any useful worker count, but small
/// enough that narrowing to unsigned can never truncate.
constexpr int64_t MaxJobs = 1 << 16;

/// --distance in words (0 = contiguous locations), defaulting to two
/// patches of \p Chip; bounded so a program's footprint stays small.
unsigned distanceOption(const Options &Opts, const sim::ChipProfile &Chip) {
  return static_cast<unsigned>(
      Opts.getInt("distance", 2 * Chip.PatchSizeWords, 0, 1 << 16));
}

/// The worker pool every subcommand draws from: --jobs, else GPUWMM_JOBS,
/// else all cores. --jobs is validated up front in main() for every
/// command; 0 here means "auto".
ThreadPool makePool(const Options &Opts) {
  const int64_t Jobs = Opts.getPositiveInt("jobs", 0, MaxJobs);
  return ThreadPool(static_cast<unsigned>(Jobs));
}

/// Splits "a,b,c" into its elements; empty string -> empty vector.
std::vector<std::string> splitCsv(const std::string &Csv) {
  std::vector<std::string> Parts;
  std::istringstream IS(Csv);
  std::string Part;
  while (std::getline(IS, Part, ','))
    if (!Part.empty())
      Parts.push_back(Part);
  return Parts;
}

int cmdChips() {
  Table T({"short name", "chip", "architecture", "patch (words)",
           "power query"});
  size_t Count = 0;
  const sim::ChipProfile *Chips = sim::ChipProfile::all(Count);
  for (size_t I = 0; I != Count; ++I)
    T.addRow({Chips[I].ShortName, Chips[I].Name, archName(Chips[I].Arch),
              std::to_string(Chips[I].PatchSizeWords),
              Chips[I].SupportsPowerQuery ? "yes" : "no"});
  T.print(std::cout);
  return 0;
}

/// `gpuwmm litmus list`: the built-in catalog at a glance.
int cmdLitmusList() {
  Table T({"name", "threads", "locations", "registers", "description"});
  for (const litmus::Program &P : litmus::catalog()) {
    std::string Locs;
    for (size_t I = 0; I != P.Locations.size(); ++I)
      Locs += (I ? " " : "") + P.Locations[I];
    T.addRow({P.Name, std::to_string(P.Threads.size()), Locs,
              std::to_string(P.Registers.size()), P.Doc});
  }
  T.print(std::cout);
  std::printf("\nrun one with: gpuwmm litmus --test=NAME; export its "
              ".litmus text with --print\n");
  return 0;
}

/// Reads and parses \p Path; on any failure prints a file:line:col error
/// and returns std::nullopt.
std::optional<litmus::Program> loadLitmusFile(const std::string &Path) {
  std::ifstream IS(Path);
  if (!IS) {
    std::fprintf(stderr, "error: cannot read '%s'\n", Path.c_str());
    return std::nullopt;
  }
  std::ostringstream Text;
  Text << IS.rdbuf();
  litmus::ParseError Err;
  std::optional<litmus::Program> P = litmus::parseLitmus(Text.str(), Err);
  if (!P)
    std::fprintf(stderr, "%s\n", Err.render(Path).c_str());
  return P;
}

int cmdLitmus(const Options &Opts) {
  const sim::ChipProfile *Chip = chipOrDie(Opts);

  // The test: a .litmus file, or a catalog entry by name.
  litmus::Program Parsed;
  const litmus::Program *P = nullptr;
  if (Opts.has("file")) {
    std::optional<litmus::Program> FromFile =
        loadLitmusFile(Opts.getString("file", ""));
    if (!FromFile)
      return 2;
    Parsed = std::move(*FromFile);
    P = &Parsed;
  } else {
    P = catalogTestOrNull(Opts.getString("test", "MP"));
    if (!P)
      return 2;
  }

  if (Opts.has("print")) {
    std::fputs(litmus::printLitmus(*P).c_str(), stdout);
    return 0;
  }

  const unsigned Distance = distanceOption(Opts, *Chip);
  const unsigned Runs = Opts.getCount("runs", scaledCount(1000));
  const uint64_t Seed = Opts.getSeed(1);

  litmus::LitmusRunner Runner(*Chip, Seed);
  litmus::LitmusRunner::RunOpts RunOpts;
  RunOpts.WithFences = Opts.has("fences");

  // --explain: stream every run's events through the incremental checker
  // (no trace is retained — memory stays bounded by the checker's
  // frontier), cross-check its verdict against the operational outcome,
  // and print the human-readable event chain (the po ∪ rf ∪ co ∪ fr
  // cycle, extracted from the retained frontier) behind the first weak
  // run of the forbidden outcome, or the first axiom violation; only when
  // no run is weak does it explain the first SC run that shows the
  // outcome. When the enumerator finds an SC execution showing the
  // forbidden outcome, a run that shows it and is SC is not a
  // disagreement; when it finds no non-SC one, a run the checker called
  // weak is.
  if (Opts.has("explain")) {
    const model::Enumeration Enumerated = model::enumerateForbidden(
        *P, model::DefaultCandidateCap, /*FindSc=*/true);
    const bool ScOnly = Enumerated.Answer == model::Reach::ScOnly;
    litmus::LitmusRunner::RunOpts StreamOpts = RunOpts;
    model::StreamingChecker Checker;
    StreamOpts.Sink = &Checker;
    std::vector<litmus::LitmusRunner::MicroStress> Configs;
    if (Opts.has("stress"))
      for (unsigned Region = 0; Region != Chip->NumBanks; ++Region)
        Configs.push_back(
            litmus::LitmusRunner::MicroStress::tuned(*Chip, Region));
    else
      Configs.push_back(litmus::LitmusRunner::MicroStress::none());

    const model::AddrNamer Namer = [&Runner](sim::Addr A) {
      return Runner.addrName(A);
    };
    unsigned Checked = 0, Weak = 0, ScForbidden = 0, Disagreements = 0;
    // The explanation is rendered while its run's verdict is live: the
    // first weak run (or violation) is final, the first SC run of the
    // outcome only a fallback.
    std::string Explanation;
    bool ExplainedWeak = false;
    const auto Explain = [&](const model::StreamVerdict &R) {
      char Head[256];
      std::snprintf(Head, sizeof(Head),
                    "%s d=%u on %s%s%s: execution %u hit the forbidden "
                    "outcome\n",
                    P->Name.c_str(), Distance, Chip->ShortName,
                    Opts.has("stress") ? " +tuned-stress" : "",
                    RunOpts.WithFences ? " +fences" : "", Checked - 1);
      Explanation = Head;
      if (ScOnly)
        Explanation += "forbidden outcome is SC-reachable: no non-SC "
                       "execution shows it\n";
      else if (Enumerated.ScReachable)
        Explanation += "forbidden outcome is SC-reachable too: SC and "
                       "non-SC executions both show it\n";
      Explanation += model::renderStreamExplanation(R, Namer);
    };
    for (const auto &S : Configs)
      for (unsigned I = 0; I != Runs; ++I) {
        Checker.begin();
        const bool Forbidden = Runner.runOnce(*P, Distance, S, StreamOpts);
        const model::StreamVerdict &R = Checker.finish();
        ++Checked;
        if (Forbidden && R.AxiomsOk && !R.weak() && Enumerated.ScReachable) {
          ++ScForbidden;
        } else if (Forbidden && ScOnly) {
          ++Disagreements;
        } else {
          Weak += Forbidden;
          Disagreements += !R.AxiomsOk || R.weak() != Forbidden;
        }
        if (ExplainedWeak)
          continue;
        if (!R.AxiomsOk || (Forbidden && R.weak())) {
          Explain(R);
          ExplainedWeak = true;
        } else if (Forbidden && Explanation.empty()) {
          Explain(R);
        }
      }
    if (!Explanation.empty())
      std::fputs(Explanation.c_str(), stdout);
    else
      std::printf("%s d=%u on %s: no weak outcome in %u executions; "
                  "nothing to explain\n",
                  P->Name.c_str(), Distance, Chip->ShortName, Checked);
    if (Disagreements)
      std::printf("oracle: %u/%u cross-checked executions DISAGREE with "
                  "the operational simulator\n",
                  Disagreements, Checked);
    else if (ScForbidden && Weak)
      std::printf("oracle: checker agreed with the simulator on all %u "
                  "executions (%u weak; %u more hit the SC-reachable "
                  "forbidden outcome by an SC execution)\n",
                  Checked, Weak, ScForbidden);
    else if (ScForbidden)
      std::printf("oracle: checker agreed with the simulator on all %u "
                  "executions (%u hit the SC-reachable forbidden outcome, "
                  "none weak)\n",
                  Checked, ScForbidden);
    else
      std::printf("oracle: checker agreed with the simulator on all %u "
                  "executions (%u weak)\n",
                  Checked, Weak);
    return Disagreements ? 1 : 0;
  }

  unsigned Weak = 0;
  if (Opts.has("stress")) {
    // Scan one location per bank and report the most effective, as the
    // tuning micro-benchmarks do.
    for (unsigned Region = 0; Region != Chip->NumBanks; ++Region)
      Weak = std::max(
          Weak, Runner.countWeak(*P, Distance,
                                 litmus::LitmusRunner::MicroStress::tuned(
                                     *Chip, Region),
                                 Runs, RunOpts));
  } else {
    Weak = Runner.countWeak(*P, Distance,
                            litmus::LitmusRunner::MicroStress::none(), Runs,
                            RunOpts);
  }
  std::printf("%s d=%u on %s%s%s: %u/%u weak (%.2f%%)\n",
              P->Name.c_str(), Distance, Chip->ShortName,
              Opts.has("stress") ? " +tuned-stress" : "",
              RunOpts.WithFences ? " +fences" : "", Weak, Runs,
              100.0 * Weak / Runs);
  return 0;
}

int cmdTune(const Options &Opts) {
  const sim::ChipProfile *Chip = chipOrDie(Opts);
  ThreadPool Pool = makePool(Opts);
  // The idiom trio the pipeline scores against (Fig. 2 by default). The
  // Pareto machinery is three-objective, so re-tuning against new idioms
  // means swapping the trio, not growing it.
  std::array<const litmus::Program *, 3> Tests = litmus::tuningPrograms();
  if (Opts.has("tests")) {
    const auto Names = splitCsv(Opts.getString("tests", ""));
    if (Names.size() != 3) {
      std::fprintf(stderr,
                   "error: --tests needs exactly three catalog names, got "
                   "%zu\n",
                   Names.size());
      return 2;
    }
    for (size_t I = 0; I != 3; ++I) {
      Tests[I] = catalogTestOrNull(Names[I]);
      if (!Tests[I])
        return 2;
    }
  }
  tuning::Tuner Tuner(*Chip, Opts.getSeed(7), Tests);
  const auto R = Tuner.tune(Opts.getDouble("scale", 1.0, 1e-3, 1e3) *
                                experimentScale(),
                            &Pool);
  std::printf("%s: critical patch size %u, sequence \"%s\", spread %u "
              "(%llu executions, %.1f s, %u jobs)\n",
              Chip->ShortName, R.Params.PatchWords,
              R.Params.Seq.str().c_str(), R.Params.Spread,
              static_cast<unsigned long long>(R.Executions),
              R.WallSeconds, Pool.jobs());
  return 0;
}

int cmdTest(const Options &Opts) {
  const sim::ChipProfile *Chip = chipOrDie(Opts);
  const auto App = apps::parseAppName(Opts.getString("app", "cbe-dot"));
  if (!App) {
    std::fprintf(stderr, "error: unknown app\n");
    return 2;
  }
  const auto Env =
      stress::Environment::parse(Opts.getString("env", "sys-str+"));
  if (!Env) {
    std::fprintf(stderr, "error: unknown environment\n");
    return 2;
  }
  const unsigned Runs = Opts.getCount("runs", scaledCount(200));
  ThreadPool Pool = makePool(Opts);
  const auto Cell = harness::runCell(
      *App, *Chip, *Env, stress::TunedStressParams::paperDefaults(*Chip),
      Runs, Opts.getSeed(1), &Pool);
  std::printf("%s on %s under %s: %u/%u erroneous (%u timeouts) -> %s\n",
              apps::appName(*App), Chip->ShortName, Env->name().c_str(),
              Cell.Errors, Cell.Runs, Cell.Timeouts,
              Cell.effective()    ? "EFFECTIVE (>5%)"
              : Cell.observed()   ? "observed"
                                  : "no errors");
  return 0;
}

int cmdHarden(const Options &Opts) {
  const sim::ChipProfile *Chip = chipOrDie(Opts);
  const auto App = apps::parseAppName(Opts.getString("app", "cbe-dot"));
  if (!App) {
    std::fprintf(stderr, "error: unknown app\n");
    return 2;
  }
  const unsigned StableRuns = Opts.getCount("stable-runs", scaledCount(300));
  ThreadPool Pool = makePool(Opts);
  harden::AppCheckOracle Oracle(*App, *Chip, Opts.getSeed(1), StableRuns,
                                &Pool);
  const unsigned NumSites = apps::appNumSites(*App);
  const auto R = harden::empiricalFenceInsertion(
      sim::FencePolicy::all(NumSites), Oracle);
  const auto Instance = apps::makeApp(*App);
  std::printf("%s on %s: %u -> %u fences (%s, %u round(s), %.2f s)\n",
              apps::appName(*App), Chip->ShortName, NumSites,
              R.Fences.count(), R.Stable ? "stable" : "NOT STABLE",
              R.Rounds, R.WallSeconds);
  for (unsigned S : R.Fences.sites())
    std::printf("  fence after: %s\n", Instance->siteName(S));
  return R.Stable ? 0 : 1;
}

int cmdFuzz(const Options &Opts) {
  const sim::ChipProfile *Chip = chipOrDie(Opts);
  fuzz::BatchConfig Cfg;
  Cfg.Programs = Opts.getCount("programs", scaledCount(20));
  Cfg.RunsPerProgram = Opts.getCount("runs", scaledCount(40));

  // --shrink operates on one imported case, never on generated batches.
  if (Opts.has("shrink") && !Opts.has("file")) {
    std::fprintf(stderr, "error: --shrink needs --file=T.litmus (the weak "
                         "case to reduce)\n");
    return 2;
  }

  // --file: re-fuzz one imported .litmus case (e.g. a prior export)
  // against its exhaustive SC set instead of generating programs.
  if (Opts.has("file")) {
    const std::string Path = Opts.getString("file", "");
    std::optional<litmus::Program> L = loadLitmusFile(Path);
    if (!L)
      return 2;

    // --shrink: delta-debug the case down to a minimal program that still
    // provokes the same forbidden outcome as a weak behaviour (every
    // candidate is re-validated by the axiomatic checker).
    if (Opts.has("shrink")) {
      fuzz::ShrinkOptions SOpts;
      SOpts.Distance = distanceOption(Opts, *Chip);
      SOpts.RunsPerAttempt = Opts.getCount("runs", scaledCount(250));
      SOpts.Seed = Opts.getSeed(1);
      const fuzz::ShrinkResult R =
          fuzz::shrinkWeakProgram(*L, *Chip, SOpts);
      // A streaming/post-hoc verdict disagreement on any consulted run is
      // a hard failure: the reduction was driven by a diverging oracle
      // and its output must not be trusted (or committed to a corpus).
      if (!R.OracleError.empty()) {
        std::fprintf(stderr,
                     "error: consistency checkers disagreed during "
                     "shrink (reduction aborted): %s\n",
                     R.OracleError.c_str());
        return 1;
      }
      if (!R.Reproduced) {
        std::fprintf(stderr,
                     "error: '%s' did not provoke its forbidden outcome "
                     "as a weak behaviour on %s; nothing to shrink\n",
                     Path.c_str(), Chip->ShortName);
        return 1;
      }
      std::printf("shrunk: %u -> %u instructions (%u candidates tried, "
                  "%u reductions kept the weak outcome)\n",
                  R.OriginalOps, R.ReducedOps, R.Candidates, R.Accepted);
      std::printf("oracle: %llu streaming/post-hoc cross-checks, all "
                  "agreed\n",
                  static_cast<unsigned long long>(R.CrossChecks));
      const std::string Text = litmus::printLitmus(R.Reduced);
      if (Opts.has("out")) {
        const std::string OutPath = Opts.getString("out", "");
        std::ofstream OS(OutPath);
        if (!OS) {
          std::fprintf(stderr, "error: cannot write '%s'\n",
                       OutPath.c_str());
          return 1;
        }
        OS << Text;
        std::printf("wrote %s\n", OutPath.c_str());
      } else {
        std::fputs(Text.c_str(), stdout);
      }
      return 0;
    }
    if (const std::string Why = fuzz::fuzzabilityError(*L); !Why.empty()) {
      std::fprintf(stderr, "error: '%s' is not fuzzable: %s\n",
                   Path.c_str(), Why.c_str());
      return 2;
    }
    const fuzz::FuzzResult R =
        fuzz::fuzzProgram(*L, *Chip, Cfg.RunsPerProgram, Opts.getSeed(1),
                          /*Stressed=*/true);
    std::printf("%s: %u/%u non-SC outcomes (%u distinct, SC set %zu)\n",
                L->Name.c_str(), R.WeakOutcomes, R.Runs, R.DistinctWeak,
                R.ScSetSize);
    return 0;
  }

  ThreadPool Pool = makePool(Opts);
  const auto Batch = fuzz::fuzzBatch(*Chip, Cfg, Opts.getSeed(1), &Pool);
  unsigned WeakProgs = 0;
  for (size_t I = 0; I != Batch.size(); ++I) {
    const fuzz::FuzzResult &R = Batch[I].R;
    if (R.WeakOutcomes == 0)
      continue;
    ++WeakProgs;
    // The weak case as a replayable .litmus test whose forbidden clause
    // pins the first observed non-SC outcome (re-run it with `gpuwmm
    // litmus --file` or `gpuwmm fuzz --file`); --export-weak writes it
    // out.
    std::string Name = "fuzz-";
    Name += std::to_string(I);
    const std::string Text = litmus::printLitmus(
        fuzz::toLitmusProgram(Batch[I].P, Name, &R.FirstWeak));
    std::printf("program %zu: %u/%u non-SC outcomes (%u distinct, SC set "
                "%zu)\n%s",
                I, R.WeakOutcomes, R.Runs, R.DistinctWeak, R.ScSetSize,
                Text.c_str());
    if (Opts.has("export-weak")) {
      const std::string Path =
          Opts.getString("export-weak", ".") + "/" + Name + ".litmus";
      std::ofstream OS(Path);
      if (!OS) {
        std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
        return 1;
      }
      OS << Text;
      std::printf("  exported to %s\n", Path.c_str());
    }
  }
  std::printf("%u/%u programs exhibited weak outcomes under sys-str+\n",
              WeakProgs, Cfg.Programs);
  return 0;
}

/// `gpuwmm hunt`: the closed-loop bug-mining pipeline (hunt/Hunt.h) —
/// fuzz, shrink, dedupe, harden, verify, with an optional crash-safe
/// on-disk corpus. Exit 1 when the hardened corpus is not oracle-clean or
/// the pipeline hard-failed (checker disagreement, corpus I/O); exit 2 on
/// usage errors.
int cmdHunt(const Options &Opts) {
  const sim::ChipProfile *Chip = chipOrDie(Opts);
  hunt::HuntConfig Cfg;
  Cfg.Chip = Chip;
  Cfg.Rounds = Opts.getCount("rounds", 4);
  Cfg.Fuzz.Programs = Opts.getCount("programs", scaledCount(20));
  Cfg.Fuzz.RunsPerProgram = Opts.getCount("runs", scaledCount(40));
  Cfg.Distance = distanceOption(Opts, *Chip);
  Cfg.ShrinkRuns = Opts.getCount("shrink-runs", scaledCount(200));
  Cfg.HardenRuns = Opts.getCount("harden-runs", 32);
  Cfg.StableRuns = Opts.getCount("stable-runs", scaledCount(300));
  Cfg.VerifyRuns = Opts.getCount("verify-runs", scaledCount(200));
  Cfg.Seed = Opts.getSeed(1);
  Cfg.CorpusDir = Opts.getString("corpus-dir", "");
  Cfg.Resume = Opts.has("resume");
  if (Cfg.Resume && Cfg.CorpusDir.empty()) {
    std::fprintf(stderr, "error: --resume requires --corpus-dir=DIR (the "
                         "corpus to extend)\n");
    return 2;
  }
  // Crash-injection test hook, as the campaign fabric's: SIGKILL this
  // process right after the Nth durable corpus append.
  if (const char *Env = std::getenv("GPUWMM_HUNT_CRASH_AFTER")) {
    char *End = nullptr;
    const long long N = std::strtoll(Env, &End, 10);
    if (*Env && !*End && N > 0)
      Cfg.CrashAfterAppends = static_cast<unsigned>(N);
    else
      std::fprintf(stderr,
                   "warning: ignoring invalid GPUWMM_HUNT_CRASH_AFTER="
                   "'%s'\n",
                   Env);
  }

  ThreadPool Pool = makePool(Opts);
  const auto Start = std::chrono::steady_clock::now();
  hunt::HuntReport Report;
  std::string Err;
  if (!hunt::runHunt(Cfg, &Pool, Report, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  const double WallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    Start)
          .count();
  for (const std::string &W : Report.Warnings)
    std::fprintf(stderr, "warning: %s\n", W.c_str());

  // Wall time goes to stderr only: the JSON report is byte-identical
  // across machines and --jobs values for one config.
  std::fprintf(stderr,
               "hunt: %u round(s) [%u..%u): %llu programs fuzzed, %llu "
               "weak, %llu shrunk into %llu new entr%s (%llu duplicate(s), "
               "%llu not reproduced) in %.2f s (%u jobs)\n",
               Report.RoundsRun, Report.StartRound,
               Report.StartRound + Report.RoundsRun,
               static_cast<unsigned long long>(Report.ProgramsFuzzed),
               static_cast<unsigned long long>(Report.WeakPrograms),
               static_cast<unsigned long long>(Report.ShrinkAccepted),
               static_cast<unsigned long long>(Report.NewEntries),
               Report.NewEntries == 1 ? "y" : "ies",
               static_cast<unsigned long long>(Report.Duplicates),
               static_cast<unsigned long long>(Report.NotReproduced),
               WallSeconds, Pool.jobs());
  std::fprintf(stderr,
               "hunt work: %llu litmus runs (shrink %llu, harden %llu, "
               "verify %llu); the enumerator ruled out %llu of %llu shrink "
               "programs without a run\n",
               static_cast<unsigned long long>(Report.ShrinkLitmusRuns +
                                               Report.HardenLitmusRuns +
                                               Report.VerifyLitmusRuns),
               static_cast<unsigned long long>(Report.ShrinkLitmusRuns),
               static_cast<unsigned long long>(Report.HardenLitmusRuns),
               static_cast<unsigned long long>(Report.VerifyLitmusRuns),
               static_cast<unsigned long long>(Report.ShrinkRuledOut),
               static_cast<unsigned long long>(Report.ShrinkCandidates +
                                               Report.WeakPrograms));
  std::fprintf(stderr,
               "hunt oracle: corpus of %zu, %llu hardened runs checked, "
               "%llu weak, %llu axiom cross-checks during shrink — %s\n",
               Report.Entries.size(),
               static_cast<unsigned long long>(Report.OracleChecked),
               static_cast<unsigned long long>(Report.OracleWeak),
               static_cast<unsigned long long>(Report.CrossChecks),
               Report.clean() ? "clean" : "NOT CLEAN");

  const std::string Out = Opts.getString("out", "-");
  if (Out == "-") {
    hunt::writeHuntJson(Report, std::cout, /*WithWork=*/true);
  } else {
    std::ofstream OS(Out);
    if (!OS) {
      std::fprintf(stderr, "error: cannot write '%s'\n", Out.c_str());
      return 1;
    }
    hunt::writeHuntJson(Report, OS, /*WithWork=*/true);
  }
  return Report.clean() ? 0 : 1;
}

/// `campaign --out-dir=DIR [--resume] [--cells=A..B,K]`: one fabric
/// worker. Validates the striping spec against the grid's work list
/// (exit 2 on malformed input, matching the getPositiveInt convention),
/// runs the selected cells, and appends one fsync'd record each.
int runShardedCampaign(const harness::CampaignConfig &Config,
                       const Options &Opts) {
  const std::string Dir = Opts.getString("out-dir", "");
  if (Dir.empty()) {
    std::fprintf(stderr, "error: --out-dir needs a directory path\n");
    return 2;
  }
  const size_t NumCells = harness::buildWorkList(Config).size();
  std::optional<std::vector<size_t>> Selection;
  if (Opts.has("cells")) {
    std::string Err;
    Selection = harness::parseCellSelection(Opts.getString("cells", ""),
                                            NumCells, Err);
    if (!Selection) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 2;
    }
  }

  harness::FabricOptions FOpts;
  FOpts.Dir = Dir;
  FOpts.Resume = Opts.has("resume");
  FOpts.Selection = Selection ? &*Selection : nullptr;
  // Crash-injection test hook: SIGKILL this worker right after the Nth
  // durable append. Invalid values warn and are ignored, like
  // GPUWMM_JOBS.
  if (const char *Env = std::getenv("GPUWMM_CAMPAIGN_CRASH_AFTER")) {
    char *End = nullptr;
    const long long N = std::strtoll(Env, &End, 10);
    if (*Env && !*End && N > 0)
      FOpts.CrashAfterAppends = static_cast<unsigned>(N);
    else
      std::fprintf(stderr,
                   "warning: ignoring invalid "
                   "GPUWMM_CAMPAIGN_CRASH_AFTER='%s'\n",
                   Env);
  }

  ThreadPool Pool = makePool(Opts);
  const auto Start = std::chrono::steady_clock::now();
  harness::FabricOutcome Out;
  std::string Err;
  if (!harness::runCampaignFabric(Config, FOpts, &Pool, Out, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 2;
  }
  const double WallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    Start)
          .count();
  for (const std::string &W : Out.Warnings)
    std::fprintf(stderr, "warning: %s\n", W.c_str());
  std::fprintf(stderr,
               "campaign: %u/%zu cells completed (%u already durable) in "
               "%.2f s (%u jobs)%s%s\n",
               Out.Completed, NumCells, Out.Skipped, WallSeconds,
               Pool.jobs(), Out.ShardPath.empty() ? "" : ", shard ",
               Out.ShardPath.c_str());
  std::fprintf(stderr, "merge with: gpuwmm report --dir=%s\n",
               Dir.c_str());
  return Out.OracleViolations ? 1 : 0;
}

/// `gpuwmm report --dir=DIR [--out=FILE]`: merge a sharded campaign into
/// the schema-v2 JSON, byte-identical to the monolithic run. Exit 1 when
/// cells are missing (finish with `campaign --resume`), 2 on malformed
/// stores or usage.
int cmdReport(const Options &Opts) {
  if (!Opts.has("dir")) {
    std::fprintf(stderr, "error: report needs --dir=DIR (a campaign "
                         "directory written by campaign --out-dir)\n");
    return 2;
  }
  const std::string Dir = Opts.getString("dir", "");
  harness::CampaignReport Report;
  harness::MergeStats Stats;
  std::string Err;
  const bool Ok = harness::mergeCampaignShards(Dir, Report, Stats, &Err);
  for (const std::string &W : Stats.Warnings)
    std::fprintf(stderr, "warning: %s\n", W.c_str());
  if (!Ok) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    // Incomplete-but-well-formed stores are resumable, not malformed.
    return Stats.MissingCells.empty() ? 2 : 1;
  }
  std::fprintf(stderr,
               "report: merged %zu cells from %u shard(s) in %s (%u "
               "duplicate record(s) deduped, %u torn tail(s) truncated)\n",
               Stats.CellsMerged, Stats.ShardFiles, Dir.c_str(),
               Stats.Duplicates, Stats.TornShards);

  const std::string Out = Opts.getString("out", "-");
  if (Out == "-") {
    harness::writeCampaignJson(Report, std::cout);
  } else {
    std::ofstream OS(Out);
    if (!OS) {
      std::fprintf(stderr, "error: cannot write '%s'\n", Out.c_str());
      return 1;
    }
    harness::writeCampaignJson(Report, OS);
  }
  return 0;
}

int cmdCampaign(const Options &Opts) {
  harness::CampaignConfig Config = harness::CampaignConfig::full();
  if (Opts.has("chips")) {
    Config.Chips.clear();
    for (const std::string &Name : splitCsv(Opts.getString("chips", ""))) {
      const sim::ChipProfile *Chip = sim::ChipProfile::lookup(Name);
      if (!Chip) {
        std::fprintf(stderr, "error: unknown chip '%s'\n", Name.c_str());
        return 2;
      }
      Config.Chips.push_back(Chip);
    }
  }
  if (Opts.has("envs")) {
    Config.Envs.clear();
    for (const std::string &Name : splitCsv(Opts.getString("envs", ""))) {
      const auto Env = stress::Environment::parse(Name);
      if (!Env) {
        std::fprintf(stderr, "error: unknown environment '%s'\n",
                     Name.c_str());
        return 2;
      }
      Config.Envs.push_back(*Env);
    }
  }
  if (Opts.has("apps")) {
    Config.Apps.clear();
    for (const std::string &Name : splitCsv(Opts.getString("apps", ""))) {
      const auto App = apps::parseAppName(Name);
      if (!App) {
        std::fprintf(stderr, "error: unknown app '%s'\n", Name.c_str());
        return 2;
      }
      Config.Apps.push_back(*App);
    }
  }
  if (Opts.has("litmus")) {
    for (const std::string &Name : splitCsv(Opts.getString("litmus", ""))) {
      const litmus::Program *P = catalogTestOrNull(Name);
      if (!P)
        return 2;
      Config.LitmusTests.push_back(P);
    }
  }
  if (Config.Chips.empty() || Config.Envs.empty() || Config.Apps.empty()) {
    std::fprintf(stderr, "error: empty campaign grid\n");
    return 2;
  }
  Config.Runs = Opts.getCount("runs", scaledCount(100));
  Config.Seed = Opts.getSeed(1);
  // --oracle=N: stream every Nth run of every cell through the
  // incremental checker (validated as a positive integer; 0 = off).
  // --oracle=all verifies every run (N=1): the streaming checker's
  // memory is bounded by its frontier, not the run length, so checking
  // everything is affordable.
  if (Opts.has("oracle") && Opts.getString("oracle", "") == "all")
    Config.OracleEvery = 1;
  else
    Config.OracleEvery = static_cast<unsigned>(
        Opts.has("oracle") ? Opts.getPositiveInt("oracle", 0, 1 << 20) : 0);

  // --out-dir: run as a sharded fabric worker (one durable record per
  // cell) instead of emitting a monolithic JSON; `gpuwmm report` merges.
  const bool Sharded = Opts.has("out-dir");
  if ((Opts.has("resume") || Opts.has("cells")) && !Sharded) {
    std::fprintf(stderr, "error: --resume and --cells require "
                         "--out-dir=DIR (the sharded campaign store)\n");
    return 2;
  }
  if (Sharded && Opts.has("out")) {
    std::fprintf(stderr,
                 "error: choose --out=FILE (monolithic JSON) or "
                 "--out-dir=DIR (sharded store), not both; merge shards "
                 "with: gpuwmm report --dir=DIR\n");
    return 2;
  }
  if (Sharded)
    return runShardedCampaign(Config, Opts);

  ThreadPool Pool = makePool(Opts);
  const auto Start = std::chrono::steady_clock::now();
  const harness::CampaignReport Report =
      harness::runCampaign(Config, &Pool);
  const double WallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();

  // Wall time goes to stderr only: the JSON report is byte-identical
  // across machines and --jobs values for one seed.
  std::fprintf(stderr, "campaign: %zu cells x %u runs in %.2f s (%u jobs)\n",
               Report.Cells.size(), Config.Runs, WallSeconds, Pool.jobs());

  unsigned OracleChecked = 0, OracleViolations = 0;
  if (Config.OracleEvery) {
    for (const harness::CampaignCell &Cell : Report.Cells) {
      OracleChecked += Cell.OracleChecked;
      OracleViolations += Cell.OracleViolations;
    }
    for (const harness::LitmusCampaignCell &Cell : Report.LitmusCells) {
      OracleChecked += Cell.OracleChecked;
      OracleViolations += Cell.OracleViolations;
    }
    std::fprintf(stderr, "campaign oracle: %u runs cross-checked, "
                         "%u violation(s)\n",
                 OracleChecked, OracleViolations);
  }

  const std::string Out = Opts.getString("out", "-");
  if (Out == "-") {
    harness::writeCampaignJson(Report, std::cout);
  } else {
    std::ofstream OS(Out);
    if (!OS) {
      std::fprintf(stderr, "error: cannot write '%s'\n", Out.c_str());
      return 1;
    }
    harness::writeCampaignJson(Report, OS);
  }
  return OracleViolations ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  const char *Cmd = Argv[1];
  Options Opts(Argc, Argv);
  // --jobs is a common option: validate it for every command (exits with
  // a clear error on 0, negative, non-numeric or absurdly large values).
  (void)Opts.getPositiveInt("jobs", 0, MaxJobs);
  // Every --key must be one the CLI reads: a misspelt or retired option
  // fails loudly instead of being silently ignored.
  for (const std::string &Key : Opts.keys()) {
    if (std::find(std::begin(KnownOptions), std::end(KnownOptions), Key) !=
        std::end(KnownOptions))
      continue;
    std::vector<std::string> Candidates;
    for (const char *K : KnownOptions)
      Candidates.push_back(std::string("--") + K);
    std::fprintf(stderr, "error: unknown option '--%s'%s\n", Key.c_str(),
                 suggestClause("--" + Key, Candidates).c_str());
    return 2;
  }
  // --engine selects the execution engine globally (results are
  // engine-independent). The flag must parse.
  if (Opts.has("engine")) {
    const std::string Name = Opts.getString("engine", "");
    const auto Mode = sim::parseEngineMode(Name);
    if (!Mode) {
      std::fprintf(stderr, "error: invalid --engine='%s' (must be auto "
                           "or scalar)\n",
                   Name.c_str());
      return 2;
    }
    sim::setEngineMode(*Mode);
  }
  if (!std::strcmp(Cmd, "chips"))
    return cmdChips();
  if (!std::strcmp(Cmd, "litmus")) {
    if (Argc >= 3 && !std::strcmp(Argv[2], "list"))
      return cmdLitmusList();
    return cmdLitmus(Opts);
  }
  if (!std::strcmp(Cmd, "tune"))
    return cmdTune(Opts);
  if (!std::strcmp(Cmd, "test"))
    return cmdTest(Opts);
  if (!std::strcmp(Cmd, "harden"))
    return cmdHarden(Opts);
  if (!std::strcmp(Cmd, "fuzz"))
    return cmdFuzz(Opts);
  if (!std::strcmp(Cmd, "hunt"))
    return cmdHunt(Opts);
  if (!std::strcmp(Cmd, "campaign"))
    return cmdCampaign(Opts);
  if (!std::strcmp(Cmd, "report"))
    return cmdReport(Opts);
  return usage();
}
