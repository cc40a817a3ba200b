//===- tools/gpuwmm.cpp - Command-line driver ---------------------------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// The command-line front end a user of the paper's tooling would reach
// for: run litmus tests, tune a chip, test an application under an
// environment, harden it via empirical fence insertion, fuzz random
// programs, run the full Tab. 5 campaign or print any of the paper's
// tables and figures — all from one binary.
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
#include "harness/CostBenchmark.h"
#include "harness/EnvironmentRunner.h"
#include "harness/Merge.h"
#include "harness/WorkList.h"
#include "hunt/Hunt.h"
#include "litmus/Format.h"
#include "model/Enumerate.h"
#include "model/StreamingChecker.h"
#include "sim/BatchExec.h"
#include "support/Options.h"
#include "support/Statistics.h"
#include "support/Suggest.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
#include "tuning/Tuner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <type_traits>

using namespace gpuwmm;

namespace {

int usage() {
  std::printf(
      "usage: gpuwmm <command> [--options]\n"
      "\n"
      "commands:\n"
      "  chips                         list the simulated GPUs (Tab. 1)\n"
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
      "          [--export-weak=DIR]\n"
      "          [--shrink [--out=T.litmus] [--distance]]\n"
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
      "  paper   --table=1|2|3|5|6 | --figure=3|4|5 [--chip]\n"
      "                                print one of the paper's tables or\n"
      "                                figures; --chip picks one chip\n"
      "\n"
      "common options: --seed=N; --jobs=N worker threads (results are\n"
      "identical for every N; default GPUWMM_JOBS or all cores);\n"
      "--engine=auto|scalar engine selection (auto runs every program\n"
      "on the compiled engine, traced and oracle-checked runs included;\n"
      "scalar steps the same programs on the reference engine, the\n"
      "tick-by-tick scheduler; results are engine-independent; default\n"
      "auto);\n"
      "GPUWMM_SCALE scales run counts globally. Options a command does\n"
      "not read are rejected.\n");
  return 2;
}

/// The seven chips in Tab. 1's order.
std::vector<const sim::ChipProfile *> allChips() {
  size_t Count = 0;
  const sim::ChipProfile *Chips = sim::ChipProfile::all(Count);
  std::vector<const sim::ChipProfile *> V;
  for (size_t I = 0; I != Count; ++I)
    V.push_back(&Chips[I]);
  return V;
}

const sim::ChipProfile *chipOrDie(const Options &Opts) {
  const std::string Name = Opts.getString("chip", "titan");
  const sim::ChipProfile *Chip = sim::ChipProfile::lookup(Name);
  if (!Chip) {
    std::vector<std::string> Names;
    for (const sim::ChipProfile *C : allChips())
      Names.push_back(C->ShortName);
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

/// `gpuwmm chips`: Tab. 1's columns for every simulated GPU.
int cmdChips(const Options &) {
  Table T({"chip", "architecture", "short name", "released", "patch (w)",
           "banks", "SMs", "drain base", "sensitivity", "power query"});
  for (const sim::ChipProfile *C : allChips())
    T.addRow({C->Name, archName(C->Arch), C->ShortName,
              std::to_string(C->ReleaseYear),
              std::to_string(C->PatchSizeWords), std::to_string(C->NumBanks),
              std::to_string(C->NumSMs), formatDouble(C->DrainBase, 2),
              formatDouble(C->Sensitivity, 2),
              C->SupportsPowerQuery ? "yes (NVML)" : "no"});
  T.print(std::cout);
  return 0;
}

/// `gpuwmm litmus list`: the built-in catalog at a glance.
int cmdLitmusList(const Options &) {
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
  // --stress scans one location per bank, as the tuning micro-benchmarks
  // do, and reports the most effective.
  std::vector<litmus::LitmusRunner::MicroStress> Configs;
  if (Opts.has("stress"))
    for (unsigned Region = 0; Region != Chip->NumBanks; ++Region)
      Configs.push_back(
          litmus::LitmusRunner::MicroStress::tuned(*Chip, Region));
  else
    Configs.push_back(litmus::LitmusRunner::MicroStress::none());

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
  for (const auto &S : Configs)
    Weak = std::max(Weak, Runner.countWeak(*P, Distance, S, Runs, RunOpts));
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
              "(%llu executions)\n",
              Chip->ShortName, R.Params.PatchWords,
              R.Params.Seq.str().c_str(), R.Params.Spread,
              static_cast<unsigned long long>(R.Executions));
  std::fprintf(stderr, "tune: %.1f s (%u jobs)\n", R.WallSeconds,
               Pool.jobs());
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
  std::printf("%s on %s: %u -> %u fences (%s, %u round(s))\n",
              apps::appName(*App), Chip->ShortName, NumSites,
              R.Fences.count(), R.Stable ? "stable" : "NOT STABLE",
              R.Rounds);
  std::fprintf(stderr, "harden: %.2f s (%u jobs)\n", R.WallSeconds,
               Pool.jobs());
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

/// Writes a report through \p Write to --out (a file; stdout when absent
/// or "-"). False after an error message when the file cannot be opened.
template <typename WriteFn>
bool writeOut(const Options &Opts, const WriteFn &Write) {
  const std::string Out = Opts.getString("out", "-");
  if (Out == "-") {
    Write(std::cout);
    return true;
  }
  std::ofstream OS(Out);
  if (!OS) {
    std::fprintf(stderr, "error: cannot write '%s'\n", Out.c_str());
    return false;
  }
  Write(OS);
  return true;
}

/// Wall-clock seconds since \p Start (stderr-only figures).
double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// The crash-injection hook count that environment variable \p Var
/// (GPUWMM_CAMPAIGN_CRASH_AFTER, GPUWMM_HUNT_CRASH_AFTER) arms: SIGKILL
/// right after the Nth durable record append; 0 = unset. A value that is
/// not a whole number from 1 to UINT_MAX warns and is ignored, like
/// GPUWMM_JOBS.
unsigned crashAfterFromEnv(const char *Var) {
  const char *Env = std::getenv(Var);
  if (!Env)
    return 0;
  char *End = nullptr;
  const long long N = std::strtoll(Env, &End, 10);
  if (*Env && !*End && N > 0 && N <= std::numeric_limits<unsigned>::max())
    return static_cast<unsigned>(N);
  std::fprintf(stderr, "warning: ignoring invalid %s='%s'\n", Var, Env);
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
  Cfg.CrashAfterAppends = crashAfterFromEnv("GPUWMM_HUNT_CRASH_AFTER");
  ThreadPool Pool = makePool(Opts);
  const auto Start = std::chrono::steady_clock::now();
  hunt::HuntReport Report;
  std::string Err;
  if (!hunt::runHunt(Cfg, &Pool, Report, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  const double WallSeconds = secondsSince(Start);
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

  if (!writeOut(Opts, [&](std::ostream &OS) {
        hunt::writeHuntJson(Report, OS, /*WithWork=*/true);
      }))
    return 1;
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
  FOpts.CrashAfterAppends =
      crashAfterFromEnv("GPUWMM_CAMPAIGN_CRASH_AFTER");
  ThreadPool Pool = makePool(Opts);
  const auto Start = std::chrono::steady_clock::now();
  harness::FabricOutcome Out;
  std::string Err;
  if (!harness::runCampaignFabric(Config, FOpts, &Pool, Out, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 2;
  }
  const double WallSeconds = secondsSince(Start);
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

  if (!writeOut(Opts, [&](std::ostream &OS) {
        harness::writeCampaignJson(Report, OS);
      }))
    return 1;
  return 0;
}

int cmdCampaign(const Options &Opts) {
  harness::CampaignConfig Config = harness::CampaignConfig::full();
  // --chips, --envs and --apps replace a dimension of the full grid.
  const auto Select = [&Opts](const char *Key, const char *Noun, auto &Dim,
                              auto Parse) {
    if (!Opts.has(Key))
      return true;
    Dim.clear();
    for (const std::string &Name : splitCsv(Opts.getString(Key, ""))) {
      const auto Value = Parse(Name);
      if (!Value) {
        std::fprintf(stderr, "error: unknown %s '%s'\n", Noun, Name.c_str());
        return false;
      }
      if constexpr (std::is_pointer_v<decltype(Value)>)
        Dim.push_back(Value);
      else
        Dim.push_back(*Value);
    }
    return true;
  };
  if (!Select("chips", "chip", Config.Chips, sim::ChipProfile::lookup) ||
      !Select("envs", "environment", Config.Envs,
              stress::Environment::parse) ||
      !Select("apps", "app", Config.Apps, apps::parseAppName))
    return 2;
  for (const std::string &Name : splitCsv(Opts.getString("litmus", ""))) {
    const litmus::Program *P = catalogTestOrNull(Name);
    if (!P)
      return 2;
    Config.LitmusTests.push_back(P);
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
  const double WallSeconds = secondsSince(Start);

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

  if (!writeOut(Opts, [&](std::ostream &OS) {
        harness::writeCampaignJson(Report, OS);
      }))
    return 1;
  return OracleViolations ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// gpuwmm paper: Tabs. 1, 2, 3, 5 and 6 and Figs. 3, 4 and 5 through the
// paths the other commands take (Tab. 1 is `chips`, Tab. 2 `tune`, Tab. 5
// `campaign`, Tab. 6 `harden`). Each artefact has fixed budgets scaled by
// GPUWMM_SCALE and its own default seed; all run on the worker pool and
// print the same stdout for every --jobs. Wall-clock figures go to stderr.
//===----------------------------------------------------------------------===//

/// What every artefact reads: the options (--seed), the --chip filter
/// and the worker pool.
struct PaperRun {
  const Options &Opts;
  const sim::ChipProfile *Only; ///< --chip, or null for every chip.
  ThreadPool &Pool;

  bool wants(const sim::ChipProfile &Chip) const {
    return !Only || Only == &Chip;
  }
};

void table1(const PaperRun &P) {
  std::printf("== Table 1: the seven Nvidia GPUs that we study (simulated "
              "profiles) ==\n\n");
  cmdChips(P.Opts);
}

void table2(const PaperRun &P) {
  const double Scale = experimentScale();
  const uint64_t Seed = P.Opts.getSeed(7);
  std::printf("== Table 2: stressing parameters and tuning cost ==\n");
  std::printf("(execution counts scaled by %.2f; the paper used ~68M "
              "executions per chip)\n\n",
              Scale);
  Table T({"chip", "c. patch size", "sequence", "spread", "executions",
           "paper: patch/seq/spread", "agree"});
  const auto Chips = allChips();
  for (size_t I = 0; I != Chips.size(); ++I) {
    const sim::ChipProfile &Chip = *Chips[I];
    if (!P.wants(Chip))
      continue;
    tuning::Tuner Tuner(Chip, Rng::deriveStream(Seed, I));
    const tuning::TuningResult R = Tuner.tune(Scale, &P.Pool);
    const auto Paper = stress::TunedStressParams::paperDefaults(Chip);
    bool HasLd = false, HasSt = false;
    for (unsigned K = 0; K != R.Params.Seq.length(); ++K)
      (R.Params.Seq.isStore(K) ? HasSt : HasLd) = true;
    const std::string Agree = {
        R.Params.PatchWords == Paper.PatchWords ? 'P' : '.',
        HasLd && HasSt ? 'S' : '.',
        R.Params.Spread == Paper.Spread ? 'M' : '.'};
    T.addRow({Chip.ShortName, std::to_string(R.Params.PatchWords),
              R.Params.Seq.str(), std::to_string(R.Params.Spread),
              std::to_string(R.Executions),
              std::to_string(Paper.PatchWords) + " / " + Paper.Seq.str() +
                  " / " + std::to_string(Paper.Spread),
              Agree});
    std::fprintf(stderr, "table 2: %s tuned in %.1f s (%u jobs)\n",
                 Chip.ShortName, R.WallSeconds, P.Pool.jobs());
  }
  T.print(std::cout);
  std::printf("\nagree column: P = critical patch size matches the paper, "
              "S = selected sequence mixes loads and stores (as all of the "
              "paper's winners do), M = spread matches the paper.\n");
}

/// Tab. 3: the top and bottom three of all 63 access sequences per
/// litmus test, plus the selected (Pareto, tie-broken) sequence's rank.
void table3(const PaperRun &P) {
  const sim::ChipProfile &Chip =
      P.Only ? *P.Only : *sim::ChipProfile::lookup("titan");
  std::printf("== Table 3: access-sequence ranking for %s ==\n\n",
              Chip.Name);
  tuning::SequenceTuner Tuner(Chip, P.Opts.getSeed(29));
  tuning::SequenceTuner::Config Cfg;
  Cfg.Executions = scaledCount(40);
  const auto Ranked = Tuner.rankAll(Chip.PatchSizeWords, Cfg, &P.Pool);
  const auto Best = tuning::SequenceTuner::selectBest(Ranked);

  const auto Tests = litmus::tuningPrograms();
  for (unsigned K = 0; K != 3; ++K) {
    const auto Sorted = tuning::SequenceTuner::sortedByKind(Ranked, K);
    const auto Row = [&](size_t I, const std::string &Rank) {
      return std::vector<std::string>{Rank, Sorted[I].Seq.str(),
                                      std::to_string(Sorted[I].Scores[K])};
    };
    std::printf("-- %s --\n", Tests[K]->Name.c_str());
    Table T({"rank", "sigma", "score"});
    for (size_t I = 0; I != 3; ++I)
      T.addRow(Row(I, std::to_string(I + 1)));
    for (size_t I = 0; I != Sorted.size(); ++I)
      if (Sorted[I].Seq == Best) {
        T.addRow(Row(I, std::to_string(I + 1) + " (selected)"));
        break;
      }
    for (size_t I = Sorted.size() - 3; I != Sorted.size(); ++I)
      T.addRow(Row(I, std::to_string(I + 1)));
    T.print(std::cout);
    std::printf("\n");
  }
  std::printf("selected sequence (Pareto + 2-of-3 tie-break): \"%s\"\n"
              "(paper's Titan winner: \"ld st2 ld\", ranked 17th on every "
              "individual test, ~1000x above the all-store bottom ranks)\n",
              Best.str().c_str());
}

/// Tab. 5: the campaign's per-(chip, environment) "a/b" summaries.
void table5(const PaperRun &P) {
  harness::CampaignConfig Config = harness::CampaignConfig::full();
  std::erase_if(Config.Chips, [&](const auto *C) { return !P.wants(*C); });
  Config.Runs = scaledCount(60);
  Config.Seed = P.Opts.getSeed(13);
  const harness::CampaignReport Report =
      harness::runCampaign(Config, &P.Pool);

  std::printf("== Table 5: effectiveness of the eight testing environments "
              "==\n");
  std::printf("(a/b: errors observed for b of 10 applications, effective "
              "(>5%% of %u runs) for a; * marks the most capable "
              "environment per chip)\n\n",
              Config.Runs);
  std::vector<std::string> Headers{"chip"};
  for (const auto &Env : Config.Envs)
    Headers.push_back(Env.name());
  Table T(Headers);
  for (size_t C = 0; C != Config.Chips.size(); ++C) {
    const auto Score = [&](size_t E) {
      const harness::EnvironmentSummary &S = Report.summary(C, E);
      return S.AppsEffective * 100 + S.AppsWithErrors;
    };
    unsigned Best = 0;
    for (size_t E = 0; E != Config.Envs.size(); ++E)
      Best = std::max(Best, Score(E));
    std::vector<std::string> Row{Config.Chips[C]->ShortName};
    for (size_t E = 0; E != Config.Envs.size(); ++E) {
      const harness::EnvironmentSummary &S = Report.summary(C, E);
      Row.push_back(std::to_string(S.AppsEffective) + "/" +
                    std::to_string(S.AppsWithErrors) +
                    (Score(E) == Best ? "*" : ""));
    }
    T.addRow(Row);
  }
  T.print(std::cout);
  std::printf("\nShape to check against the paper's Tab. 5: sys-str "
              "environments dominate every chip (observing errors in ~8 of "
              "10 applications — all but the fenced sdk-red and cub-scan); "
              "no-str shows errors almost nowhere; rand-str and cache-str "
              "sit far below sys-str.\n");
}

/// Tab. 6: Alg. 1 on every fenceless application and chip, titan first
/// (the paper's reference chip), counting the chips that agree with it.
void table6(const PaperRun &P) {
  const uint64_t Seed = P.Opts.getSeed(17);
  const unsigned StableRuns = scaledCount(300);
  const harden::InsertionConfig Cfg;
  std::printf("== Table 6: empirical fence insertion results ==\n");
  std::printf("(environment: sys-str+; stability budget %u runs, initial "
              "I=%u)\n\n",
              StableRuns, Cfg.InitialIterations);
  std::vector<const sim::ChipProfile *> Order = allChips();
  std::stable_partition(Order.begin(), Order.end(), [](const auto *C) {
    return std::string_view(C->ShortName) == "titan";
  });

  Table T({"app", "init. fences", "red. (titan)", "titan fence sites",
           "agreeing chips"});
  for (apps::AppKind App : apps::AllAppKinds) {
    if (apps::appHasBuiltinFences(App))
      continue; // Tab. 6 covers the seven fenceless applications.
    const unsigned NumSites = apps::appNumSites(App);
    sim::FencePolicy TitanFences;
    std::vector<double> Times;
    unsigned Agreeing = 0;
    for (const sim::ChipProfile *Chip : Order) {
      harden::AppCheckOracle Oracle(
          App, *Chip, Rng::deriveStream(Seed, static_cast<uint64_t>(App)),
          StableRuns, &P.Pool);
      const auto R = harden::empiricalFenceInsertion(
          sim::FencePolicy::all(NumSites), Oracle, Cfg);
      Times.push_back(R.WallSeconds);
      if (Chip == Order.front())
        TitanFences = R.Fences;
      else
        Agreeing += R.Fences == TitanFences;
    }
    std::string SiteList;
    const auto Instance = apps::makeApp(App);
    for (unsigned S : TitanFences.sites())
      SiteList += (SiteList.empty() ? "" : "; ") +
                  std::string(Instance->siteName(S));
    T.addRow({apps::appName(App), std::to_string(NumSites),
              std::to_string(TitanFences.count()), SiteList,
              std::to_string(Agreeing) + "/" +
                  std::to_string(Order.size() - 1)});
    std::fprintf(stderr,
                 "table 6: %s min/med/max %.2f/%.2f/%.2f s (%u jobs)\n",
                 apps::appName(App), quantile(Times, 0.0), median(Times),
                 quantile(Times, 1.0), P.Pool.jobs());
  }
  T.print(std::cout);
  std::printf(
      "\nPaper (Tab. 6) reduced counts: cbe-ht 1, cbe-dot 1, ct-octree 1, "
      "tpo-tm 1, sdk-red-nf 1, cub-scan-nf 2, ls-bh-nf 4.\n"
      "Site counts differ from the paper's because instrumentation "
      "granularity differs; the shape to check is: most applications "
      "reduce to a single fence at the store the hand analyses blame, "
      "cub-scan-nf reduces to exactly its two provided fences, and chips "
      "mostly agree.\n");
}

/// Collapses a per-location histogram into 64 buckets and prints it as
/// one row of bars.
void plotHistogram(const std::vector<unsigned> &Hist, unsigned MaxCount) {
  const unsigned PerBucket =
      std::max<unsigned>(1, static_cast<unsigned>(Hist.size()) / 64);
  const char Levels[] = " .:|#";
  std::printf("    |");
  for (size_t I = 0; I < Hist.size(); I += PerBucket) {
    unsigned V = 0;
    for (size_t J = I; J != std::min(Hist.size(), I + PerBucket); ++J)
      V = std::max(V, Hist[J]);
    const unsigned Level = MaxCount == 0 || V == 0
                               ? 0
                               : 1 + 3 * std::min(V, MaxCount) / MaxCount;
    std::putchar(Levels[Level]);
  }
  std::printf("|\n");
}

/// Fig. 3: patch-finding histograms at three distances per chip, plus
/// the critical patch size the full distance sweep derives.
void figure3(const PaperRun &P) {
  const uint64_t Seed = P.Opts.getSeed(3);
  const unsigned C = scaledCount(60);
  std::printf("== Figure 3: patch finding (x axis: stressed scratchpad "
              "location 0..255, bar height: weak behaviours) ==\n\n");
  // The paper plots d in {0, 32, 64} for Titan and {0, 64, 128} for
  // C2075/980.
  const struct {
    const char *Chip;
    std::vector<unsigned> Distances;
    uint64_t Seed;
  } Plots[] = {{"titan", {0, 32, 64}, Seed},
               {"c2075", {0, 64, 128}, Rng::deriveStream(Seed, 1)},
               {"980", {0, 64, 128}, Rng::deriveStream(Seed, 2)}};
  for (const auto &Plot : Plots) {
    const sim::ChipProfile &Chip = *sim::ChipProfile::lookup(Plot.Chip);
    tuning::PatchFinder PF(Chip, Plot.Seed);
    tuning::PatchFinder::Config Cfg;
    Cfg.NumLocations = 256;
    Cfg.Distances = Plot.Distances;
    Cfg.Executions = C;
    const tuning::PatchScan Scan = PF.scan(Cfg, &P.Pool);
    tuning::PatchFinder::Config FullCfg = Cfg;
    FullCfg.Distances = tuning::PatchFinder::defaultDistances();
    const auto Decision =
        tuning::PatchFinder::decide(PF.scan(FullCfg, &P.Pool), Cfg.Eps);

    std::printf("-- %s --\n", Chip.Name);
    const auto Tests = litmus::tuningPrograms();
    for (size_t K = 0; K != Tests.size(); ++K) {
      if (Tests[K]->Name == "SB")
        continue; // The paper omits SB from Fig. 3 (similar to LB).
      for (size_t D = 0; D != Scan.Distances.size(); ++D) {
        unsigned MaxCount = 0;
        for (unsigned V : Scan.Hist[K][D])
          MaxCount = std::max(MaxCount, V);
        std::printf("  %s d=%-3u (max %u weak / %u runs per location)\n",
                    Tests[K]->Name.c_str(), Scan.Distances[D], MaxCount, C);
        plotHistogram(Scan.Hist[K][D], MaxCount);
      }
    }
    std::string Derived = "(none)";
    if (Decision.CriticalPatchSize)
      Derived = std::to_string(*Decision.CriticalPatchSize);
    else if (Decision.MajorityPatchSize)
      Derived = std::to_string(*Decision.MajorityPatchSize) + " (majority)";
    std::printf("  per-test mode patch sizes: MP=%u LB=%u SB=%u -> critical "
                "patch size %s (paper: %u)\n\n",
                Decision.PerKindMode[0], Decision.PerKindMode[1],
                Decision.PerKindMode[2], Derived.c_str(),
                Chip.PatchSizeWords);
  }
}

/// Fig. 4: score per spread (1..16 stressed regions) on the 980 and K20,
/// or on --chip alone.
void figure4(const PaperRun &P) {
  const uint64_t Seed = P.Opts.getSeed(11);
  std::printf("== Figure 4: spread finding ==\n\n");
  std::vector<std::pair<const sim::ChipProfile *, uint64_t>> Plots;
  if (P.Only)
    Plots = {{P.Only, Seed}};
  else
    Plots = {{sim::ChipProfile::lookup("980"), Seed},
             {sim::ChipProfile::lookup("k20"), Rng::deriveStream(Seed, 1)}};
  for (const auto &[Chip, ChipSeed] : Plots) {
    const auto Tuned = stress::TunedStressParams::paperDefaults(*Chip);
    tuning::SpreadTuner Tuner(*Chip, ChipSeed);
    tuning::SpreadTuner::Config Cfg;
    Cfg.MaxSpread = 16;
    Cfg.Executions = scaledCount(60);
    const auto Ranked =
        Tuner.rankAll(Tuned.PatchWords, Tuned.Seq, Cfg, &P.Pool);
    std::printf("-- %s (sequence \"%s\", patch %u) --\n", Chip->Name,
                Tuned.Seq.str().c_str(), Tuned.PatchWords);
    Table T({"spread", "MP score", "LB score", "SB score"});
    for (const auto &S : Ranked)
      T.addRow({std::to_string(S.Spread), std::to_string(S.Scores[0]),
                std::to_string(S.Scores[1]), std::to_string(S.Scores[2])});
    T.print(std::cout);
    std::printf("maximally effective spread: %u (paper: 2)\n\n",
                tuning::SpreadTuner::selectBest(Ranked));
  }
}

/// Fig. 5: runtime and energy of every chip/application pair with no
/// fences, the fences Alg. 1 finds on that chip ("emp") and a fence after
/// every access ("cons"), with the median overheads the paper reports.
void figure5(const PaperRun &P) {
  const uint64_t Seed = P.Opts.getSeed(23);
  const unsigned Runs = scaledCount(25);
  std::printf("== Figure 5: cost of {no, emp, cons} fences ==\n");
  std::printf("(averaged over %u passing native runs per point; energy "
              "only on chips with power instrumentation)\n\n",
              Runs);
  Table T({"chip", "app", "no f. ms", "emp ms", "cons ms", "emp ovh",
           "cons ovh", "no f. J", "emp J", "cons J"});
  std::vector<double> EmpOvh, ConsOvh, EmpEnergyOvh, ConsEnergyOvh;
  const auto Chips = allChips();
  for (size_t CI = 0; CI != Chips.size(); ++CI) {
    const sim::ChipProfile &Chip = *Chips[CI];
    if (!P.wants(Chip))
      continue;
    for (apps::AppKind App : apps::AllAppKinds) {
      if (apps::appHasBuiltinFences(App))
        continue; // As in Tab. 6.
      const unsigned NumSites = apps::appNumSites(App);
      const uint64_t PairSeed = Rng::deriveStream(
          Rng::deriveStream(Seed, CI), static_cast<uint64_t>(App));
      // The oracle derives its per-check streams from a branch of its
      // own; the three fence policies share the measurement stream, so
      // their costs are paired.
      harden::AppCheckOracle Oracle(App, Chip,
                                    Rng::deriveStream(PairSeed, 0),
                                    scaledCount(150), &P.Pool);
      const auto Emp = harden::empiricalFenceInsertion(
          sim::FencePolicy::all(NumSites), Oracle);
      const uint64_t MeasureSeed = Rng::deriveStream(PairSeed, 1);
      const harness::CostMeasurement Costs[] = {
          harness::measureCost(App, Chip, sim::FencePolicy::none(NumSites),
                               Runs, MeasureSeed),
          harness::measureCost(App, Chip, Emp.Fences, Runs, MeasureSeed),
          harness::measureCost(App, Chip, sim::FencePolicy::all(NumSites),
                               Runs, MeasureSeed)};
      EmpOvh.push_back(Costs[1].RuntimeMs / Costs[0].RuntimeMs);
      ConsOvh.push_back(Costs[2].RuntimeMs / Costs[0].RuntimeMs);
      std::vector<std::string> Row{Chip.ShortName, apps::appName(App)};
      for (const auto &C : Costs)
        Row.push_back(formatDouble(C.RuntimeMs, 2));
      Row.push_back(formatOverheadPercent(EmpOvh.back()));
      Row.push_back(formatOverheadPercent(ConsOvh.back()));
      if (Costs[0].EnergyValid) {
        EmpEnergyOvh.push_back(Costs[1].EnergyJ / Costs[0].EnergyJ);
        ConsEnergyOvh.push_back(Costs[2].EnergyJ / Costs[0].EnergyJ);
      }
      for (const auto &C : Costs)
        Row.push_back(Costs[0].EnergyValid ? formatDouble(C.EnergyJ, 2)
                                           : "-");
      T.addRow(Row);
    }
  }
  T.print(std::cout);
  std::printf("\n%zu runtime points, %zu energy points (paper: 93 runtime, "
              "54 energy before outlier removal)\n",
              EmpOvh.size(), EmpEnergyOvh.size());
  std::printf("median runtime overhead: emp %s, cons %s (paper: emp <3%%, "
              "cons 174%%)\n",
              formatOverheadPercent(median(EmpOvh)).c_str(),
              formatOverheadPercent(median(ConsOvh)).c_str());
  if (!EmpEnergyOvh.empty())
    std::printf("median energy overhead:  emp %s, cons %s (paper: emp <3%%, "
                "cons 171%%)\n",
                formatOverheadPercent(median(EmpEnergyOvh)).c_str(),
                formatOverheadPercent(median(ConsEnergyOvh)).c_str());
}

/// `gpuwmm paper --table=N | --figure=N`: prints one paper artefact,
/// restricted to --chip where the artefact iterates over chips. Exit 2
/// unless exactly one known artefact is selected.
int cmdPaper(const Options &Opts) {
  static const struct {
    const char *Key;
    void (*Print)(const PaperRun &);
  } Artefacts[] = {{"table=1", table1},  {"table=2", table2},
                   {"table=3", table3},  {"table=5", table5},
                   {"table=6", table6},  {"figure=3", figure3},
                   {"figure=4", figure4}, {"figure=5", figure5}};
  const bool IsTable = Opts.has("table");
  if (IsTable != Opts.has("figure")) {
    const char *Kind = IsTable ? "table" : "figure";
    const std::string Key = std::string(Kind) + "=" +
                            Opts.getString(Kind, "");
    for (const auto &A : Artefacts)
      if (Key == A.Key) {
        const sim::ChipProfile *Only =
            Opts.has("chip") ? chipOrDie(Opts) : nullptr;
        ThreadPool Pool = makePool(Opts);
        A.Print({Opts, Only, Pool});
        return 0;
      }
  }
  std::fprintf(stderr, "error: paper needs one of --table=1|2|3|5|6 or "
                       "--figure=3|4|5\n");
  return 2;
}

/// One gpuwmm command: its handler and the options it reads besides the
/// common --engine, --jobs and --seed. main() rejects every other option.
struct Command {
  const char *Name;
  int (*Run)(const Options &);
  const char *Reads;

  std::vector<std::string> flags() const {
    std::vector<std::string> Flags;
    std::istringstream IS(std::string("engine jobs seed ") + Reads);
    for (std::string Key; IS >> Key;)
      Flags.push_back("--" + Key);
    return Flags;
  }
};

const Command Commands[] = {
    {"chips", cmdChips, ""},
    {"litmus list", cmdLitmusList, ""},
    {"litmus", cmdLitmus,
     "chip distance explain fences file print runs stress test"},
    {"tune", cmdTune, "chip scale tests"},
    {"test", cmdTest, "app chip env runs"},
    {"harden", cmdHarden, "app chip stable-runs"},
    {"fuzz", cmdFuzz,
     "chip distance export-weak file out programs runs shrink"},
    {"hunt", cmdHunt,
     "chip corpus-dir distance harden-runs out programs resume rounds runs "
     "shrink-runs stable-runs verify-runs"},
    {"campaign", cmdCampaign,
     "apps cells chips envs litmus oracle out out-dir resume runs"},
    {"report", cmdReport, "dir out"},
    {"paper", cmdPaper, "chip figure table"}};

/// The command \p Argv names ("litmus list" is two words); null if none.
const Command *findCommand(int Argc, char **Argv) {
  const std::string Word = Argv[1];
  for (const std::string &Name :
       {Argc >= 3 ? Word + " " + Argv[2] : Word, Word})
    for (const Command &C : Commands)
      if (Name == C.Name)
        return &C;
  return nullptr;
}

/// Exits 2 unless \p Cmd reads every option given, suggesting a close
/// option it does read: a misspelt, retired or misplaced option fails
/// loudly instead of being ignored.
void rejectUnreadOptions(const Command &Cmd, const Options &Opts) {
  const std::vector<std::string> Reads = Cmd.flags();
  const auto ReadBy = [](const std::vector<std::string> &Flags,
                         const std::string &Flag) {
    return std::find(Flags.begin(), Flags.end(), Flag) != Flags.end();
  };
  for (const std::string &Key : Opts.keys()) {
    const std::string Flag = "--" + Key;
    if (ReadBy(Reads, Flag))
      continue;
    const bool Known = std::any_of(
        std::begin(Commands), std::end(Commands),
        [&](const Command &C) { return ReadBy(C.flags(), Flag); });
    const std::string What = Known ? "gpuwmm " + std::string(Cmd.Name) +
                                         " does not read"
                                   : "unknown option";
    std::fprintf(stderr, "error: %s '%s'%s\n", What.c_str(), Flag.c_str(),
                 suggestClause(Flag, Reads).c_str());
    std::exit(2);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  const Command *Cmd = findCommand(Argc, Argv);
  if (!Cmd)
    return usage();
  Options Opts(Argc, Argv);
  // --jobs is a common option: validate it for every command (exits with
  // a clear error on 0, negative, non-numeric or absurdly large values).
  (void)Opts.getPositiveInt("jobs", 0, MaxJobs);
  rejectUnreadOptions(*Cmd, Opts);
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
  return Cmd->Run(Opts);
}
