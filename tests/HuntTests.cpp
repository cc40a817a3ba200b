//===- tests/HuntTests.cpp - Hunt pipeline property-test battery ---------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// The closed-loop bug-mining pipeline (DESIGN.md Sec. 18) and its parts:
//
//  * the canonical form behind corpus dedupe (idempotent, isomorphism-
//    collapsing, name/doc-blind),
//  * the shrinker battery — over hundreds of pool-fuzzed weak programs,
//    every accepted shrink step still provokes checker-confirmed weakness,
//    thread counts never grow, and op counts strictly fall; a padded IRIW
//    is pinned to reduce to the catalog IRIW core at seed 42; and no
//    candidate the enumerator pre-filter rules out reproduces weak,
//  * Alg. 1 hardening over litmus programs (fence sets that restore SC
//    under the streaming oracle, `fence?` annotation round-trips),
//  * the crash-safe corpus store (manifest discipline, torn tails, key
//    CRCs, artifact healing, SIGKILL injection via fork+waitpid), and
//  * the pipeline itself: a bounded hunt mines an oracle-verified-SC
//    corpus whose bytes are identical for every --jobs and engine, and
//    crash+resume converges on the uninterrupted corpus.
//
//===----------------------------------------------------------------------===//

#include "EngineModeGuard.h"

#include "fuzz/LitmusBridge.h"
#include "fuzz/ProgramFuzzer.h"
#include "fuzz/Shrink.h"
#include "harden/LitmusHarden.h"
#include "hunt/Corpus.h"
#include "hunt/Hunt.h"
#include "litmus/Format.h"
#include "litmus/Litmus.h"
#include "model/Enumerate.h"
#include "model/StreamingChecker.h"
#include "sim/BatchExec.h"
#include "stress/Environment.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/ShardIo.h"
#include "support/ThreadPool.h"

#include "gtest/gtest.h"

#include <sys/types.h>
#include <sys/wait.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <map>
#include <sstream>
#include <unistd.h>

using namespace gpuwmm;

namespace {

const sim::ChipProfile &titan() {
  const sim::ChipProfile *Chip = sim::ChipProfile::lookup("titan");
  EXPECT_NE(Chip, nullptr);
  return *Chip;
}

/// A fresh corpus directory per test, removed on teardown. The path does
/// not exist on entry — Corpus::open creates it, which is itself part of
/// the contract under test.
struct TempCorpusDir {
  std::filesystem::path Path;

  TempCorpusDir(const char *Tag = "") {
    const auto *Info = ::testing::UnitTest::GetInstance()->current_test_info();
    Path = std::filesystem::path(::testing::TempDir()) /
           (std::string("gpuwmm-") + Info->test_suite_name() + "-" +
            Info->name() + Tag);
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  ~TempCorpusDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  std::string str() const { return Path.string(); }
};

unsigned countOps(const litmus::Program &P) {
  unsigned N = 0;
  for (const litmus::ProgThread &T : P.Threads)
    N += static_cast<unsigned>(T.Ops.size());
  return N;
}

litmus::Program parse(const char *Text) {
  litmus::ParseError Err;
  std::optional<litmus::Program> P = litmus::parseLitmus(Text, Err);
  EXPECT_TRUE(P.has_value()) << Err.render("test-program");
  return P ? *P : litmus::Program();
}

const char *MpText = R"(
litmus mp
locations x y
thread 0 @ block 0 { st x 1
  st y 1 }
thread 1 @ block 1 { ld r0 y
  ld r1 x }
forbidden r0 = 1 /\ r1 = 0
)";

const char *SbText = R"(
litmus sb
locations x y
thread 0 @ block 0 { st x 1
  ld r0 y }
thread 1 @ block 1 { st y 1
  ld r1 x }
forbidden r0 = 0 /\ r1 = 0
)";

const char *LbText = R"(
litmus lb
locations x y
thread 0 @ block 0 { ldasync r0 x
  st y 1
  await r0 }
thread 1 @ block 1 { ldasync r1 y
  st x 1
  await r1 }
forbidden r0 = 1 /\ r1 = 1
)";

/// A corpus entry around \p Text, with the derived fields (canonical key,
/// canonicalised program) filled the way the pipeline fills them.
hunt::CorpusEntry entryFor(const char *Text, unsigned Round = 0) {
  hunt::CorpusEntry E;
  E.Annotated = fuzz::canonicalizeProgram(parse(Text));
  E.Key = fuzz::canonicalKey(harden::stripOptFences(E.Annotated));
  E.Round = Round;
  E.OriginalOps = countOps(E.Annotated) + 2;
  E.ReducedOps = countOps(E.Annotated);
  E.ShrinkCandidates = 5;
  E.ShrinkAccepted = 2;
  E.CrossChecks = 7;
  E.FenceSites = 4;
  E.Fences = 1;
  E.HardenRounds = 3;
  E.HardenAttempts = 1;
  E.HardenStable = true;
  E.VerifyRuns = 10;
  return E;
}

hunt::CorpusManifest testManifest() {
  hunt::CorpusManifest M;
  M.Chip = "titan";
  M.Seed = 5;
  M.Programs = 12;
  M.RunsPerProgram = 30;
  M.NumVars = 3;
  M.OpsPerThread = 5;
  M.Distance = 64;
  M.ShrinkRuns = 120;
  M.HardenRuns = 16;
  M.StableRuns = 150;
  M.VerifyRuns = 80;
  return M;
}

hunt::Corpus openCorpus(const std::string &Dir, bool Resume = false,
                        unsigned CrashAfter = 0) {
  hunt::Corpus::OpenOptions Opts;
  Opts.Dir = Dir;
  Opts.Resume = Resume;
  Opts.CrashAfterAppends = CrashAfter;
  hunt::Corpus C;
  std::string Err;
  EXPECT_TRUE(hunt::Corpus::open(Opts, testManifest(), C, &Err)) << Err;
  return C;
}

/// The bounded hunt configuration the pipeline tests pin their goldens
/// on: small enough for the fast loop, large enough that every stage
/// (shrink, dedupe, harden, verify) sees real work at seed 9.
hunt::HuntConfig tinyHunt(unsigned Rounds = 2) {
  hunt::HuntConfig Cfg;
  Cfg.Chip = &titan();
  Cfg.Rounds = Rounds;
  Cfg.Fuzz.Programs = 12;
  Cfg.Fuzz.RunsPerProgram = 30;
  Cfg.Distance = 64;
  Cfg.ShrinkRuns = 120;
  Cfg.HardenRuns = 16;
  Cfg.StableRuns = 150;
  Cfg.VerifyRuns = 80;
  Cfg.Seed = 9;
  return Cfg;
}

std::string huntJson(const hunt::HuntReport &Report) {
  std::ostringstream OS;
  hunt::writeHuntJson(Report, OS, /*WithWork=*/true);
  return OS.str();
}

hunt::HuntReport runHuntOk(const hunt::HuntConfig &Cfg,
                           ThreadPool *Pool = nullptr) {
  hunt::HuntReport Report;
  std::string Err;
  EXPECT_TRUE(hunt::runHunt(Cfg, Pool, Report, &Err)) << Err;
  return Report;
}

/// Every .litmus artifact of a corpus directory, name -> bytes.
std::map<std::string, std::string> artifactBytes(const std::string &Dir) {
  std::map<std::string, std::string> Out;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir)) {
    const std::string Name = Entry.path().filename().string();
    if (Name.size() > 7 && Name.compare(Name.size() - 7, 7, ".litmus") == 0) {
      std::string Text, Err;
      EXPECT_TRUE(readFile(Entry.path().string(), Text, &Err)) << Err;
      Out[Name] = Text;
    }
  }
  return Out;
}

/// The concatenated bytes of a corpus directory's record logs, in claim
/// order (a single-invocation corpus has exactly corpus-0000.jsonl).
std::string corpusLogBytes(const std::string &Dir) {
  std::vector<std::string> Logs;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir)) {
    const std::string Name = Entry.path().filename().string();
    if (Name.rfind("corpus-", 0) == 0 &&
        Name.compare(Name.size() - 6, 6, ".jsonl") == 0)
      Logs.push_back(Entry.path().string());
  }
  std::sort(Logs.begin(), Logs.end());
  std::string Out;
  for (const std::string &Log : Logs) {
    std::string Text, Err;
    EXPECT_TRUE(readFile(Log, Text, &Err)) << Err;
    Out += Text;
  }
  return Out;
}

void expectEntriesEqual(const std::vector<hunt::CorpusEntry> &A,
                        const std::vector<hunt::CorpusEntry> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Name, B[I].Name);
    EXPECT_EQ(A[I].Round, B[I].Round);
    EXPECT_EQ(A[I].Key, B[I].Key);
    EXPECT_EQ(A[I].KeyCrc, B[I].KeyCrc);
    EXPECT_EQ(litmus::printLitmus(A[I].Annotated),
              litmus::printLitmus(B[I].Annotated));
    EXPECT_EQ(A[I].OriginalOps, B[I].OriginalOps);
    EXPECT_EQ(A[I].ReducedOps, B[I].ReducedOps);
    EXPECT_EQ(A[I].ShrinkCandidates, B[I].ShrinkCandidates);
    EXPECT_EQ(A[I].ShrinkAccepted, B[I].ShrinkAccepted);
    EXPECT_EQ(A[I].CrossChecks, B[I].CrossChecks);
    EXPECT_EQ(A[I].ProvokingRegion, B[I].ProvokingRegion);
    EXPECT_EQ(A[I].FenceSites, B[I].FenceSites);
    EXPECT_EQ(A[I].Fences, B[I].Fences);
    EXPECT_EQ(A[I].HardenRounds, B[I].HardenRounds);
    EXPECT_EQ(A[I].HardenAttempts, B[I].HardenAttempts);
    EXPECT_EQ(A[I].HardenStable, B[I].HardenStable);
    EXPECT_EQ(A[I].VerifyRuns, B[I].VerifyRuns);
    EXPECT_EQ(A[I].VerifyWeak, B[I].VerifyWeak);
    EXPECT_EQ(A[I].VerifyForbidden, B[I].VerifyForbidden);
    EXPECT_EQ(A[I].AxiomViolations, B[I].AxiomViolations);
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Canonical form (the corpus dedupe key)
//===----------------------------------------------------------------------===//

TEST(CanonTest, IdempotentOnPoolPrograms) {
  // canon(canon(P)) == canon(P) over a pool batch — weak and non-weak
  // programs alike (the form must be total, not just weak-case-shaped).
  const auto Batch = fuzz::fuzzBatch(titan(), fuzz::BatchConfig(), 3);
  ASSERT_FALSE(Batch.empty());
  for (size_t I = 0; I != Batch.size(); ++I) {
    const fuzz::BatchEntry &B = Batch[I];
    const litmus::Program P = fuzz::toLitmusProgram(
        B.P, "pool", B.R.WeakOutcomes ? &B.R.FirstWeak : nullptr);
    const litmus::Program C1 = fuzz::canonicalizeProgram(P);
    EXPECT_TRUE(C1.validate().empty()) << C1.validate();
    EXPECT_TRUE(fuzz::canonicalizeProgram(C1) == C1)
        << "canon not idempotent for pool program " << I;
    EXPECT_EQ(fuzz::canonicalKey(P), fuzz::canonicalKey(C1));
  }
}

TEST(CanonTest, KeyIgnoresNameAndDoc) {
  litmus::Program A = parse(MpText);
  litmus::Program B = A;
  B.Name = "something-else";
  B.Doc = "a doc comment the key must not see";
  EXPECT_EQ(fuzz::canonicalKey(A), fuzz::canonicalKey(B));
}

TEST(CanonTest, IsomorphicProgramsShareOneKey) {
  // The same bug spelled differently: renamed locations and registers,
  // different data values, different block numbers. One canonical key.
  const litmus::Program A = parse(MpText);
  const litmus::Program B = parse(R"(
litmus mp-respelled
locations q p
thread 0 @ block 2 { st q 7
  st p 7 }
thread 1 @ block 5 { ld s0 p
  ld s1 q }
forbidden s0 = 7 /\ s1 = 0
)");
  EXPECT_EQ(fuzz::canonicalKey(A), fuzz::canonicalKey(B));
  EXPECT_NE(fuzz::canonicalKey(A), fuzz::canonicalKey(parse(SbText)));
}

TEST(CanonTest, DropsLocationsNothingReferences) {
  const litmus::Program P = parse(R"(
litmus unused-loc
locations x ghost y
init { ghost = 9 }
thread 0 @ block 0 { st x 1
  st y 1 }
thread 1 @ block 1 { ld r0 y
  ld r1 x }
forbidden r0 = 1 /\ r1 = 0
)");
  const litmus::Program C = fuzz::canonicalizeProgram(P);
  EXPECT_EQ(C.Locations.size(), 2u);
  EXPECT_TRUE(C.validate().empty()) << C.validate();
  // And the ghost's presence never split the key space.
  EXPECT_EQ(fuzz::canonicalKey(P), fuzz::canonicalKey(parse(MpText)));
}

//===----------------------------------------------------------------------===//
// Shrinker battery
//===----------------------------------------------------------------------===//

namespace {

/// The battery body: fuzz a pool batch, shrink its first \p NeedWeak weak
/// programs with step recording, and check every property the pipeline
/// depends on — each accepted step validates, never grows the thread
/// count, strictly shrinks the op count, canonicalises idempotently, and
/// still provokes checker-confirmed weakness when independently
/// re-verified; the checkers never disagree.
void shrinkBattery(unsigned NeedWeak) {
  const sim::ChipProfile &Chip = titan();
  fuzz::BatchConfig BC;
  BC.Programs = 800;
  BC.RunsPerProgram = 40;
  const auto Batch = fuzz::fuzzBatch(Chip, BC, 7);

  unsigned Weak = 0, Reproduced = 0, Steps = 0;
  for (size_t I = 0; I != Batch.size() && Weak < NeedWeak; ++I) {
    const fuzz::BatchEntry &B = Batch[I];
    if (!B.R.WeakOutcomes)
      continue;
    ++Weak;
    const litmus::Program P =
        fuzz::toLitmusProgram(B.P, "battery", &B.R.FirstWeak);
    fuzz::ShrinkOptions Opts;
    Opts.Distance = 64;
    Opts.RunsPerAttempt = 120;
    Opts.Seed = Rng::deriveStream(99, I);
    Opts.RecordSteps = true;
    const fuzz::ShrinkResult R = fuzz::shrinkWeakProgram(P, Chip, Opts);
    ASSERT_TRUE(R.OracleError.empty()) << R.OracleError;
    EXPECT_LE(R.ReducedOps, R.OriginalOps);
    if (!R.Reproduced) {
      // Nothing reproduced, nothing may be shrunk.
      EXPECT_EQ(R.ReducedOps, R.OriginalOps);
      EXPECT_TRUE(R.Steps.empty());
      continue;
    }
    ++Reproduced;
    EXPECT_GT(R.CrossChecks, 0u);
    unsigned PrevOps = R.OriginalOps;
    size_t PrevThreads = P.Threads.size();
    for (const litmus::Program &Step : R.Steps) {
      ++Steps;
      EXPECT_TRUE(Step.validate().empty()) << Step.validate();
      EXPECT_LE(Step.Threads.size(), PrevThreads);
      EXPECT_LT(countOps(Step), PrevOps);
      const litmus::Program C1 = fuzz::canonicalizeProgram(Step);
      EXPECT_TRUE(fuzz::canonicalizeProgram(C1) == C1);
      std::string OracleError;
      EXPECT_TRUE(fuzz::reproducesWeakProgram(Step, Chip, Opts,
                                              &OracleError))
          << "accepted step lost its weakness (pool program " << I << ")";
      EXPECT_TRUE(OracleError.empty()) << OracleError;
      PrevOps = countOps(Step);
      PrevThreads = Step.Threads.size();
    }
    if (R.Accepted)
      EXPECT_TRUE(R.Steps.back() == R.Reduced);
    else
      EXPECT_TRUE(R.Steps.empty());
  }
  ASSERT_EQ(Weak, NeedWeak) << "pool batch too small for the battery";
  EXPECT_GT(Reproduced, NeedWeak / 2);
  EXPECT_GT(Steps, 0u);
}

} // namespace

TEST(ShrinkPropertyTest, EveryStepStaysWeak) { shrinkBattery(25); }

// The full 200-program battery (slow label).
TEST(ShrinkPropertyTest, EveryStepStaysWeakBattery200) { shrinkBattery(200); }

// The enumerator pre-filter's soundness on the pipeline's own inputs: for
// every weak case of the pinned tiny hunt (both rounds, the hunt's shrink
// seeds), every program a reduction pass starts from (the original and
// each accepted step) and every candidate of that pass, whatever the
// enumerator rules out must not reproduce weak when simulated anyway.
TEST(ShrinkPropertyTest, RuledOutCandidatesNeverReproduceWeak) {
  const hunt::HuntConfig Cfg = tinyHunt(2);
  unsigned Checked = 0;
  for (unsigned Round = 0; Round != Cfg.Rounds; ++Round) {
    const auto Batch = fuzz::fuzzBatch(*Cfg.Chip, Cfg.Fuzz,
                                       Rng::deriveStream(Cfg.Seed, 4 * Round));
    const uint64_t ShrinkSeed = Rng::deriveStream(Cfg.Seed, 4 * Round + 1);
    uint64_t J = 0;
    for (const fuzz::BatchEntry &B : Batch) {
      if (!B.R.WeakOutcomes)
        continue;
      fuzz::ShrinkOptions Opts;
      Opts.Distance = Cfg.Distance;
      Opts.RunsPerAttempt = Cfg.ShrinkRuns;
      Opts.Seed = Rng::deriveStream(ShrinkSeed, J++);
      Opts.RecordSteps = true;
      const litmus::Program P =
          fuzz::toLitmusProgram(B.P, "hunt-candidate", &B.R.FirstWeak);
      const fuzz::ShrinkResult R =
          fuzz::shrinkWeakProgram(P, *Cfg.Chip, Opts);
      ASSERT_TRUE(R.OracleError.empty()) << R.OracleError;
      std::vector<litmus::Program> Programs = {P};
      for (const litmus::Program &Step : R.Steps)
        for (litmus::Program &C : fuzz::shrinkCandidates(Step))
          Programs.push_back(std::move(C));
      for (litmus::Program &C : fuzz::shrinkCandidates(P))
        Programs.push_back(std::move(C));
      for (const litmus::Program &C : Programs) {
        if (!model::enumerateForbidden(C).rulesOutWeak())
          continue;
        ++Checked;
        std::string OracleError;
        EXPECT_FALSE(
            fuzz::reproducesWeakProgram(C, *Cfg.Chip, Opts, &OracleError))
            << litmus::printLitmus(C);
        EXPECT_TRUE(OracleError.empty()) << OracleError;
      }
    }
  }
  // At least every program the hunt itself ruled out.
  EXPECT_GE(Checked, 31u);
}

TEST(ShrinkPropertyTest, PaddedIriwReducesToCatalogCoreAtSeed42) {
  // IRIW buried in noise: a bystander thread, a bystander store in the
  // first writer, a bystander load in the second reader. Whole-thread
  // reduction plus single-op reduction must dig the catalog IRIW core
  // back out at seed 42 — the multi-thread reduction pin of ISSUE 9.
  const litmus::Program Padded = parse(R"(
litmus iriw-padded
locations x y w z
thread 0 @ block 0 { st x 1
  st w 3 }
thread 1 @ block 1 { st y 1 }
thread 2 @ block 2 { ldasync r0 x
  ld r1 y
  await r0 }
thread 3 @ block 3 { ldasync r2 y
  ld r3 x
  await r2
  ld r4 w }
thread 4 @ block 4 { st z 7
  ld r5 z }
forbidden r0 = 1 /\ r1 = 0 /\ r2 = 1 /\ r3 = 0
)");
  fuzz::ShrinkOptions Opts;
  Opts.Distance = 128;
  Opts.RunsPerAttempt = 200;
  Opts.Seed = 42;
  const fuzz::ShrinkResult R =
      fuzz::shrinkWeakProgram(Padded, titan(), Opts);
  ASSERT_TRUE(R.OracleError.empty()) << R.OracleError;
  ASSERT_TRUE(R.Reproduced);
  EXPECT_EQ(R.OriginalOps, 12u);
  EXPECT_EQ(R.ReducedOps, 8u);
  ASSERT_EQ(R.Reduced.Threads.size(), 4u);
  EXPECT_GT(R.CrossChecks, 0u);
  // The reduced core is isomorphic to the catalog IRIW (minus its
  // `fence?` markers): one canonical key.
  const litmus::Program *Iriw = litmus::findCatalogProgram("IRIW");
  ASSERT_NE(Iriw, nullptr);
  EXPECT_EQ(fuzz::canonicalKey(R.Reduced),
            fuzz::canonicalKey(harden::stripOptFences(*Iriw)));
}

TEST(ShrinkPropertyTest, IriwCoreIsLocallyMinimal) {
  // "Shrunk" must mean shrunk: no single further reduction of the IRIW
  // core stays weak. The only valid single-step reductions drop one of
  // the writer threads (every reader op defines a pinned register), and
  // without a writer the pinned outcome r=1 is unreachable.
  const litmus::Program *Iriw = litmus::findCatalogProgram("IRIW");
  ASSERT_NE(Iriw, nullptr);
  const litmus::Program Core = harden::stripOptFences(*Iriw);
  fuzz::ShrinkOptions Opts;
  Opts.Distance = 128;
  Opts.RunsPerAttempt = 60;
  Opts.Seed = 42;
  for (unsigned Drop = 0; Drop != 2; ++Drop) {
    litmus::Program Smaller = Core;
    Smaller.Threads.erase(Smaller.Threads.begin() + Drop);
    ASSERT_TRUE(Smaller.validate().empty()) << Smaller.validate();
    EXPECT_FALSE(fuzz::reproducesWeakProgram(Smaller, titan(), Opts))
        << "IRIW without writer thread " << Drop
        << " still reported weak";
  }
}

//===----------------------------------------------------------------------===//
// Alg. 1 hardening over litmus programs
//===----------------------------------------------------------------------===//

TEST(LitmusHardenTest, FenceSitesSkipIssuesAndExistingFences) {
  // Sites go after Store/Load/AwaitLoad/AtomicAdd; AsyncLoad issues and
  // existing fences get none. Catalog IRIW minus its opt-fences: two
  // single-store writers, two readers of (issue, load, await) each.
  const litmus::Program *Iriw = litmus::findCatalogProgram("IRIW");
  ASSERT_NE(Iriw, nullptr);
  EXPECT_EQ(harden::litmusFenceSites(harden::stripOptFences(*Iriw)).size(),
            6u);
  EXPECT_EQ(harden::litmusFenceSites(parse(MpText)).size(), 4u);
  // A fully-fenced MP gains no extra sites from its fences.
  const auto Sites = harden::litmusFenceSites(parse(MpText));
  const litmus::Program Fenced = harden::applyLitmusFences(
      parse(MpText),
      sim::FencePolicy::all(static_cast<unsigned>(Sites.size())));
  EXPECT_EQ(harden::litmusFenceSites(Fenced).size(), Sites.size());
}

// A policy sized for another program would fence the wrong accesses: the
// site-count check is a GPUWMM_CHECK, so it aborts in Release builds too,
// for a policy with too few sites as for one with too many.
TEST(LitmusHardenDeathTest, MismatchedPolicyAbortsInEveryBuild) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const litmus::Program Mp = parse(MpText);
  const auto Sites = static_cast<unsigned>(harden::litmusFenceSites(Mp).size());
  for (const unsigned Wrong : {Sites - 1, Sites + 1})
    EXPECT_DEATH((void)harden::applyLitmusFences(
                     Mp, sim::FencePolicy::all(Wrong)),
                 "check failed: fence policy does not match program")
        << Wrong << " sites";
}

TEST(LitmusHardenTest, HardensMpToOracleVerifiedSc) {
  const sim::ChipProfile &Chip = titan();
  const litmus::Program Mp = parse(MpText);
  // The unfenced program is genuinely weak under the scan; the scan also
  // yields the stress region that provoked it — the region the pipeline
  // hardens and verifies under (away from it MP can look SC and Alg. 1
  // would rightly keep nothing).
  fuzz::ShrinkOptions Weak;
  Weak.Distance = 128;
  Weak.RunsPerAttempt = 150;
  Weak.Seed = 1;
  const fuzz::ShrinkResult Scan = fuzz::shrinkWeakProgram(Mp, Chip, Weak);
  ASSERT_TRUE(Scan.Reproduced);
  EXPECT_EQ(Scan.ReducedOps, Scan.OriginalOps); // MP is already minimal.

  harden::LitmusHardenOptions Opts;
  Opts.Distance = 128;
  Opts.CheckRuns = 32;
  Opts.StableRuns = 300;
  Opts.Seed = 3;
  Opts.StressRegion = Scan.ProvokingRegion;
  const harden::LitmusHardenResult R =
      harden::hardenLitmusProgram(Mp, Chip, Opts);
  EXPECT_EQ(R.NumSites, 4u);
  EXPECT_GE(R.Fences.count(), 1u);
  EXPECT_TRUE(R.Insertion.Stable);
  EXPECT_GT(R.Executions, 0u);

  // ...and the hardened program is SC under an independent oracle stream
  // at that same region: zero checker-weak runs, zero axiom violations.
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  litmus::LitmusRunner Runner(Chip, 77);
  model::StreamingChecker Checker;
  litmus::LitmusRunOpts RunOpts;
  RunOpts.Sink = &Checker;
  const auto Stress = litmus::LitmusRunner::MicroStress::at(
      Tuned.Seq, (Scan.ProvokingRegion % Chip.NumBanks) * Tuned.PatchWords);
  unsigned WeakRuns = 0, AxiomViolations = 0;
  for (unsigned Run = 0; Run != 200; ++Run) {
    Checker.begin();
    (void)Runner.runOnce(R.Hardened, Opts.Distance, Stress, RunOpts);
    const model::StreamVerdict &V = Checker.finish();
    if (!V.AxiomsOk)
      ++AxiomViolations;
    else if (V.weak())
      ++WeakRuns;
  }
  EXPECT_EQ(WeakRuns, 0u);
  EXPECT_EQ(AxiomViolations, 0u);

  // The `fence?` annotation mirrors the kept set exactly and strips back
  // to the input program.
  unsigned OptFences = 0;
  for (const litmus::ProgThread &T : R.Annotated.Threads)
    for (const litmus::ProgOp &O : T.Ops)
      if (O.K == litmus::ProgOp::Kind::OptFence)
        ++OptFences;
  EXPECT_EQ(OptFences, R.Fences.count());
  EXPECT_TRUE(harden::stripOptFences(R.Annotated) == Mp);
}

//===----------------------------------------------------------------------===//
// Corpus store
//===----------------------------------------------------------------------===//

TEST(CorpusTest, InMemoryCorpusDedupes) {
  hunt::Corpus C = openCorpus("");
  hunt::CorpusEntry E = entryFor(MpText);
  const std::string Key = E.Key;
  std::string Err;
  ASSERT_TRUE(C.append(std::move(E), &Err)) << Err;
  EXPECT_TRUE(C.contains(Key));
  ASSERT_EQ(C.entries().size(), 1u);
  EXPECT_EQ(C.entries()[0].Name, "hunt-000000");
  // The stored program carries the corpus name, not the fuzz export's.
  EXPECT_EQ(C.entries()[0].Annotated.Name, "hunt-000000");
  // Duplicate keys and keyless entries are refused.
  EXPECT_FALSE(C.append(entryFor(MpText), &Err));
  EXPECT_NE(Err.find("duplicate"), std::string::npos) << Err;
  hunt::CorpusEntry NoKey = entryFor(SbText);
  NoKey.Key.clear();
  EXPECT_FALSE(C.append(std::move(NoKey), &Err));
  EXPECT_EQ(C.entries().size(), 1u);
}

TEST(CorpusTest, PersistsReloadsAndHealsArtifacts) {
  TempCorpusDir Dir;
  std::vector<hunt::CorpusEntry> Written;
  {
    hunt::Corpus C = openCorpus(Dir.str());
    std::string Err;
    ASSERT_TRUE(C.append(entryFor(MpText, 0), &Err)) << Err;
    ASSERT_TRUE(C.append(entryFor(SbText, 0), &Err)) << Err;
    ASSERT_TRUE(C.markRoundDone(0, &Err)) << Err;
    Written = C.entries();
    EXPECT_EQ(C.lastCompletedRound(), 0);
  }
  const auto Artifacts = artifactBytes(Dir.str());
  ASSERT_EQ(Artifacts.size(), 2u);
  ASSERT_TRUE(Artifacts.count("hunt-000000.litmus"));

  // Delete one artifact: a reload must heal it from the record log (the
  // crash window between record append and artifact publication).
  std::filesystem::remove(Dir.Path / "hunt-000001.litmus");
  hunt::Corpus Re = openCorpus(Dir.str(), /*Resume=*/true);
  EXPECT_TRUE(Re.warnings().empty());
  EXPECT_EQ(Re.lastCompletedRound(), 0);
  expectEntriesEqual(Re.entries(), Written);
  EXPECT_TRUE(Re.contains(Written[0].Key));
  EXPECT_EQ(artifactBytes(Dir.str()), Artifacts);
}

TEST(CorpusTest, SecondOpenRequiresResume) {
  TempCorpusDir Dir;
  {
    hunt::Corpus C = openCorpus(Dir.str());
    std::string Err;
    ASSERT_TRUE(C.append(entryFor(MpText), &Err)) << Err;
  }
  hunt::Corpus::OpenOptions Opts;
  Opts.Dir = Dir.str();
  hunt::Corpus C;
  std::string Err;
  EXPECT_FALSE(hunt::Corpus::open(Opts, testManifest(), C, &Err));
  EXPECT_NE(Err.find("already holds a corpus"), std::string::npos) << Err;
}

TEST(CorpusTest, MismatchedManifestIsRefused) {
  TempCorpusDir Dir;
  { openCorpus(Dir.str()); }
  hunt::Corpus::OpenOptions Opts;
  Opts.Dir = Dir.str();
  Opts.Resume = true;
  hunt::CorpusManifest Other = testManifest();
  Other.Seed = 6;
  hunt::Corpus C;
  std::string Err;
  EXPECT_FALSE(hunt::Corpus::open(Opts, Other, C, &Err));
  EXPECT_NE(Err.find("describes a different hunt"), std::string::npos)
      << Err;
}

TEST(CorpusTest, TornTailIsTruncatedWithWarning) {
  TempCorpusDir Dir;
  {
    hunt::Corpus C = openCorpus(Dir.str());
    std::string Err;
    ASSERT_TRUE(C.append(entryFor(MpText), &Err)) << Err;
    ASSERT_TRUE(C.append(entryFor(SbText), &Err)) << Err;
  }
  const std::filesystem::path Log = Dir.Path / "corpus-0000.jsonl";
  ASSERT_TRUE(std::filesystem::exists(Log));
  std::filesystem::resize_file(Log, std::filesystem::file_size(Log) - 8);

  hunt::Corpus Re = openCorpus(Dir.str(), /*Resume=*/true);
  ASSERT_EQ(Re.warnings().size(), 1u);
  EXPECT_NE(Re.warnings()[0].find("torn tail"), std::string::npos);
  ASSERT_EQ(Re.entries().size(), 1u);
  EXPECT_EQ(Re.entries()[0].Key, entryFor(MpText).Key);
}

TEST(CorpusTest, KeyCrcMismatchFailsTheLoad) {
  // A validly-framed record whose stored key CRC disagrees with the key
  // recomputed from its program must fail the load loudly — that is the
  // canonicaliser-drift / corruption tripwire.
  TempCorpusDir Dir;
  {
    hunt::Corpus C = openCorpus(Dir.str());
    std::string Err;
    ASSERT_TRUE(C.append(entryFor(MpText), &Err)) << Err;
  }
  const std::string LogPath = (Dir.Path / "corpus-0000.jsonl").string();
  std::string Text, Err;
  ASSERT_TRUE(readFile(LogPath, Text, &Err)) << Err;
  const FramedRecords Records = parseFramedRecords(Text);
  ASSERT_EQ(Records.Payloads.size(), 1u);
  std::string Payload = Records.Payloads[0];
  const size_t At = Payload.find("\"key_crc\": \"");
  ASSERT_NE(At, std::string::npos);
  const size_t HexAt = At + std::strlen("\"key_crc\": \"");
  Payload.replace(HexAt, 8, Payload.compare(HexAt, 8, "00000000") == 0
                                ? "00000001"
                                : "00000000");
  ASSERT_TRUE(atomicWriteFile(LogPath, frameRecord(Payload), &Err)) << Err;

  hunt::Corpus::OpenOptions Opts;
  Opts.Dir = Dir.str();
  Opts.Resume = true;
  hunt::Corpus C;
  EXPECT_FALSE(hunt::Corpus::open(Opts, testManifest(), C, &Err));
  EXPECT_NE(Err.find("canonical-key CRC"), std::string::npos) << Err;
}

TEST(CorpusTest, MalformedEntryNameFailsTheLoad) {
  // An entry's name becomes its artifact's file name, so a validly-framed
  // record whose name is not "hunt-NNNNNN" (here one that climbs out of
  // the corpus directory) must fail the load, naming the log, before any
  // artifact is written.
  TempCorpusDir Dir;
  {
    hunt::Corpus C = openCorpus(Dir.str());
    std::string Err;
    ASSERT_TRUE(C.append(entryFor(MpText), &Err)) << Err;
  }
  const std::string LogPath = (Dir.Path / "corpus-0000.jsonl").string();
  std::string Text, Err;
  ASSERT_TRUE(readFile(LogPath, Text, &Err)) << Err;
  std::string Payload = parseFramedRecords(Text).Payloads.at(0);
  const std::string Name = "\"name\": \"hunt-000000\"";
  const size_t At = Payload.find(Name);
  ASSERT_NE(At, std::string::npos);
  Payload.replace(At, Name.size(), "\"name\": \"../hunt-000000\"");
  ASSERT_TRUE(atomicWriteFile(LogPath, frameRecord(Payload), &Err)) << Err;
  std::filesystem::remove(Dir.Path / "hunt-000000.litmus");

  hunt::Corpus::OpenOptions Opts;
  Opts.Dir = Dir.str();
  Opts.Resume = true;
  hunt::Corpus C;
  EXPECT_FALSE(hunt::Corpus::open(Opts, testManifest(), C, &Err));
  EXPECT_NE(Err.find(LogPath), std::string::npos) << Err;
  EXPECT_NE(Err.find("malformed entry name '../hunt-000000'"),
            std::string::npos)
      << Err;
  EXPECT_FALSE(
      std::filesystem::exists(Dir.Path.parent_path() / "hunt-000000.litmus"));
}

TEST(CorpusTest, SigkillAfterNthAppendKeepsDurablePrefix) {
  // The crash hook in-process: a forked child SIGKILLs itself right
  // after its 2nd durable append. The durable prefix must survive
  // exactly — nothing dropped, nothing duplicated — and completing the
  // corpus after resume must equal an uninterrupted reference.
  TempCorpusDir Dir;
  TempCorpusDir RefDir("-ref");
  const pid_t Child = fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    hunt::Corpus C = openCorpus(Dir.str(), false, /*CrashAfter=*/2);
    std::string Err;
    C.append(entryFor(MpText), &Err);
    C.append(entryFor(SbText), &Err); // SIGKILL fires in here.
    C.append(entryFor(LbText), &Err);
    _exit(0); // Unreachable when the hook fires.
  }
  int Status = 0;
  ASSERT_EQ(waitpid(Child, &Status, 0), Child);
  ASSERT_TRUE(WIFSIGNALED(Status));
  EXPECT_EQ(WTERMSIG(Status), SIGKILL);

  hunt::Corpus Resumed = openCorpus(Dir.str(), /*Resume=*/true);
  ASSERT_EQ(Resumed.entries().size(), 2u);
  EXPECT_EQ(Resumed.lastCompletedRound(), -1);
  std::string Err;
  ASSERT_TRUE(Resumed.append(entryFor(LbText), &Err)) << Err;
  ASSERT_TRUE(Resumed.markRoundDone(0, &Err)) << Err;

  hunt::Corpus Ref = openCorpus(RefDir.str());
  ASSERT_TRUE(Ref.append(entryFor(MpText), &Err)) << Err;
  ASSERT_TRUE(Ref.append(entryFor(SbText), &Err)) << Err;
  ASSERT_TRUE(Ref.append(entryFor(LbText), &Err)) << Err;
  ASSERT_TRUE(Ref.markRoundDone(0, &Err)) << Err;
  expectEntriesEqual(Resumed.entries(), Ref.entries());
  EXPECT_EQ(artifactBytes(Dir.str()), artifactBytes(RefDir.str()));
}

//===----------------------------------------------------------------------===//
// The pipeline
//===----------------------------------------------------------------------===//

TEST(HuntPipelineTest, TinyHuntMinesOracleVerifiedCorpus) {
  const hunt::HuntReport R = runHuntOk(tinyHunt(2));
  // The bounded-hunt golden at seed 9 (deterministic per the contract).
  // The stage totals are exact work pins: a change to shrink's candidate
  // order or budget, to the enumerator's pre-filter, to the cross-check
  // policy or to a stage's run budget moves them and must re-pin them
  // here. Without the pre-filter shrink made 33,722 runs and 1,464
  // cross-checks for the same corpus.
  EXPECT_EQ(R.ProgramsFuzzed, 24u);
  EXPECT_EQ(R.WeakPrograms, 6u);
  EXPECT_EQ(R.NotReproduced, 1u);
  EXPECT_EQ(R.ShrinkCandidates, 36u);
  EXPECT_EQ(R.ShrinkAccepted, 5u);
  EXPECT_EQ(R.ShrinkRuledOut, 31u);
  EXPECT_EQ(R.CrossChecks, 10u);
  EXPECT_EQ(R.ShrinkLitmusRuns, 3962u);
  EXPECT_EQ(R.HardenLitmusRuns, 1400u);
  EXPECT_EQ(R.VerifyLitmusRuns, 400u);
  EXPECT_EQ(R.Duplicates, 0u);
  ASSERT_EQ(R.Entries.size(), 5u);
  EXPECT_EQ(R.NewEntries, 5u);
  EXPECT_EQ(R.RoundsRun, 2u);
  EXPECT_TRUE(R.clean());
  EXPECT_EQ(R.OracleChecked, 5u * 80u);
  EXPECT_EQ(R.OracleWeak, 0u);
  for (uint64_t N : R.AxiomCounts)
    EXPECT_EQ(N, 0u);

  char ExpectName[32];
  for (size_t I = 0; I != R.Entries.size(); ++I) {
    const hunt::CorpusEntry &E = R.Entries[I];
    std::snprintf(ExpectName, sizeof(ExpectName), "hunt-%06zu", I);
    EXPECT_EQ(E.Name, ExpectName);
    EXPECT_TRUE(E.Annotated.validate().empty()) << E.Annotated.validate();
    EXPECT_LE(E.ReducedOps, E.OriginalOps);
    EXPECT_GT(E.CrossChecks, 0u);
    EXPECT_LE(E.Fences, E.FenceSites);
    EXPECT_GE(E.HardenAttempts, 1u);
    EXPECT_EQ(E.VerifyRuns, 80u);
    EXPECT_EQ(E.VerifyWeak, 0u);
    // The key really is the canonical form of the entry's weak core.
    EXPECT_EQ(E.Key,
              fuzz::canonicalKey(harden::stripOptFences(E.Annotated)));
    EXPECT_EQ(E.KeyCrc, crc32(E.Key));
  }
}

TEST(HuntPipelineTest, ReportJsonParsesAndMirrorsTheReport) {
  const hunt::HuntReport R = runHuntOk(tinyHunt(2));
  const std::string Json = huntJson(R);
  std::string Err;
  const std::optional<JsonValue> Doc = parseJson(Json, &Err);
  ASSERT_TRUE(Doc.has_value()) << Err;
  EXPECT_EQ(Doc->find("schema")->asString(), "gpuwmm-hunt-v1");
  EXPECT_EQ(Doc->find("chip")->asString(), "titan");
  EXPECT_EQ(Doc->find("seed")->asUInt64(), 9u);
  const JsonValue *Totals = Doc->find("totals");
  ASSERT_NE(Totals, nullptr);
  EXPECT_EQ(Totals->find("programs_fuzzed")->asUInt64(), R.ProgramsFuzzed);
  EXPECT_EQ(Totals->find("corpus_size")->asUInt64(), R.Entries.size());
  EXPECT_EQ(Totals->find("shrink_ruled_out")->asUInt64(), R.ShrinkRuledOut);
  const JsonValue *Runs = Totals->find("litmus_runs");
  ASSERT_NE(Runs, nullptr);
  EXPECT_EQ(Runs->find("shrink")->asUInt64(), R.ShrinkLitmusRuns);
  EXPECT_EQ(Runs->find("harden")->asUInt64(), R.HardenLitmusRuns);
  EXPECT_EQ(Runs->find("verify")->asUInt64(), R.VerifyLitmusRuns);
  const JsonValue *Oracle = Doc->find("oracle");
  ASSERT_NE(Oracle, nullptr);
  EXPECT_TRUE(Oracle->find("clean")->asBool());
  const JsonValue *Axioms = Oracle->find("axiom_violations");
  ASSERT_NE(Axioms, nullptr);
  for (const char *Key : hunt::axiomKeys())
    ASSERT_NE(Axioms->find(Key), nullptr) << Key;
  // Every corpus entry's litmus text round-trips through the report.
  const JsonValue *Entries = Doc->find("entries");
  ASSERT_NE(Entries, nullptr);
  ASSERT_EQ(Entries->items().size(), R.Entries.size());
  for (size_t I = 0; I != R.Entries.size(); ++I)
    EXPECT_EQ(Entries->items()[I].find("litmus")->asString(),
              litmus::printLitmus(R.Entries[I].Annotated));
}

TEST(HuntPipelineTest, SameBugFromDifferentFuzzSeedsCollapses) {
  // The dedupe differential: pool batches at two different fuzz seeds
  // surface the same underlying bug (pinned pair found by search); both
  // shrink to one canonical key, and the corpus admits only one entry.
  const sim::ChipProfile &Chip = titan();
  fuzz::BatchConfig BC;
  BC.Programs = 80;
  BC.RunsPerProgram = 40;
  BC.NumVars = 2;
  BC.OpsPerThread = 3;
  const auto BatchA = fuzz::fuzzBatch(Chip, BC, 33);
  const auto BatchB = fuzz::fuzzBatch(Chip, BC, 52);
  const fuzz::BatchEntry &A = BatchA[48];
  const fuzz::BatchEntry &B = BatchB[42];
  ASSERT_GT(A.R.WeakOutcomes, 0u);
  ASSERT_GT(B.R.WeakOutcomes, 0u);
  // The raw programs differ (different generation streams)...
  EXPECT_FALSE(A.P == B.P);

  fuzz::ShrinkOptions Opts;
  Opts.Distance = 64;
  Opts.RunsPerAttempt = 120;
  Opts.Seed = 5;
  const fuzz::ShrinkResult RA = fuzz::shrinkWeakProgram(
      fuzz::toLitmusProgram(A.P, "seed-33", &A.R.FirstWeak), Chip, Opts);
  const fuzz::ShrinkResult RB = fuzz::shrinkWeakProgram(
      fuzz::toLitmusProgram(B.P, "seed-52", &B.R.FirstWeak), Chip, Opts);
  ASSERT_TRUE(RA.Reproduced);
  ASSERT_TRUE(RB.Reproduced);
  // ...but the shrunk cores are one bug under the canonical key.
  EXPECT_EQ(fuzz::canonicalKey(RA.Reduced), fuzz::canonicalKey(RB.Reduced));

  hunt::Corpus C = openCorpus("");
  hunt::CorpusEntry E;
  E.Annotated = fuzz::canonicalizeProgram(RA.Reduced);
  E.Key = fuzz::canonicalKey(RA.Reduced);
  std::string Err;
  ASSERT_TRUE(C.append(std::move(E), &Err)) << Err;
  EXPECT_TRUE(C.contains(fuzz::canonicalKey(RB.Reduced)));
}

TEST(HuntPipelineTest, JobsYieldIdenticalCorpus) {
  // The determinism acceptance criterion: a bounded hunt's corpus bytes,
  // artifacts and report JSON are bit-identical for every --jobs, and for
  // the reference engine too.
  ThreadPool Pool(8);
  struct Variant {
    const char *Name;
    ThreadPool *Pool;
    sim::EngineMode Engine;
  };
  std::string RefJson, RefLog;
  std::map<std::string, std::string> RefArtifacts;
  for (const Variant &V :
       {Variant{"-serial", nullptr, sim::EngineMode::Auto},
        Variant{"-pool", &Pool, sim::EngineMode::Auto},
        Variant{"-scalar", &Pool, sim::EngineMode::Scalar}}) {
    EngineModeGuard Engine(V.Engine);
    TempCorpusDir Dir(V.Name);
    hunt::HuntConfig Cfg = tinyHunt(2);
    Cfg.CorpusDir = Dir.str();
    const hunt::HuntReport R = runHuntOk(Cfg, V.Pool);
    EXPECT_TRUE(R.clean());
    const std::string Json = huntJson(R);
    const std::string Log = corpusLogBytes(Dir.str());
    const auto Artifacts = artifactBytes(Dir.str());
    if (RefJson.empty()) {
      RefJson = Json;
      RefLog = Log;
      RefArtifacts = Artifacts;
      EXPECT_FALSE(RefLog.empty());
      EXPECT_FALSE(RefArtifacts.empty());
      continue;
    }
    EXPECT_EQ(Json, RefJson) << "report diverged (" << V.Name << ")";
    EXPECT_EQ(Log, RefLog) << "corpus log diverged (" << V.Name << ")";
    EXPECT_EQ(Artifacts, RefArtifacts) << V.Name;
  }
}

TEST(HuntPipelineTest, ResumeExtendsToTheIdenticalCorpus) {
  // rounds=2 then --resume to rounds=3 must converge on the same corpus
  // as a fresh rounds=3 hunt: same entries, same artifact bytes.
  TempCorpusDir FreshDir("-fresh");
  hunt::HuntConfig Fresh = tinyHunt(3);
  Fresh.CorpusDir = FreshDir.str();
  const hunt::HuntReport RFresh = runHuntOk(Fresh);

  TempCorpusDir StagedDir("-staged");
  hunt::HuntConfig Staged = tinyHunt(2);
  Staged.CorpusDir = StagedDir.str();
  runHuntOk(Staged);
  hunt::HuntConfig Extend = tinyHunt(3);
  Extend.CorpusDir = StagedDir.str();
  Extend.Resume = true;
  const hunt::HuntReport RExtend = runHuntOk(Extend);

  EXPECT_EQ(RExtend.StartRound, 2u);
  EXPECT_EQ(RExtend.RoundsRun, 1u);
  expectEntriesEqual(RExtend.Entries, RFresh.Entries);
  EXPECT_EQ(RExtend.OracleChecked, RFresh.OracleChecked);
  EXPECT_EQ(RExtend.OracleWeak, RFresh.OracleWeak);
  EXPECT_EQ(artifactBytes(StagedDir.str()), artifactBytes(FreshDir.str()));
  // Resuming a finished hunt runs nothing and changes nothing.
  const hunt::HuntReport RAgain = runHuntOk(Extend);
  EXPECT_EQ(RAgain.RoundsRun, 0u);
  EXPECT_EQ(RAgain.ProgramsFuzzed, 0u);
  expectEntriesEqual(RAgain.Entries, RFresh.Entries);
}

TEST(HuntPipelineTest, SigkillMidHuntResumesToTheIdenticalCorpus) {
  // End-to-end crash injection: a forked child runs the hunt and is
  // SIGKILLed by the corpus hook after its 3rd durable append (mid
  // round); the parent resumes and must converge on the uninterrupted
  // reference corpus — no entry dropped, none duplicated.
  TempCorpusDir RefDir("-ref");
  hunt::HuntConfig Ref = tinyHunt(2);
  Ref.CorpusDir = RefDir.str();
  const hunt::HuntReport RRef = runHuntOk(Ref);

  TempCorpusDir Dir;
  const pid_t Child = fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    hunt::HuntConfig Crashing = tinyHunt(2);
    Crashing.CorpusDir = Dir.str();
    Crashing.CrashAfterAppends = 3;
    hunt::HuntReport Report;
    hunt::runHunt(Crashing, nullptr, Report, nullptr);
    _exit(0); // Unreachable when the hook fires.
  }
  int Status = 0;
  ASSERT_EQ(waitpid(Child, &Status, 0), Child);
  ASSERT_TRUE(WIFSIGNALED(Status));
  EXPECT_EQ(WTERMSIG(Status), SIGKILL);

  hunt::HuntConfig Resume = tinyHunt(2);
  Resume.CorpusDir = Dir.str();
  Resume.Resume = true;
  const hunt::HuntReport RResumed = runHuntOk(Resume);
  EXPECT_TRUE(RResumed.clean());
  expectEntriesEqual(RResumed.Entries, RRef.Entries);
  EXPECT_EQ(artifactBytes(Dir.str()), artifactBytes(RefDir.str()));
  EXPECT_EQ(RResumed.OracleChecked, RRef.OracleChecked);
}
