//===- tests/ModelTests.cpp - Trace seam + axiomatic oracle tests -------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// Covers the event-trace instrumentation layer (sim/TraceSink.h) and the
// axiomatic consistency checker (model/ConsistencyChecker.h): tracing is
// pure observation (results and the zero-allocation steady state are
// unchanged), hand-built traces trip each axiom, and — the differential
// oracle — the checker's SC-vs-weak classification agrees with the
// operational interpreter on every catalog litmus program at pinned seeds.
// Also the axiomatic execution enumerator (model/Enumerate.h): each of its
// four answers on hand-picked programs, and its soundness against
// simulation on the catalog, bare and fenced.
//
//===----------------------------------------------------------------------===//

#include "EngineModeGuard.h"
#include "apps/Application.h"
#include "fuzz/LitmusBridge.h"
#include "fuzz/ProgramFuzzer.h"
#include "fuzz/Shrink.h"
#include "harness/Campaign.h"
#include "litmus/Format.h"
#include "litmus/Litmus.h"
#include "model/ConsistencyChecker.h"
#include "model/Enumerate.h"
#include "sim/Device.h"
#include "stress/Environment.h"

#include <gtest/gtest.h>

#include <set>

using namespace gpuwmm;
using model::CheckResult;
using model::ConsistencyChecker;
using sim::LoadSource;
using sim::TraceEvent;
using sim::TraceEventKind;

namespace {

const sim::ChipProfile &titan() {
  const sim::ChipProfile *Chip = sim::ChipProfile::lookup("titan");
  EXPECT_NE(Chip, nullptr);
  return *Chip;
}

/// Stressed per-bank scan (as `litmus --stress`), tracing every run and
/// cross-checking the checker's verdict against the interpreter's.
struct OracleTally {
  unsigned Checked = 0;
  unsigned Weak = 0;
  unsigned Disagreements = 0;
  unsigned AxiomViolations = 0;
};

OracleTally crossCheck(const litmus::Program &P, unsigned Runs,
                       uint64_t Seed, bool Fenced = false) {
  const sim::ChipProfile &Chip = titan();
  litmus::LitmusRunner Runner(Chip, Seed);
  litmus::LitmusRunner::RunOpts Opts;
  Opts.WithFences = Fenced;
  Opts.Trace = true;
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  ConsistencyChecker Checker;
  OracleTally T;
  for (unsigned Region = 0; Region != Chip.NumBanks; ++Region) {
    const auto S = litmus::LitmusRunner::MicroStress::at(
        Tuned.Seq, Region * Tuned.PatchWords);
    for (unsigned I = 0; I != Runs; ++I) {
      const bool Forbidden =
          Runner.runOnce(P, 2 * Chip.PatchSizeWords, S, Opts);
      const CheckResult R = Checker.check(Runner.trace());
      ++T.Checked;
      T.Weak += Forbidden;
      T.AxiomViolations += !R.AxiomsOk;
      if (!R.AxiomsOk || R.weak() != Forbidden)
        ++T.Disagreements;
    }
  }
  return T;
}

} // namespace

//===----------------------------------------------------------------------===//
// The trace seam
//===----------------------------------------------------------------------===//

TEST(TraceTest, OffByDefaultAndEmpty) {
  litmus::LitmusRunner Runner(titan(), 1);
  (void)Runner.runOnce(*litmus::findCatalogProgram("MP"), 64,
                       litmus::LitmusRunner::MicroStress::none());
  EXPECT_TRUE(Runner.trace().empty());
}

TEST(TraceTest, RecordsLitmusEvents) {
  litmus::LitmusRunner Runner(titan(), 1);
  litmus::LitmusRunner::RunOpts Opts;
  Opts.Trace = true;
  (void)Runner.runOnce(*litmus::findCatalogProgram("MP"), 64,
                       litmus::LitmusRunner::MicroStress::none(), Opts);
  const auto &Events = Runner.trace().events();
  ASSERT_FALSE(Events.empty());
  unsigned Issues = 0, Drains = 0, Binds = 0;
  for (const TraceEvent &E : Events) {
    Issues += E.Kind == TraceEventKind::StoreIssue;
    Drains += E.Kind == TraceEventKind::StoreDrain;
    Binds += E.Kind == TraceEventKind::LoadBind;
  }
  // MP: 2 communication stores + 2 register writebacks, each drained
  // exactly once by the end of the run, and 2 loads.
  EXPECT_EQ(Issues, 4u);
  EXPECT_EQ(Drains, 4u);
  EXPECT_EQ(Binds, 2u);
}

TEST(TraceTest, TracingDoesNotPerturbResults) {
  // Two runners, same seed: one traced, one not. Weak sequences must be
  // bit-identical — tracing observes, it cannot steer.
  const litmus::Program &P = *litmus::findCatalogProgram("SB");
  const auto Tuned = stress::TunedStressParams::paperDefaults(titan());
  const auto S = litmus::LitmusRunner::MicroStress::at(Tuned.Seq, 0);
  litmus::LitmusRunner Plain(titan(), 42), Traced(titan(), 42);
  litmus::LitmusRunner::RunOpts TraceOpts;
  TraceOpts.Trace = true;
  for (unsigned I = 0; I != 300; ++I) {
    const bool A = Plain.runOnce(P, 128, S);
    const bool B = Traced.runOnce(P, 128, S, TraceOpts);
    ASSERT_EQ(A, B) << "run " << I;
  }
}

TEST(TraceTest, SteadyStateTraceIsAllocationFree) {
  // Identical reruns on one context: after the first traced run the
  // recorder's backing buffer is warm, so rerunning the same seed must
  // reuse it (same capacity, same storage address) while recording the
  // same events — the context reuse contract (DESIGN.md Sec. 12)
  // extended to the recorder. Each of 64 threads stores to its own word,
  // then loads it back.
  using Code = sim::BatchOp::Code;
  onBothEngines([] {
    sim::ExecutionContext Ctx;
    Ctx.requestTracing(true);
    const auto RunOne = [&] {
      sim::Device Dev(Ctx, titan(), /*Seed=*/77);
      const sim::Addr Buf = Dev.alloc(64);
      sim::BatchProgram BP;
      BP.GridDim = 2;
      BP.BlockDim = 32;
      BP.NumSlots = 64;
      for (uint16_t Tid = 0; Tid != 64; ++Tid) {
        BP.Ops.push_back({Code::Store, 0, 0, Buf + Tid, Tid + 1u});
        BP.Ops.push_back({Code::Load, Tid, 0, Buf + Tid, 0});
        BP.Lanes.push_back({2u * Tid, 2u * Tid + 2});
      }
      Dev.run(BP);
    };
    RunOne();
    const std::vector<TraceEvent> First = Ctx.trace().events();
    ASSERT_FALSE(First.empty());
    const size_t Cap = Ctx.trace().capacity();
    const TraceEvent *Data = Ctx.trace().events().data();
    RunOne();
    EXPECT_EQ(Ctx.trace().capacity(), Cap);
    EXPECT_EQ(Ctx.trace().events().data(), Data);
    EXPECT_EQ(Ctx.trace().size(), First.size());
  });
}

TEST(TraceTest, LeaseDisarmsTracing) {
  // A context returned to the pool must come back with tracing off.
  sim::ExecutionContext *Raw = nullptr;
  {
    sim::ContextLease Lease;
    Raw = &Lease.get();
    Lease.get().requestTracing(true);
  }
  {
    sim::ContextLease Lease;
    if (&Lease.get() == Raw) {
      EXPECT_FALSE(Lease.get().tracingRequested());
    }
  }
}

//===----------------------------------------------------------------------===//
// Checker unit tests over hand-built traces
//===----------------------------------------------------------------------===//

namespace {

TraceEvent storeIssue(unsigned Tid, unsigned Bank, sim::Addr A, sim::Word V,
                      uint64_t Id) {
  return {TraceEventKind::StoreIssue, LoadSource::Memory, false, Tid, Tid,
          Bank, A, V, Id, 0};
}
TraceEvent storeDrain(unsigned Tid, unsigned Bank, sim::Addr A, sim::Word V,
                      uint64_t Id, bool Applied = true) {
  return {TraceEventKind::StoreDrain, LoadSource::Memory, Applied, Tid, Tid,
          Bank, A, V, Id, 0};
}
TraceEvent loadBind(unsigned Tid, unsigned Bank, sim::Addr A, sim::Word V) {
  return {TraceEventKind::LoadBind, LoadSource::Memory, false, Tid, Tid,
          Bank, A, V, 0, 0};
}

} // namespace

TEST(CheckerTest, EmptyTraceIsSc) {
  ConsistencyChecker Checker;
  const CheckResult R = Checker.check(std::vector<TraceEvent>{});
  EXPECT_TRUE(R.AxiomsOk);
  EXPECT_TRUE(R.Sc);
}

TEST(CheckerTest, ClassifiesWeakMpTrace) {
  // The canonical MP weak run: y's store drains first, the reader sees
  // y = 1 but x = 0, x drains last.
  const std::vector<TraceEvent> Events = {
      storeIssue(0, /*Bank=*/0, /*A=*/0, 1, 1), // st x
      storeIssue(0, /*Bank=*/1, /*A=*/8, 1, 2), // st y
      storeDrain(0, 1, 8, 1, 2),                // y visible first
      loadBind(1, 1, 8, 1),                     // r0 = y = 1
      loadBind(1, 0, 0, 0),                     // r1 = x = 0
      storeDrain(0, 0, 0, 1, 1),                // x visible last
  };
  ConsistencyChecker Checker;
  const CheckResult R = Checker.check(Events);
  EXPECT_TRUE(R.AxiomsOk) << R.AxiomViolation;
  EXPECT_FALSE(R.Sc);
  EXPECT_EQ(R.Cycle.size(), 4u);
  // The decisive pair is the from-read edge: the x-read against x's store.
  EXPECT_EQ(R.ViolatingA, 4u);
  EXPECT_EQ(R.ViolatingB, 0u);
}

TEST(CheckerTest, ClassifiesScMpTrace) {
  // Same shape, but x drains before the reader looks: both loads read the
  // writer's values — a sequential interleaving explains it.
  const std::vector<TraceEvent> Events = {
      storeIssue(0, 0, 0, 1, 1),
      storeIssue(0, 1, 8, 1, 2),
      storeDrain(0, 0, 0, 1, 1),
      storeDrain(0, 1, 8, 1, 2),
      loadBind(1, 1, 8, 1),
      loadBind(1, 0, 0, 1),
  };
  ConsistencyChecker Checker;
  const CheckResult R = Checker.check(Events);
  EXPECT_TRUE(R.AxiomsOk) << R.AxiomViolation;
  EXPECT_TRUE(R.Sc);
  EXPECT_TRUE(R.Cycle.empty());
}

TEST(CheckerTest, FlagsFifoViolation) {
  // Two same-bank stores by one thread draining in the wrong order.
  const std::vector<TraceEvent> Events = {
      storeIssue(0, 0, 0, 1, 1),
      storeIssue(0, 0, 1, 2, 2),
      storeDrain(0, 0, 1, 2, 2), // Should have been id 1 first.
      storeDrain(0, 0, 0, 1, 1),
  };
  ConsistencyChecker Checker;
  const CheckResult R = Checker.check(Events);
  EXPECT_FALSE(R.AxiomsOk);
  EXPECT_NE(R.AxiomViolation.find("FIFO"), std::string::npos)
      << R.AxiomViolation;
}

TEST(CheckerTest, FlagsFenceDrainViolation) {
  // A device fence completing while the thread still buffers a store.
  std::vector<TraceEvent> Events = {
      storeIssue(0, 0, 0, 1, 1),
      {TraceEventKind::FenceDevice, LoadSource::Memory, false, 0, 0, 0, 0,
       0, 0, 0},
      storeDrain(0, 0, 0, 1, 1),
  };
  ConsistencyChecker Checker;
  const CheckResult R = Checker.check(Events);
  EXPECT_FALSE(R.AxiomsOk);
  EXPECT_NE(R.AxiomViolation.find("fence-drain"), std::string::npos)
      << R.AxiomViolation;
}

TEST(CheckerTest, FlagsReadValueViolation) {
  // A load binding a value no write produced.
  const std::vector<TraceEvent> Events = {
      storeIssue(0, 0, 0, 1, 1),
      storeDrain(0, 0, 0, 1, 1),
      loadBind(1, 0, 0, 7),
  };
  ConsistencyChecker Checker;
  const CheckResult R = Checker.check(Events);
  EXPECT_FALSE(R.AxiomsOk);
  EXPECT_NE(R.AxiomViolation.find("read-value"), std::string::npos)
      << R.AxiomViolation;
}

TEST(CheckerTest, FlagsCoherenceViolation) {
  // A stale store (id 1) applied over a newer write (id 2).
  const std::vector<TraceEvent> Events = {
      storeIssue(0, 0, 0, 1, 1),
      storeIssue(1, 0, 0, 2, 2),
      storeDrain(1, 0, 0, 2, 2),
      storeDrain(0, 0, 0, 1, 1, /*Applied=*/true), // Must be dropped.
  };
  ConsistencyChecker Checker;
  const CheckResult R = Checker.check(Events);
  EXPECT_FALSE(R.AxiomsOk);
  EXPECT_NE(R.AxiomViolation.find("coherence"), std::string::npos)
      << R.AxiomViolation;
}

TEST(CheckerTest, AcceptsCoherenceDrop) {
  // The same trace with the stale drain correctly dropped: axioms hold,
  // and the final value is the newer write's.
  const std::vector<TraceEvent> Events = {
      storeIssue(0, 0, 0, 1, 1),
      storeIssue(1, 0, 0, 2, 2),
      storeDrain(1, 0, 0, 2, 2),
      storeDrain(0, 0, 0, 1, 1, /*Applied=*/false),
      loadBind(0, 0, 0, 2),
  };
  ConsistencyChecker Checker;
  const CheckResult R = Checker.check(Events);
  EXPECT_TRUE(R.AxiomsOk) << R.AxiomViolation;
  EXPECT_TRUE(R.Sc);
}

TEST(CheckerTest, FlagsSelfCoherenceViolation) {
  // A load binding from memory while its own bank still buffers a store.
  const std::vector<TraceEvent> Events = {
      storeIssue(0, 0, 0, 1, 1),
      loadBind(0, 0, 1, 0), // Same bank (different address): must drain.
      storeDrain(0, 0, 0, 1, 1),
  };
  ConsistencyChecker Checker;
  const CheckResult R = Checker.check(Events);
  EXPECT_FALSE(R.AxiomsOk);
  EXPECT_NE(R.AxiomViolation.find("self-coherence"), std::string::npos)
      << R.AxiomViolation;
}

TEST(CheckerTest, ExplanationRendersCycle) {
  const std::vector<TraceEvent> Events = {
      storeIssue(0, 0, 0, 1, 1),
      storeIssue(0, 1, 8, 1, 2),
      storeDrain(0, 1, 8, 1, 2),
      loadBind(1, 1, 8, 1),
      loadBind(1, 0, 0, 0),
      storeDrain(0, 0, 0, 1, 1),
  };
  ConsistencyChecker Checker;
  const CheckResult R = Checker.check(Events);
  ASSERT_FALSE(R.Sc);
  const model::AddrNamer Namer = [](sim::Addr A) {
    return std::string(A == 0 ? "x" : "y");
  };
  const std::string Text = model::renderExplanation(Events, R, Namer);
  EXPECT_NE(Text.find("--rf-->"), std::string::npos) << Text;
  EXPECT_NE(Text.find("--fr-->"), std::string::npos) << Text;
  EXPECT_NE(Text.find("store-issue y = 1"), std::string::npos) << Text;
  EXPECT_NE(Text.find("load-bind x = 0"), std::string::npos) << Text;
}

//===----------------------------------------------------------------------===//
// The differential oracle (checker vs operational interpreter)
//===----------------------------------------------------------------------===//

TEST(OracleTest, AgreesWithSimulatorOnAllCatalogPrograms) {
  // The acceptance pin: on every catalog program, per-run SC-vs-weak
  // classification agrees between the axiomatic checker and the
  // operational interpreter, at pinned seeds under tuned stress. S and
  // 2+2W never exhibit their weak outcome (the documented per-location-
  // coherence strengthening, DESIGN.md Sec. 6) — the checker concurs.
  unsigned TotalWeak = 0;
  for (const litmus::Program &P : litmus::catalog()) {
    const OracleTally T = crossCheck(P, /*Runs=*/40, /*Seed=*/42);
    EXPECT_EQ(T.Disagreements, 0u) << P.Name;
    EXPECT_EQ(T.AxiomViolations, 0u) << P.Name;
    if (P.Name == "S" || P.Name == "2+2W") {
      EXPECT_EQ(T.Weak, 0u) << P.Name;
    }
    TotalWeak += T.Weak;
  }
  // The oracle must actually have judged weak runs, not only SC ones.
  EXPECT_GT(TotalWeak, 0u);
}

TEST(OracleTest, FencedRunsStaySc) {
  for (const litmus::Program *P : litmus::tuningPrograms()) {
    const OracleTally T = crossCheck(*P, /*Runs=*/25, /*Seed=*/7,
                                     /*Fenced=*/true);
    EXPECT_EQ(T.Disagreements, 0u) << P->Name;
    EXPECT_EQ(T.Weak, 0u) << P->Name;
  }
}

TEST(OracleTest, AppTracesSatisfyAxioms) {
  // Application runs exercise what litmus runs cannot: barriers, block
  // fences, overlay reads, spinlocks (failed CAS), multi-kernel launches.
  // The replay axioms must hold on every recorded run; SC classification
  // is deliberately not asserted (weak behaviour is the expected finding).
  const sim::ChipProfile &Chip = titan();
  const stress::Environment Env{stress::StressKind::Sys, true};
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  ConsistencyChecker Checker;
  sim::ExecutionContext Ctx;
  Ctx.requestTracing(true);
  for (apps::AppKind App : {apps::AppKind::CbeDot, apps::AppKind::SdkRed,
                            apps::AppKind::CbeHt, apps::AppKind::CubScan}) {
    for (unsigned Run = 0; Run != 8; ++Run) {
      (void)apps::runApplicationOnce(Ctx, App, Chip, Env, Tuned,
                                     /*Policy=*/nullptr,
                                     Rng::deriveStream(11, Run));
      ASSERT_FALSE(Ctx.trace().empty());
      const CheckResult R = Checker.check(Ctx.trace());
      EXPECT_TRUE(R.AxiomsOk)
          << apps::appName(App) << " run " << Run << ": "
          << R.AxiomViolation << "\n"
          << model::renderExplanation(Ctx.trace().events(), R);
    }
  }
}

TEST(OracleTest, CampaignOracleSamplesAndStaysClean) {
  harness::CampaignConfig Config;
  Config.Chips = {&titan()};
  Config.Envs = {{stress::StressKind::Sys, true}};
  Config.Apps = {apps::AppKind::CbeDot};
  Config.LitmusTests = {litmus::findCatalogProgram("MP")};
  Config.Runs = 12;
  Config.Seed = 3;
  Config.OracleEvery = 4;
  const harness::CampaignReport Report = harness::runCampaign(Config);
  ASSERT_EQ(Report.Cells.size(), 1u);
  EXPECT_EQ(Report.Cells[0].OracleChecked, 3u); // Runs 0, 4, 8.
  EXPECT_EQ(Report.Cells[0].OracleViolations, 0u);
  ASSERT_EQ(Report.LitmusCells.size(), 1u);
  EXPECT_GT(Report.LitmusCells[0].OracleChecked, 0u);
  EXPECT_EQ(Report.LitmusCells[0].OracleViolations, 0u);

  // Counts must be identical with the oracle off (tracing observes only).
  harness::CampaignConfig Off = Config;
  Off.OracleEvery = 0;
  const harness::CampaignReport Plain = harness::runCampaign(Off);
  EXPECT_EQ(Plain.Cells[0].Result.Errors,
            Report.Cells[0].Result.Errors);
  EXPECT_EQ(Plain.LitmusCells[0].Weak, Report.LitmusCells[0].Weak);
}

//===----------------------------------------------------------------------===//
// Shrinking
//===----------------------------------------------------------------------===//

namespace {

const char *ReplayDemoText = R"(
litmus "replay demo"
locations data flag aux
init { flag = 9 }
jitter 8
thread 0 @ block 1 {
  add aux 3
  st data 5
  st flag 1
}
thread 1 @ block 0 {
  ld r0 flag
  ld r1 data
  fence
}
forbidden r0 != 9 /\ r0 != 0 /\ r1 = 0
)";

} // namespace

TEST(ShrinkTest, ReducesReplayDemoToTheWeakCore) {
  litmus::ParseError Err;
  std::optional<litmus::Program> P =
      litmus::parseLitmus(ReplayDemoText, Err);
  ASSERT_TRUE(P.has_value()) << Err.render("replay-demo");

  fuzz::ShrinkOptions Opts;
  Opts.Distance = 128;
  Opts.RunsPerAttempt = 150;
  Opts.Seed = 1;
  const fuzz::ShrinkResult R = fuzz::shrinkWeakProgram(*P, titan(), Opts);
  ASSERT_TRUE(R.Reproduced);
  EXPECT_EQ(R.OriginalOps, 6u);
  // The atomic bump of `aux` and the reader's too-late fence go; the two
  // communication stores and the two pinned loads must survive.
  EXPECT_EQ(R.ReducedOps, 4u);
  EXPECT_LT(R.ReducedOps, R.OriginalOps);
  EXPECT_TRUE(R.Reduced.validate().empty()) << R.Reduced.validate();
  ASSERT_EQ(R.Reduced.Threads.size(), 2u);
  EXPECT_EQ(R.Reduced.Threads[0].Ops.size(), 2u);
  EXPECT_EQ(R.Reduced.Threads[1].Ops.size(), 2u);
  for (const litmus::ProgOp &O : R.Reduced.Threads[0].Ops)
    EXPECT_EQ(O.K, litmus::ProgOp::Kind::Store);
  for (const litmus::ProgOp &O : R.Reduced.Threads[1].Ops)
    EXPECT_EQ(O.K, litmus::ProgOp::Kind::Load);
  // The forbidden clause is untouched: same outcome, smaller program.
  EXPECT_EQ(R.Reduced.Forbidden.size(), P->Forbidden.size());
}

TEST(ShrinkTest, UnprovokableCaseIsLeftAlone) {
  // MP with a real fence between each thread's accesses: the forbidden
  // outcome is never provoked weakly, so nothing may be shrunk.
  litmus::ParseError Err;
  std::optional<litmus::Program> P = litmus::parseLitmus(R"(
litmus fenced-mp
locations x y
thread 0 { st x 1
  fence
  st y 1 }
thread 1 { ld r0 y
  fence
  ld r1 x }
forbidden r0 = 1 /\ r1 = 0
)",
                                                        Err);
  ASSERT_TRUE(P.has_value()) << Err.render("fenced-mp");
  fuzz::ShrinkOptions Opts;
  Opts.Distance = 128;
  Opts.RunsPerAttempt = 60;
  Opts.Seed = 5;
  const fuzz::ShrinkResult R = fuzz::shrinkWeakProgram(*P, titan(), Opts);
  EXPECT_FALSE(R.Reproduced);
  EXPECT_EQ(R.ReducedOps, R.OriginalOps);
}

//===----------------------------------------------------------------------===//
// Explain plumbing (runner-provided address names)
//===----------------------------------------------------------------------===//

TEST(ExplainTest, RunnerNamesAddressesInExplanations) {
  const litmus::Program &P = *litmus::findCatalogProgram("MP");
  const sim::ChipProfile &Chip = titan();
  litmus::LitmusRunner Runner(Chip, 42);
  litmus::LitmusRunner::RunOpts Opts;
  Opts.Trace = true;
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  ConsistencyChecker Checker;
  for (unsigned Region = 0; Region != Chip.NumBanks; ++Region) {
    const auto S = litmus::LitmusRunner::MicroStress::at(
        Tuned.Seq, Region * Tuned.PatchWords);
    for (unsigned I = 0; I != 60; ++I) {
      if (!Runner.runOnce(P, 2 * Chip.PatchSizeWords, S, Opts))
        continue;
      const CheckResult R = Checker.check(Runner.trace());
      ASSERT_TRUE(R.weak());
      const std::string Text = model::renderExplanation(
          Runner.trace().events(), R,
          [&Runner](sim::Addr A) { return Runner.addrName(A); });
      EXPECT_NE(Text.find("load-bind y = 1"), std::string::npos) << Text;
      EXPECT_NE(Text.find("load-bind x = 0"), std::string::npos) << Text;
      return; // One explained weak run is what this test needs.
    }
  }
  FAIL() << "no weak MP outcome found to explain";
}

//===----------------------------------------------------------------------===//
// The axiomatic execution enumerator
//===----------------------------------------------------------------------===//

namespace {

litmus::Program parseProgram(const char *Text) {
  litmus::ParseError Err;
  std::optional<litmus::Program> P = litmus::parseLitmus(Text, Err);
  EXPECT_TRUE(P.has_value()) << Err.render("test-program");
  return P ? *P : litmus::Program();
}

/// The catalog program \p Name with its forbidden clause replaced.
litmus::Program withOutcome(const char *Name,
                            std::vector<litmus::CondAtom> Forbidden) {
  litmus::Program P = *litmus::findCatalogProgram(Name);
  P.Forbidden = std::move(Forbidden);
  return P;
}

litmus::CondAtom reg(unsigned R, sim::Word V) { return {true, R, false, V}; }

} // namespace

TEST(EnumerateTest, ClassicWeakShapesAreNonScReachable) {
  for (const char *Name : {"MP", "SB", "LB", "IRIW"}) {
    const model::Enumeration E =
        model::enumerateForbidden(*litmus::findCatalogProgram(Name));
    EXPECT_EQ(E.Answer, model::Reach::NonSc) << Name;
    EXPECT_GT(E.Candidates, 0u) << Name;
    EXPECT_FALSE(E.rulesOutWeak()) << Name;
  }
}

TEST(EnumerateTest, SequentialOutcomesAreScOnly) {
  // MP's r0 = 1 /\ r1 = 1: the reader runs after the writer.
  const model::Enumeration E =
      model::enumerateForbidden(withOutcome("MP", {reg(0, 1), reg(1, 1)}));
  EXPECT_EQ(E.Answer, model::Reach::ScOnly);
  EXPECT_TRUE(E.rulesOutWeak());
}

TEST(EnumerateTest, FindScAnswersWhetherAnScExecutionShowsTheOutcome) {
  // MP's r1 = 0 alone: the reader runs first (SC), or sees y = 1 and
  // still x = 0 (non-SC). The default search stops at the first non-SC
  // candidate; FindSc searches on until it has seen an SC one too.
  const litmus::Program Mixed = withOutcome("MP", {reg(1, 0)});
  const model::Enumeration Stop = model::enumerateForbidden(Mixed);
  const model::Enumeration Both = model::enumerateForbidden(
      Mixed, model::DefaultCandidateCap, /*FindSc=*/true);
  EXPECT_EQ(Stop.Answer, model::Reach::NonSc);
  EXPECT_EQ(Both.Answer, model::Reach::NonSc);
  EXPECT_TRUE(Both.ScReachable);
  EXPECT_GE(Both.Candidates, Stop.Candidates);
  // The catalog's outcomes are non-SC only; FindSc changes no answer.
  for (const litmus::Program &P : litmus::catalog()) {
    const model::Enumeration E =
        model::enumerateForbidden(P, model::DefaultCandidateCap, true);
    EXPECT_EQ(E.Answer, model::enumerateForbidden(P).Answer) << P.Name;
    EXPECT_FALSE(E.ScReachable) << P.Name;
  }
  // An SC-only outcome is SC-reachable whichever way it is asked.
  const litmus::Program Sequential = withOutcome("MP", {reg(0, 1), reg(1, 1)});
  EXPECT_TRUE(model::enumerateForbidden(Sequential).ScReachable);
  // Past the cap after the first non-SC candidate, the answer stays NonSc.
  const model::Enumeration Capped =
      model::enumerateForbidden(Mixed, Stop.Candidates, /*FindSc=*/true);
  EXPECT_EQ(Capped.Answer, model::Reach::NonSc);
}

TEST(EnumerateTest, NeverWrittenValuesAreUnreachable) {
  // No write of MP stores 7.
  const model::Enumeration E =
      model::enumerateForbidden(withOutcome("MP", {reg(0, 7)}));
  EXPECT_EQ(E.Answer, model::Reach::Unreachable);
  EXPECT_TRUE(E.rulesOutWeak());
  // A value that is written but that no coherence order leaves last: both
  // adds always land, so x ends at 3.
  EXPECT_EQ(model::enumerateForbidden(parseProgram(R"(
litmus adds
locations x
thread 0 { add x 1 }
thread 1 { add x 2 }
forbidden x = 1
)")).Answer,
            model::Reach::Unreachable);
  // An empty clause is never shown.
  EXPECT_EQ(model::enumerateForbidden(withOutcome("SB", {})).Answer,
            model::Reach::Unreachable);
}

TEST(EnumerateTest, TinyCapIsUnknown) {
  const litmus::Program &Iriw = *litmus::findCatalogProgram("IRIW");
  const model::Enumeration E = model::enumerateForbidden(Iriw, /*Cap=*/1);
  EXPECT_EQ(E.Answer, model::Reach::Unknown);
  EXPECT_FALSE(E.rulesOutWeak());
  EXPECT_EQ(model::enumerateForbidden(Iriw).Answer, model::Reach::NonSc);
}

TEST(EnumerateTest, AtomicsReadTheirCoPredecessor) {
  // Two adds of 1 from 0: each reads the other's write or the initial
  // state, so x ends at 2 and a load sees 0, 1 or 2, never 3.
  const char *Text = R"(
litmus two-adds
locations x
thread 0 { add x 1 }
thread 1 { add x 1
  ld r0 x }
forbidden r0 = %u /\ x = %u
)";
  const auto Classify = [&](unsigned R0, unsigned X) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf), Text, R0, X);
    return model::enumerateForbidden(parseProgram(Buf)).Answer;
  };
  EXPECT_EQ(Classify(2, 2), model::Reach::ScOnly);
  // r0 = 1 when thread 1's add goes first. Were it second, its load would
  // read past it: incoherent, so not a candidate.
  EXPECT_EQ(Classify(1, 2), model::Reach::ScOnly);
  EXPECT_EQ(Classify(0, 2), model::Reach::Unreachable);
  EXPECT_EQ(Classify(3, 2), model::Reach::Unreachable);
  EXPECT_EQ(Classify(2, 1), model::Reach::Unreachable);
}

// A split-phase load binds at its await and reads memory past its own
// thread's buffered stores, so it can read the initial state after its
// thread's store (CoWR). Programs with one are exempt from the coherence
// requirement; the machine really produces this outcome, weak.
TEST(EnumerateTest, SplitPhaseLoadsSkipTheCoherenceRequirement) {
  const litmus::Program P = parseProgram(R"(
litmus async-past-store
locations x
thread 0 { st x 1
  ldasync r0 x
  await r0 }
forbidden r0 = 0
)");
  EXPECT_EQ(model::enumerateForbidden(P).Answer, model::Reach::NonSc);
  fuzz::ShrinkOptions Opts;
  Opts.RunsPerAttempt = 100;
  std::string OracleError;
  EXPECT_TRUE(fuzz::reproducesWeakProgram(P, titan(), Opts, &OracleError));
  EXPECT_EQ(OracleError, "");
  // With a plain load the same outcome is incoherent: never a candidate.
  litmus::Program Plain = P;
  Plain.Threads[0].Ops = {litmus::ProgOp::store(0, 1),
                          litmus::ProgOp::load(0, 0)};
  EXPECT_EQ(model::enumerateForbidden(Plain).Answer,
            model::Reach::Unreachable);
}

// Every outcome the weak machine produces is a candidate's: over 200
// stressed fuzz programs × 40 runs, no observed outcome is unreachable,
// and each one outside the exhaustive SC set (a weak run) has a coherent
// non-SC candidate. This checks the coherence requirement against the
// machine itself, with no checker in between.
TEST(EnumerateTest, EveryObservedFuzzOutcomeIsACandidate) {
  const sim::ChipProfile &Chip = titan();
  sim::ContextLease Ctx;
  unsigned Weak = 0;
  for (uint64_t I = 0; I != 200; ++I) {
    Rng Gen(Rng::deriveStream(77, 2 * I));
    const litmus::Program P = fuzz::generateProgram(Gen, 3, 5, false);
    const std::set<fuzz::Outcome> Sc = fuzz::enumerateScOutcomes(P);
    const fuzz::CompiledProgram CP = fuzz::compileProgram(P, Chip);
    std::set<fuzz::Outcome> Seen;
    Rng Master(Rng::deriveStream(77, 2 * I + 1));
    for (unsigned Run = 0; Run != 40; ++Run) {
      const fuzz::Outcome O = fuzz::runOnWeakMachine(
          Ctx.get(), CP, Chip, Master.fork(Run).next(), /*Stressed=*/true);
      if (!Seen.insert(O).second)
        continue;
      const model::Reach Got =
          model::enumerateForbidden(fuzz::toLitmusProgram(P, "observed", &O))
              .Answer;
      const bool IsSc = Sc.count(O) != 0;
      Weak += !IsSc;
      EXPECT_TRUE(IsSc ? Got != model::Reach::Unreachable
                       : Got == model::Reach::NonSc)
          << "program " << I << " run " << Run << ": "
          << model::reachName(Got) << "\n"
          << litmus::printLitmus(fuzz::toLitmusProgram(P, "observed", &O));
    }
  }
  EXPECT_GT(Weak, 20u);
}

// Soundness against simulation: every catalog program, bare and with its
// fences in, under every forbidden outcome that pins one of its atoms to
// another value its location can hold. Each variant the enumerator rules
// out must never reproduce weak under tuned stress; the ruled-in originals
// show the same budget does find weakness.
TEST(EnumerateTest, RuledOutCatalogVariantsNeverReproduceWeak) {
  fuzz::ShrinkOptions Opts;
  Opts.Distance = 2 * titan().PatchSizeWords;
  Opts.RunsPerAttempt = 100;
  Opts.Seed = 11;
  unsigned RuledOut = 0, WeakOriginals = 0;
  for (const litmus::Program &Base : litmus::catalog()) {
    litmus::Program Fenced = Base;
    for (litmus::ProgThread &T : Fenced.Threads)
      for (litmus::ProgOp &O : T.Ops)
        if (O.K == litmus::ProgOp::Kind::OptFence)
          O.K = litmus::ProgOp::Kind::Fence;
    const litmus::Program *Forms[] = {&Base, &Fenced};
    for (const litmus::Program *P : Forms) {
      std::vector<litmus::Program> Variants;
      for (size_t A = 0; A != P->Forbidden.size(); ++A)
        for (sim::Word V : {0u, 1u, 2u}) {
          litmus::Program Q = *P;
          if (Q.Forbidden[A].Value == V)
            continue;
          Q.Forbidden[A].Value = V;
          Variants.push_back(std::move(Q));
        }
      std::string Err;
      if (P == &Base && fuzz::reproducesWeakProgram(*P, titan(), Opts, &Err))
        ++WeakOriginals;
      EXPECT_EQ(Err, "") << Base.Name;
      for (const litmus::Program &Q : Variants) {
        if (!model::enumerateForbidden(Q).rulesOutWeak())
          continue;
        ++RuledOut;
        EXPECT_FALSE(fuzz::reproducesWeakProgram(Q, titan(), Opts, &Err))
            << litmus::printLitmus(Q);
        EXPECT_EQ(Err, "") << Q.Name;
      }
    }
  }
  EXPECT_GE(RuledOut, 50u);
  EXPECT_GE(WeakOriginals, 5u);
}
