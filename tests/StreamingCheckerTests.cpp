//===- tests/StreamingCheckerTests.cpp - Online oracle differential suite -----===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// The streaming consistency oracle (model/StreamingChecker.h) against the
// post-hoc reference checker (model/ConsistencyChecker.h): both consume
// identical event streams, so on every input the verdict — and, for an
// axiom violation, the first-violation (message, event pair) — must match
// exactly. The suite pins that contract on the whole litmus catalog under
// tuned stress, on fuzz-generated programs, on every application workload,
// and on deliberately corrupted traces. The two checkers share one replay
// of the axioms (model/Replay.h), so a hand-built table pins each
// violation message and its event pair independently. The suite also
// pins the streaming checker's bounded-memory property (retirement keeps
// the live graph at the active frontier, not the run length), the exact
// work a checked run does (events, edge operations, memory operations) on
// both engines, and the campaign's --oracle=all mode (every run checked,
// counts unperturbed).
//
//===----------------------------------------------------------------------===//

#include "EngineModeGuard.h"

#include "apps/Application.h"
#include "fuzz/ProgramFuzzer.h"
#include "fuzz/Shrink.h"
#include "harness/Campaign.h"
#include "litmus/Format.h"
#include "litmus/Litmus.h"
#include "model/ConsistencyChecker.h"
#include "model/Enumerate.h"
#include "model/StreamingChecker.h"
#include "stress/Environment.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <new>
#include <set>

using namespace gpuwmm;
using model::CheckResult;
using model::ConsistencyChecker;
using model::StreamingChecker;
using model::StreamVerdict;
using sim::LoadSource;
using sim::TraceEvent;
using sim::TraceEventKind;

namespace {

const sim::ChipProfile &titan() {
  const sim::ChipProfile *Chip = sim::ChipProfile::lookup("titan");
  EXPECT_NE(Chip, nullptr);
  return *Chip;
}

/// The differential contract on one event stream: same verdict; for an
/// axiom violation, the same message and the same violating event pair.
/// (For a weak run only the verdict is pinned: the specific cycle may
/// legitimately differ, its existence may not.)
void expectSameVerdict(const std::vector<TraceEvent> &Events,
                       ConsistencyChecker &PostHoc, StreamingChecker &Stream,
                       const std::string &What) {
  const CheckResult A = PostHoc.check(Events);
  const StreamVerdict &B = Stream.checkAll(Events);
  ASSERT_EQ(A.AxiomsOk, B.AxiomsOk)
      << What << ": post-hoc [" << A.AxiomViolation << "] vs streaming ["
      << B.AxiomViolation << "]";
  if (!A.AxiomsOk) {
    EXPECT_EQ(A.AxiomViolation, B.AxiomViolation) << What;
    EXPECT_EQ(A.ViolatingA, B.ViolatingA) << What;
    EXPECT_EQ(A.ViolatingB, B.ViolatingB) << What;
  } else {
    EXPECT_EQ(A.Sc, B.Sc) << What;
    EXPECT_EQ(A.weak(), B.weak()) << What;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Differential: the litmus catalog
//===----------------------------------------------------------------------===//

// Every catalog program, the full per-bank tuned-stress scan at a pinned
// seed: streaming and post-hoc verdicts (and first violations, were any to
// occur) must coincide on every recorded run. This is the suite's
// full-catalog grid (multi-second; carries the "slow" CTest label).
TEST(StreamingDifferentialTest, FullCatalogGridMatchesPostHoc) {
  const sim::ChipProfile &Chip = titan();
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  ConsistencyChecker PostHoc;
  StreamingChecker Stream;
  unsigned Weak = 0;
  for (const litmus::Program &P : litmus::catalog()) {
    litmus::LitmusRunner Runner(Chip, /*Seed=*/42);
    litmus::LitmusRunner::RunOpts Opts;
    Opts.Trace = true;
    for (unsigned Region = 0; Region != Chip.NumBanks; ++Region) {
      const auto S = litmus::LitmusRunner::MicroStress::at(
          Tuned.Seq, Region * Tuned.PatchWords);
      for (unsigned I = 0; I != 25; ++I) {
        (void)Runner.runOnce(P, 2 * Chip.PatchSizeWords, S, Opts);
        expectSameVerdict(Runner.trace().events(), PostHoc, Stream,
                          P.Name + " region " + std::to_string(Region) +
                              " run " + std::to_string(I));
        Weak += Stream.verdict().weak();
      }
    }
  }
  // The grid must actually have judged weak runs, not only SC ones.
  EXPECT_GT(Weak, 0u);
}

// The live-sink path must judge exactly as replaying the recorded trace
// does: two runners at one seed, one recording for the post-hoc checker,
// one streaming through the sink seam while it executes.
TEST(StreamingDifferentialTest, LiveSinkMatchesRecordedReplay) {
  const sim::ChipProfile &Chip = titan();
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  ConsistencyChecker PostHoc;
  StreamingChecker Stream;
  unsigned Weak = 0;
  for (const litmus::Program *Test : litmus::tuningPrograms()) {
    const litmus::Program &P = *Test;
    litmus::LitmusRunner Recorded(Chip, 7), Streamed(Chip, 7);
    litmus::LitmusRunner::RunOpts TraceOpts, SinkOpts;
    TraceOpts.Trace = true;
    SinkOpts.Sink = &Stream;
    for (unsigned Region = 0; Region != Chip.NumBanks; ++Region) {
      const auto S = litmus::LitmusRunner::MicroStress::at(
          Tuned.Seq, Region * Tuned.PatchWords);
      for (unsigned I = 0; I != 30; ++I) {
        const bool A = Recorded.runOnce(P, 128, S, TraceOpts);
        Stream.begin();
        const bool B = Streamed.runOnce(P, 128, S, SinkOpts);
        const StreamVerdict &Live = Stream.finish();
        ASSERT_EQ(A, B) << P.Name << " run " << I
                        << ": streaming perturbed the execution";
        const CheckResult Ref = PostHoc.check(Recorded.trace());
        ASSERT_TRUE(Live.AxiomsOk) << Live.AxiomViolation;
        EXPECT_EQ(Ref.weak(), Live.weak())
            << P.Name << " region " << Region << " run "
            << I;
        Weak += Live.weak();
      }
    }
  }
  // The tuning trio under the full per-bank scan at this seed is reliably
  // weak somewhere — the live path must actually have judged weak runs.
  EXPECT_GT(Weak, 0u);
}

//===----------------------------------------------------------------------===//
// Differential: fuzz-generated programs
//===----------------------------------------------------------------------===//

// 200 random two-thread programs (every 4th generated with fences), each
// executed under tuned stress with its trace compared checker-vs-checker.
TEST(StreamingDifferentialTest, TwoHundredFuzzProgramsMatchPostHoc) {
  const sim::ChipProfile &Chip = titan();
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  ConsistencyChecker PostHoc;
  StreamingChecker Stream;
  unsigned Compared = 0;
  for (unsigned PI = 0; PI != 200; ++PI) {
    Rng Gen(Rng::deriveStream(99, PI));
    const litmus::Program LP = fuzz::generateProgram(
        Gen, /*NumVars=*/3, /*OpsPerThread=*/5, /*WithFences=*/PI % 4 == 0);
    ASSERT_TRUE(LP.validate().empty()) << LP.validate();
    litmus::LitmusRunner Runner(Chip, Rng::deriveStream(100, PI));
    litmus::LitmusRunner::RunOpts Opts;
    Opts.Trace = true;
    const auto S = litmus::LitmusRunner::MicroStress::at(
        Tuned.Seq, (PI % Chip.NumBanks) * Tuned.PatchWords);
    for (unsigned Run = 0; Run != 3; ++Run) {
      (void)Runner.runOnce(LP, 64, S, Opts);
      expectSameVerdict(Runner.trace().events(), PostHoc, Stream,
                        "fuzz program " + std::to_string(PI) + " run " +
                            std::to_string(Run));
      ++Compared;
    }
  }
  EXPECT_EQ(Compared, 600u);
}

//===----------------------------------------------------------------------===//
// Differential: application workloads
//===----------------------------------------------------------------------===//

namespace {

using Adjacency =
    std::vector<std::vector<std::pair<uint32_t, model::EdgeKind>>>;

/// True iff \p Edges (one run's full po ∪ rf ∪ co ∪ fr graph) has a
/// non-empty path From ->* To.
bool reaches(const Adjacency &Edges, size_t NumEvents, size_t From,
             size_t To) {
  std::vector<uint8_t> Seen(NumEvents, 0);
  std::vector<size_t> Work = {From};
  while (!Work.empty()) {
    const size_t N = Work.back();
    Work.pop_back();
    for (const auto &[T, K] : Edges[N]) {
      if (T == To)
        return true;
      if (!Seen[T]) {
        Seen[T] = 1;
        Work.push_back(T);
      }
    }
  }
  return false;
}

/// Counts of what one app-trace grid exercised.
struct AppGridCounts {
  unsigned Weak = 0;   ///< Runs both checkers judged weak.
  unsigned LongSc = 0; ///< SC runs of more than 20k events.
};

/// Runs every Tab. 4 application twice under \p Env on titan and applies
/// the differential contract to each trace. Every streaming witness must
/// also be a real cycle: each consecutive pair is joined by a path in the
/// full trace's graph.
void checkAppTraces(const stress::Environment &Env, AppGridCounts &Counts) {
  const sim::ChipProfile &Chip = titan();
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  ConsistencyChecker PostHoc;
  StreamingChecker Stream;
  sim::ExecutionContext Ctx;
  Ctx.requestTracing(true);
  for (apps::AppKind App : apps::AllAppKinds)
    for (unsigned Run = 0; Run != 2; ++Run) {
      (void)apps::runApplicationOnce(Ctx, App, Chip, Env, Tuned,
                                     /*Policy=*/nullptr,
                                     Rng::deriveStream(11, Run));
      const std::vector<TraceEvent> &Events = Ctx.trace().events();
      ASSERT_FALSE(Events.empty());
      const std::string What = std::string(apps::appName(App)) + " " +
                               Env.name() + " run " + std::to_string(Run);
      expectSameVerdict(Events, PostHoc, Stream, What);
      const StreamVerdict &V = Stream.verdict();
      Counts.LongSc += V.AxiomsOk && V.Sc && Events.size() > 20000;
      if (!V.weak())
        continue;
      ++Counts.Weak;
      // expectSameVerdict left the post-hoc graph of this trace behind.
      for (size_t K = 0; K != V.Cycle.size(); ++K) {
        const size_t A = V.Cycle[K].first;
        const size_t B = V.Cycle[(K + 1) % V.Cycle.size()].first;
        ASSERT_LT(A, Events.size()) << What;
        EXPECT_TRUE(reaches(PostHoc.edges(), Events.size(), A, B))
            << What << ": witness step e" << A << " -> e" << B
            << " is not a path in the trace";
      }
    }
}

const stress::Environment SysStressPlus{stress::StressKind::Sys, true};

} // namespace

// Every Tab. 4 application under sys stress: app traces exercise what
// litmus runs cannot (barriers, block fences, overlay reads, atomics,
// multi-kernel launches with host writes between them).
TEST(StreamingDifferentialTest, AppTracesMatchPostHoc) {
  AppGridCounts Counts;
  checkAppTraces(SysStressPlus, Counts);
  EXPECT_GT(Counts.Weak, 0u) << "no weak witness was audited";
}

// The other seven environments: unstressed and randomly stressed runs
// keep tpo-tm sequentially consistent for tens of thousands of events —
// the long traces on which retirement and the per-lane edge reduction do
// real work. (Multi-second; carries the "slow" CTest label.)
TEST(StreamingDifferentialTest, AppTracesAllEnvsMatchPostHoc) {
  AppGridCounts Counts;
  for (const stress::Environment &Env : stress::Environment::all())
    if (Env.name() != SysStressPlus.name())
      checkAppTraces(Env, Counts);
  EXPECT_GT(Counts.LongSc, 0u) << "no long SC trace was compared";
}

// The missed-cycle regression behind hunt's "checkers disagreed during
// shrink": an atomic's write side prunes the coherence window, which used
// to run before its read side and retire the write it read from, so the
// read lost its rf and fr edges. The coherence-dropped e0 (id 2) goes
// immediately before e1, the plain write whose newer id dropped it; it
// once went after the atomic e3 (the dropped-store co rule that made both
// checkers call this run weak through e5 -fr-> e0 -co-> e5). With
// co = e0 e1 e3 e5 the run is SC, and both checkers must say so.
TEST(StreamingDifferentialTest, AtomicReadSurvivesItsOwnPrune) {
  const auto Ev = [](TraceEventKind K, bool Flag, unsigned Tid, sim::Word V,
                     uint64_t Id) -> TraceEvent {
    return {K, LoadSource::Memory, Flag, Tid, Tid, /*Bank=*/0, /*A=*/0,
            V, Id, 0};
  };
  const std::vector<TraceEvent> Events = {
      Ev(TraceEventKind::StoreIssue, false, 1, 7, 2),
      Ev(TraceEventKind::StoreIssue, false, 0, 1, 3),
      Ev(TraceEventKind::StoreDrain, true, 0, 1, 3),
      Ev(TraceEventKind::Atomic, true, 0, 3, /*Old=*/1),
      Ev(TraceEventKind::StoreDrain, false, 1, 7, 2),
      Ev(TraceEventKind::Atomic, true, 0, 8, /*Old=*/3),
  };
  ConsistencyChecker PostHoc;
  StreamingChecker Stream;
  const CheckResult A = PostHoc.check(Events);
  ASSERT_TRUE(A.AxiomsOk) << A.AxiomViolation;
  EXPECT_TRUE(A.Sc);
  EXPECT_NE(std::find(PostHoc.edges()[0].begin(), PostHoc.edges()[0].end(),
                      std::make_pair(uint32_t{1}, model::EdgeKind::Co)),
            PostHoc.edges()[0].end())
      << "the dropped write must be co-before the write that dropped it";
  const StreamVerdict &B = Stream.checkAll(Events);
  ASSERT_TRUE(B.AxiomsOk) << B.AxiomViolation;
  EXPECT_TRUE(B.Sc);
}

//===----------------------------------------------------------------------===//
// The dropped-store coherence rule
//===----------------------------------------------------------------------===//

namespace {

/// Both checkers on \p Events: axiom-clean, and SC.
void expectBothSc(const std::vector<TraceEvent> &Events, const char *What) {
  ConsistencyChecker PostHoc;
  StreamingChecker Stream;
  const CheckResult A = PostHoc.check(Events);
  ASSERT_TRUE(A.AxiomsOk) << What << ": " << A.AxiomViolation;
  EXPECT_TRUE(A.Sc) << What << ": post-hoc\n"
                    << model::renderExplanation(Events, A);
  const StreamVerdict &B = Stream.checkAll(Events);
  ASSERT_TRUE(B.AxiomsOk) << What << ": " << B.AxiomViolation;
  EXPECT_TRUE(B.Sc) << What << ": streaming\n"
                    << model::renderStreamExplanation(B);
}

const char *DropcoText = R"(
litmus dropco
locations x y
jitter 8
thread 0 {
  st x 1
  ld r1 y
  add x 2
}
thread 1 {
  st x 4
  ld r2 x
  st y 5
}
forbidden r2 = 4 /\ r1 = 5 /\ x = 3
)";

} // namespace

// dropco: thread 0 is `st x 1; ld r1 y; add x 2`,
// thread 1 is `st x 4; ld r2 x; st y 5`, and the pinned outcome is
// r2 = 4 /\ r1 = 5 /\ x = 3 — SC-reachable as st x 4; ld r2 x; st y 5;
// st x 1; ld r1 y; add x 2. In this run thread 1's st x 4 (id 1) sits in
// its buffer while thread 0's st x 1 (id 3) drains and its add reads 1,
// then drains and is dropped. The dropped store belongs immediately
// before st x 1, past no atomic; it once landed after the add, closing
// the false cycle add -co-> st x 4 -rf-> ld x -po-> st y -rf-> ld y -po->
// add on both checkers.
TEST(DroppedStoreCoTest, DropcoRunIsScOnBothCheckers) {
  const auto Ev = [](TraceEventKind K, LoadSource Src, bool Flag,
                     unsigned Tid, unsigned Bank, sim::Addr A, sim::Word V,
                     uint64_t Id) -> TraceEvent {
    return {K, Src, Flag, Tid, Tid, Bank, A, V, Id, 0};
  };
  constexpr sim::Addr X = 0, Y = 64;
  const LoadSource Mem = LoadSource::Memory;
  const std::vector<TraceEvent> Events = {
      Ev(TraceEventKind::StoreIssue, Mem, false, 1, 0, X, 4, 1),
      Ev(TraceEventKind::LoadBind, LoadSource::Forward, false, 1, 0, X, 4,
         0),
      Ev(TraceEventKind::StoreIssue, Mem, false, 1, 1, Y, 5, 2),
      Ev(TraceEventKind::StoreDrain, Mem, true, 1, 1, Y, 5, 2),
      Ev(TraceEventKind::StoreIssue, Mem, false, 0, 0, X, 1, 3),
      Ev(TraceEventKind::StoreDrain, Mem, true, 0, 0, X, 1, 3),
      Ev(TraceEventKind::LoadBind, Mem, false, 0, 1, Y, 5, 0),
      Ev(TraceEventKind::Atomic, Mem, true, 0, 0, X, 3, /*Old=*/1),
      Ev(TraceEventKind::StoreDrain, Mem, false, 1, 0, X, 4, 1),
  };
  expectBothSc(Events, "dropco");
}

// dropco and the three programs hunt accepted as weak under the old rule
// (titan, CLI defaults, 20 rounds: seeds 2, 4 and 5, entries
// hunt-000008, hunt-000104 and hunt-000011, fences stripped). The
// enumerator proves each outcome SC-only. Under tuned stress at seed 1
// the old rule reproduced every one weak at once; now no
// forbidden-outcome run of 1,600 may be weak on either checker (a
// one-sided call is a disagreement, reported through the error).
TEST(DroppedStoreCoTest, ScOnlyHuntCasesNeverReproduceWeak) {
  const char *Programs[] = {
      DropcoText,
      R"(
litmus hunt-seed2
locations v0 v1 v2
jitter 8
thread 0 {
  st v0 1
  ld r0 v1
  add v0 2
  ld r1 v2
  add v0 3
}
thread 1 {
  st v0 4
  ld r2 v0
  st v2 2
  st v1 2
}
forbidden r0 = 0 /\ r1 = 2 /\ r2 = 4 /\ v0 = 6 /\ v1 = 2 /\ v2 = 2
)",
      R"(
litmus hunt-seed4
locations v0 v1 v2
jitter 8
thread 0 {
  st v0 1
  add v0 2
  add v0 5
}
thread 1 {
  ld r0 v0
  st v1 2
  st v0 7
  ld r1 v2
  ld r2 v1
}
forbidden r0 = 0 /\ r1 = 0 /\ r2 = 2 /\ v0 = 8 /\ v1 = 2 /\ v2 = 0
)",
      R"(
litmus hunt-seed5
locations v0 v1 v2
jitter 8
thread 0 {
  ld r0 v0
  st v1 2
  st v0 4
}
thread 1 {
  add v2 5
  st v0 6
  add v0 7
  add v0 9
}
forbidden r0 = 0 /\ v0 = 22 /\ v1 = 2 /\ v2 = 5
)"};
  fuzz::ShrinkOptions Opts;
  Opts.Distance = 2 * titan().PatchSizeWords;
  Opts.RunsPerAttempt = 200;
  Opts.Seed = 1;
  for (const char *Text : Programs) {
    litmus::ParseError Err;
    const std::optional<litmus::Program> P = litmus::parseLitmus(Text, Err);
    ASSERT_TRUE(P.has_value()) << Err.render("pinned");
    EXPECT_EQ(model::enumerateForbidden(*P).Answer, model::Reach::ScOnly)
        << P->Name;
    std::string OracleError;
    EXPECT_FALSE(fuzz::reproducesWeakProgram(*P, titan(), Opts, &OracleError))
        << P->Name;
    EXPECT_EQ(OracleError, "") << P->Name;
  }
}

//===----------------------------------------------------------------------===//
// Bounded memory (the retirement rule)
//===----------------------------------------------------------------------===//

// The tentpole's memory guarantee on a long trace: tpo-tm's task-queue
// spin loops make its runs tens of thousands of events long, while its
// active frontier (pending stores, po heads, per-address coherence
// windows) stays in the hundreds. Retirement must keep the live graph at
// the frontier — peak retained nodes a small fraction of events consumed.
TEST(StreamingMemoryBoundTest, PeakLiveEventsStayAtTheFrontier) {
  const sim::ChipProfile &Chip = titan();
  const stress::Environment Env{stress::StressKind::None, false};
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  StreamingChecker Checker;
  sim::ExecutionContext Ctx;
  for (unsigned Run = 0; Run != 3; ++Run) {
    Checker.begin();
    Ctx.requestStreaming(&Checker);
    (void)apps::runApplicationOnce(Ctx, apps::AppKind::TpoTm, Chip, Env,
                                   Tuned, /*Policy=*/nullptr,
                                   Rng::deriveStream(21, Run));
    Ctx.requestStreaming(nullptr);
    const StreamVerdict &R = Checker.finish();
    ASSERT_TRUE(R.AxiomsOk) << R.AxiomViolation;
    // A genuinely long run (spin loops), with the graph live throughout.
    ASSERT_GT(Checker.consumedEvents(), 20000u) << "run " << Run;
    // Retirement must actually fire — and reclaim most of the run.
    EXPECT_GT(Checker.retiredEvents(), Checker.consumedEvents() / 2)
        << "run " << Run;
    // The bounded-memory pin: the high-water mark of retained nodes is a
    // small fraction of the events consumed (empirically ~600 of 27000+;
    // 20x headroom keeps the bound meaningful without seed-brittleness).
    EXPECT_LT(Checker.peakLiveEvents() * 20, Checker.consumedEvents())
        << "run " << Run << ": peak " << Checker.peakLiveEvents() << " of "
        << Checker.consumedEvents() << " consumed";
  }
}

namespace {

/// Forwards every event to a checker while counting what bounds its
/// degree: the threads seen and the host writes.
struct DegreeWitness final : sim::TraceSink {
  explicit DegreeWitness(StreamingChecker &C) : Checker(C) {}
  void event(const TraceEvent &E) override {
    if (E.Kind == TraceEventKind::HostWrite)
      ++HostWrites;
    else if (E.Kind != TraceEventKind::BarrierRelease)
      Threads.insert(E.Tid);
    Checker.event(E);
  }
  StreamingChecker &Checker;
  std::set<unsigned> Threads;
  size_t HostWrites = 0;
};

} // namespace

// The per-lane edge reduction on the same long tpo-tm traces: no live
// node ever holds more than one edge per thread plus one per host-write
// node, and the graph work per event stays far below the unreduced
// splice's (more than 300 edge operations per event on these traces).
TEST(StreamingMemoryBoundTest, DegreeAndEdgeWorkStayBounded) {
  const sim::ChipProfile &Chip = titan();
  const stress::Environment Env{stress::StressKind::None, false};
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  StreamingChecker Checker;
  sim::ExecutionContext Ctx;
  for (unsigned Run = 0; Run != 3; ++Run) {
    DegreeWitness Witness(Checker);
    Checker.begin();
    Ctx.requestStreaming(&Witness);
    (void)apps::runApplicationOnce(Ctx, apps::AppKind::TpoTm, Chip, Env,
                                   Tuned, /*Policy=*/nullptr,
                                   Rng::deriveStream(21, Run));
    Ctx.requestStreaming(nullptr);
    const StreamVerdict &R = Checker.finish();
    ASSERT_TRUE(R.AxiomsOk) << R.AxiomViolation;
    ASSERT_TRUE(R.Sc) << "run " << Run << ": the graph must stay live";
    ASSERT_GT(Checker.consumedEvents(), 20000u) << "run " << Run;
    EXPECT_GT(Checker.peakDegree(), 1u) << "run " << Run;
    EXPECT_LE(Checker.peakDegree(),
              Witness.Threads.size() + Witness.HostWrites)
        << "run " << Run << ": " << Witness.Threads.size() << " threads, "
        << Witness.HostWrites << " host writes";
    EXPECT_LT(Checker.edgeOps(), 150 * Checker.consumedEvents())
        << "run " << Run << ": " << Checker.edgeOps() << " edge ops over "
        << Checker.consumedEvents() << " events";
  }
}

// begin() must fully reset the diagnostics: a short run after a long one
// reports the short run's counters, not a residue of the long one's.
TEST(StreamingMemoryBoundTest, CountersResetPerRun) {
  const sim::ChipProfile &Chip = titan();
  StreamingChecker Checker;
  litmus::LitmusRunner Runner(Chip, 5);
  litmus::LitmusRunner::RunOpts Opts;
  Opts.Sink = &Checker;
  Checker.begin();
  (void)Runner.runOnce(*litmus::findCatalogProgram("MP"), 64,
                       litmus::LitmusRunner::MicroStress::none(), Opts);
  (void)Checker.finish();
  const uint64_t FirstConsumed = Checker.consumedEvents();
  ASSERT_GT(FirstConsumed, 0u);
  Checker.begin();
  EXPECT_EQ(Checker.consumedEvents(), 0u);
  EXPECT_EQ(Checker.peakLiveEvents(), 0u);
  EXPECT_EQ(Checker.retiredEvents(), 0u);
  EXPECT_EQ(Checker.edgeOps(), 0u);
  EXPECT_EQ(Checker.peakDegree(), 0u);
  (void)Runner.runOnce(*litmus::findCatalogProgram("MP"), 64,
                       litmus::LitmusRunner::MicroStress::none(), Opts);
  const StreamVerdict &R = Checker.finish();
  EXPECT_TRUE(R.AxiomsOk) << R.AxiomViolation;
  EXPECT_EQ(Checker.consumedEvents(), FirstConsumed);
  EXPECT_GT(Checker.edgeOps(), 0u);
}

//===----------------------------------------------------------------------===//
// Exact work pins
//===----------------------------------------------------------------------===//

namespace {

/// The deterministic work of a set of checked runs: what the streaming
/// checker consumed and spent, and what the memory system did.
struct WorkCounts {
  uint64_t Events = 0;       ///< StreamingChecker::consumedEvents().
  uint64_t EdgeOps = 0;      ///< StreamingChecker::edgeOps().
  uint64_t Loads = 0;        ///< MemStats::Loads.
  uint64_t Stores = 0;       ///< MemStats::Stores.
  uint64_t Atomics = 0;      ///< MemStats::Atomics.
  uint64_t Fences = 0;       ///< MemStats::DeviceFences + BlockFences.
  uint64_t Drained = 0;      ///< MemStats::DrainedStores.
  uint64_t ForcedDrains = 0; ///< MemStats::ForcedSelfDrains.

  bool operator==(const WorkCounts &) const = default;

  void add(const StreamingChecker &C) {
    Events += C.consumedEvents();
    EdgeOps += C.edgeOps();
  }
  void add(const sim::MemStats &M) {
    Loads += M.Loads;
    Stores += M.Stores;
    Atomics += M.Atomics;
    Fences += M.DeviceFences + M.BlockFences;
    Drained += M.DrainedStores;
    ForcedDrains += M.ForcedSelfDrains;
  }
  /// The table row that pins these counts.
  std::string row() const {
    std::string Row = "{";
    for (const uint64_t V : {Events, EdgeOps, Loads, Stores, Atomics, Fences,
                             Drained, ForcedDrains})
      Row += (Row.size() > 1 ? ", " : "") + std::to_string(V);
    return Row + "}";
  }
};

/// One checked titan run of the \p AppIndex-th application under each of
/// no-str+ and cache-str- (seed deriveStream(99, 2 * AppIndex + EnvIndex)),
/// summed; the larger of the two runs' StreamingChecker::peakRows() goes
/// to \p PeakRows.
WorkCounts checkedAppWork(size_t AppIndex, size_t &PeakRows) {
  const apps::AppKind App = apps::AllAppKinds[AppIndex];
  const sim::ChipProfile &Chip = titan();
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  const stress::Environment Envs[] = {{stress::StressKind::None, true},
                                      {stress::StressKind::Cache, false}};
  StreamingChecker Checker;
  sim::ExecutionContext Ctx;
  WorkCounts W;
  PeakRows = 0;
  for (size_t E = 0; E != std::size(Envs); ++E) {
    Checker.begin();
    Ctx.requestStreaming(&Checker);
    (void)apps::runApplicationOnce(Ctx, App, Chip, Envs[E], Tuned,
                                   /*Policy=*/nullptr,
                                   Rng::deriveStream(99, 2 * AppIndex + E));
    Ctx.requestStreaming(nullptr);
    const StreamVerdict &V = Checker.finish();
    EXPECT_TRUE(V.AxiomsOk) << apps::appName(App) << " " << Envs[E].name()
                            << ": " << V.AxiomViolation;
    W.add(Checker);
    W.add(Ctx.memory().stats());
    PeakRows = std::max(PeakRows, Checker.peakRows());
  }
  return W;
}

/// 200 stressed titan MP runs at seed 42, 25 at each per-bank stress
/// location, with \p Opts. With \p W non-null a StreamingChecker is each
/// run's sink and its work is added to \p W. Returns the per-run weak
/// verdicts.
std::vector<uint8_t> stressedMpRuns(litmus::LitmusRunner::RunOpts Opts,
                                    WorkCounts *W = nullptr) {
  const sim::ChipProfile &Chip = titan();
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  const litmus::Program &P = *litmus::findCatalogProgram("MP");
  StreamingChecker Checker;
  if (W)
    Opts.Sink = &Checker;
  litmus::LitmusRunner Runner(Chip, /*Seed=*/42);
  std::vector<uint8_t> Weak;
  for (unsigned Region = 0; Region != Chip.NumBanks; ++Region) {
    const auto S = litmus::LitmusRunner::MicroStress::at(
        Tuned.Seq, Region * Tuned.PatchWords);
    for (unsigned I = 0; I != 25; ++I) {
      Checker.begin();
      Weak.push_back(Runner.runOnce(P, 2 * Chip.PatchSizeWords, S, Opts));
      if (!W)
        continue;
      const StreamVerdict &V = Checker.finish();
      EXPECT_TRUE(V.AxiomsOk) << V.AxiomViolation;
      EXPECT_EQ(V.weak(), Weak.back() != 0) << "region " << Region;
      EXPECT_EQ(Checker.peakRows(), 0u) << "a litmus list was indexed";
      W->add(Checker);
    }
  }
  return Weak;
}

} // namespace

// The exact work of fixed checked runs, on both engines. Checked runs are
// never cut short, so the compiled engine and the reference engine must
// do the same work to the unit. The counts are machine independent, so
// they gate performance where wall time cannot: a splice that densifies,
// an extra store or fence in a lowering, or an engine that diverges from
// its reference fails here on any host. A change that moves a pin on
// purpose re-pins it from the printed actual row and says why.
//
// Apps: one checked run of each application under no-str+ and under
// cache-str-, summed per app. MP: 200 stressed runs with the checker as
// their sink (its cost per checked litmus run, in edge operations); their
// weak sequence must equal the unchecked and the traced one — observation
// never steers the simulation.
TEST(StreamingMemoryBoundTest, CheckedWorkIsPinnedOnBothEngines) {
  // {events, edge ops, loads, stores, atomics, fences, drained stores,
  //  forced self-drains}, in AllAppKinds order.
  const WorkCounts AppPins[] = {
      {4780, 70463, 512, 768, 2204, 0, 768, 0},      // cbe-ht
      {3141, 2891, 1288, 264, 28, 256, 264, 0},      // cbe-dot
      {2510, 15049, 844, 192, 512, 0, 192, 0},       // ct-octree
      {68361, 5296548, 2816, 192, 64951, 0, 192, 0}, // tpo-tm
      {3191, 2110, 1040, 530, 16, 528, 530, 0},      // sdk-red
      {3177, 2110, 1040, 530, 16, 512, 530, 0},      // sdk-red-nf
      {7008, 10998, 2159, 1616, 0, 1056, 1616, 16},  // cub-scan
      {6966, 10910, 2148, 1616, 0, 1024, 1616, 24},  // cub-scan-nf
      {15385, 48224, 12335, 802, 241, 45, 802, 1},   // ls-bh
      {15029, 45116, 11922, 838, 271, 0, 838, 2},    // ls-bh-nf
  };
  // The most adjacency rows in use at once (peakRows(), the larger run),
  // in the same order: the hub lists indexed together. MP's lists never
  // reach a row (stressedMpRuns checks each run).
  const size_t RowPins[] = {226, 0, 133, 1085, 0, 0, 8, 8, 303, 322};
  // MP: {events, edge ops} (its memory counts are not observable through
  // the runner) and the number of weak runs.
  const WorkCounts MpPin = {2000, 1847};
  const size_t MpWeakPin = 6;
  ASSERT_EQ(std::size(AppPins), apps::AllAppKinds.size())
      << "pin every app";
  ASSERT_EQ(std::size(RowPins), apps::AllAppKinds.size())
      << "pin every app's rows";

  for (const sim::EngineMode Mode :
       {sim::EngineMode::Auto, sim::EngineMode::Scalar}) {
    EngineModeGuard Guard(Mode);
    const std::string Engine = sim::engineModeName(Mode);
    for (size_t A = 0; A != std::size(AppPins); ++A) {
      size_t Rows = 0;
      const WorkCounts Got = checkedAppWork(A, Rows);
      EXPECT_EQ(Got, AppPins[A])
          << apps::appName(apps::AllAppKinds[A]) << " on " << Engine
          << ": actual " << Got.row();
      EXPECT_EQ(Rows, RowPins[A])
          << apps::appName(apps::AllAppKinds[A]) << " on " << Engine;
    }

    WorkCounts Got;
    const std::vector<uint8_t> Weak = stressedMpRuns({}, &Got);
    EXPECT_EQ(Got, MpPin) << "MP on " << Engine << ": actual " << Got.row();
    EXPECT_EQ(static_cast<size_t>(std::count(Weak.begin(), Weak.end(), 1)),
              MpWeakPin)
        << "MP on " << Engine;
    EXPECT_EQ(stressedMpRuns({}), Weak)
        << "MP on " << Engine << ": the checker perturbed the runs";
    litmus::LitmusRunner::RunOpts Traced;
    Traced.Trace = true;
    EXPECT_EQ(stressedMpRuns(Traced), Weak)
        << "MP on " << Engine << ": tracing perturbed the runs";
  }
}

//===----------------------------------------------------------------------===//
// Mutation tests: corrupted traces must be rejected identically
//===----------------------------------------------------------------------===//

namespace {

/// One recorded (unstressed, deterministically SC at this seed) MP run.
std::vector<TraceEvent> recordedMpTrace() {
  litmus::LitmusRunner Runner(titan(), /*Seed=*/5);
  litmus::LitmusRunner::RunOpts Opts;
  Opts.Trace = true;
  (void)Runner.runOnce(*litmus::findCatalogProgram("MP"), 64,
                       litmus::LitmusRunner::MicroStress::none(), Opts);
  return Runner.trace().events();
}

/// Both checkers on \p Events: must reject, with identical messages whose
/// axiom tag (the text before ':') is \p Tag.
void expectBothRejectWith(const std::vector<TraceEvent> &Events,
                          const std::string &Tag, const char *What) {
  ConsistencyChecker PostHoc;
  StreamingChecker Stream;
  const CheckResult A = PostHoc.check(Events);
  const StreamVerdict &B = Stream.checkAll(Events);
  ASSERT_FALSE(A.AxiomsOk) << What;
  ASSERT_FALSE(B.AxiomsOk) << What;
  EXPECT_EQ(A.AxiomViolation, B.AxiomViolation) << What;
  EXPECT_EQ(A.ViolatingA, B.ViolatingA) << What;
  EXPECT_EQ(A.ViolatingB, B.ViolatingB) << What;
  EXPECT_EQ(A.AxiomViolation.substr(0, Tag.size()), Tag)
      << What << ": " << A.AxiomViolation;
}

} // namespace

TEST(StreamingMutationTest, DroppedDrainRejected) {
  // Erase the last store-drain: that store is still buffered when the run
  // ends, so the kernel-boundary drain obligation fires in both checkers.
  std::vector<TraceEvent> Events = recordedMpTrace();
  bool Mutated = false;
  for (size_t I = Events.size(); I-- && !Mutated;)
    if (Events[I].Kind == TraceEventKind::StoreDrain) {
      Events.erase(Events.begin() + static_cast<ptrdiff_t>(I));
      Mutated = true;
    }
  ASSERT_TRUE(Mutated);
  expectBothRejectWith(Events, "fence-drain", "dropped drain");
}

TEST(StreamingMutationTest, ReorderedSameBankIssueRejected) {
  // Swap two same-(thread, bank) store issues: the drains still arrive in
  // the original order, violating the bank FIFO in both checkers.
  std::vector<TraceEvent> Events = recordedMpTrace();
  bool Mutated = false;
  for (size_t I = 0; I != Events.size() && !Mutated; ++I)
    for (size_t J = I + 1; J != Events.size() && !Mutated; ++J)
      if (Events[I].Kind == TraceEventKind::StoreIssue &&
          Events[J].Kind == TraceEventKind::StoreIssue &&
          Events[I].Tid == Events[J].Tid &&
          Events[I].Bank == Events[J].Bank) {
        std::swap(Events[I], Events[J]);
        Mutated = true;
      }
  ASSERT_TRUE(Mutated) << "no same-bank issue pair to reorder";
  expectBothRejectWith(Events, "same-bank FIFO", "reordered issue");
}

TEST(StreamingMutationTest, ReboundLoadSourceRejected) {
  // Rebind a memory load to a value no write ever produced: the
  // read-value axiom rejects it in both checkers.
  std::vector<TraceEvent> Events = recordedMpTrace();
  bool Mutated = false;
  for (TraceEvent &E : Events)
    if (!Mutated && E.Kind == TraceEventKind::LoadBind &&
        E.Source == LoadSource::Memory) {
      E.V = 999;
      Mutated = true;
    }
  ASSERT_TRUE(Mutated);
  expectBothRejectWith(Events, "read-value", "rebound load");
}

//===----------------------------------------------------------------------===//
// Every replay axiom against hand-derived expectations
//===----------------------------------------------------------------------===//

namespace {

/// One hand-built trace that violates one replay or end-of-run axiom: the
/// full message and the violating event pair both checkers must report.
struct AxiomCase {
  const char *Message;
  std::vector<TraceEvent> Events;
  size_t A, B;
};

// Event builders: thread T runs in block T unless a block is given.
constexpr sim::Addr X = 0, Y = 64;
TraceEvent st(unsigned T, unsigned Bank, sim::Addr A, sim::Word V,
              uint64_t Id) {
  return {TraceEventKind::StoreIssue, LoadSource::Memory, false, T, T, Bank,
          A, V, Id, 0};
}
TraceEvent drain(unsigned T, unsigned Bank, sim::Addr A, sim::Word V,
                 uint64_t Id, bool Applied = true) {
  return {TraceEventKind::StoreDrain, LoadSource::Memory, Applied, T, T,
          Bank, A, V, Id, 0};
}
TraceEvent ld(unsigned T, unsigned Bank, sim::Addr A, sim::Word V,
              LoadSource Src = LoadSource::Memory) {
  return {TraceEventKind::LoadBind, Src, false, T, T, Bank, A, V, 0, 0};
}
TraceEvent ldIn(unsigned Block, unsigned T, unsigned Bank, sim::Addr A,
                sim::Word V, LoadSource Src) {
  TraceEvent E = ld(T, Bank, A, V, Src);
  E.Block = Block;
  return E;
}
TraceEvent asyncIssue(unsigned T, unsigned Bank, sim::Addr A,
                      uint64_t Ticket) {
  return {TraceEventKind::AsyncIssue, LoadSource::Memory, false, T, T, Bank,
          A, 0, Ticket, 0};
}
TraceEvent asyncBind(unsigned T, unsigned Bank, sim::Addr A, sim::Word V,
                     uint64_t Ticket) {
  return {TraceEventKind::AsyncBind, LoadSource::Memory, false, T, T, Bank,
          A, V, Ticket, 0};
}
TraceEvent atomic(unsigned T, unsigned Bank, sim::Addr A, sim::Word Old,
                  sim::Word New) {
  return {TraceEventKind::Atomic, LoadSource::Memory, true, T, T, Bank, A,
          New, Old, 0};
}
TraceEvent fenceDevice(unsigned T) {
  return {TraceEventKind::FenceDevice, LoadSource::Memory, false, T, T, 0, 0,
          0, 0, 0};
}
/// Thread \p T's buffered store \p Id becomes visible to block \p Block.
TraceEvent promote(unsigned T, unsigned Block, unsigned Bank, sim::Addr A,
                   sim::Word V, uint64_t Id) {
  return {TraceEventKind::StorePromote, LoadSource::Memory, false, T, Block,
          Bank, A, V, Id, 0};
}
TraceEvent hostWrite(sim::Addr A, sim::Word V, uint64_t Id) {
  return {TraceEventKind::HostWrite, LoadSource::Memory, false, 0, 0, 0, A, V,
          Id, 0};
}

std::vector<AxiomCase> axiomCases() {
  const LoadSource Fwd = LoadSource::Forward, Ovl = LoadSource::Overlay;
  const LoadSource MemSup = LoadSource::MemorySuperseded;
  const LoadSource OvlSup = LoadSource::OverlaySuperseded;
  // Thread 1's store to x (id 2) reaches memory past thread 0's buffered
  // st x 1 (id 1); then one whose id-2 store is promoted to block 0.
  const std::vector<TraceEvent> Superseded = {
      st(0, 0, X, 1, 1), st(1, 0, X, 2, 2), drain(1, 0, X, 2, 2)};
  const std::vector<TraceEvent> Overlaid = {
      st(0, 0, X, 1, 1), st(1, 0, X, 2, 2), promote(1, 0, 0, X, 2, 2)};
  const auto plus = [](std::vector<TraceEvent> Es, const TraceEvent &E) {
    Es.push_back(E);
    return Es;
  };
  return {
      {"same-bank issue order: store issued while a split-phase load is "
       "pending on its bank",
       {asyncIssue(0, 0, X, 1), st(0, 0, Y, 1, 1)}, 1, 1},
      {"same-bank FIFO: a store drained out of its bank's issue order",
       {st(0, 0, X, 1, 1), st(0, 0, Y, 2, 2), drain(0, 0, Y, 2, 2)}, 0, 2},
      {"same-bank FIFO: a store drained out of its bank's issue order",
       {drain(0, 0, X, 1, 1)}, 0, 0},
      {"coherence-per-location: a drain was applied/dropped against the "
       "per-address store order",
       {st(0, 0, X, 1, 1), drain(0, 0, X, 1, 1, /*Applied=*/false)}, 0, 1},
      {"self-coherence: a load bound from memory while the thread still "
       "buffered stores on the load's bank",
       {st(0, 0, X, 1, 1), ld(0, 0, Y, 0)}, 0, 1},
      {"forwarding: a load bound from memory past a live block-visible value",
       {st(0, 0, X, 1, 1), promote(0, 0, 0, X, 1, 1),
        ldIn(0, 1, 0, X, 1, LoadSource::Memory)},
       0, 2},
      {"read-value: a load bound a value no write produced",
       {ld(0, 0, X, 5)}, 0, 0},
      {"read-value: a load bound a value no write produced",
       {st(0, 0, X, 1, 1), drain(0, 0, X, 1, 1), ld(1, 0, X, 5)}, 0, 2},
      {"forwarding: a load forwarded with no buffered store to its address",
       {ld(0, 0, X, 0, Fwd)}, 0, 0},
      {"forwarding: a load forwarded a value its newest buffered store did "
       "not write",
       {st(0, 0, X, 1, 1), ld(0, 0, X, 2, Fwd)}, 0, 1},
      {"coherence-per-location: a load forwarded a store that newer "
       "globally visible writes supersede",
       plus(Superseded, ld(0, 0, X, 1, Fwd)), 0, 3},
      {"coherence-per-location: a load forwarded a store that a newer "
       "block-visible value supersedes",
       plus(Overlaid, ld(0, 0, X, 1, Fwd)), 0, 3},
      {"coherence-per-location: a superseded-forward load without a "
       "superseding write",
       {ld(0, 0, X, 0, MemSup)}, 0, 0},
      {"read-value: a superseded-forward load bound a value memory does not "
       "hold",
       plus(Superseded, ld(0, 0, X, 7, MemSup)), 1, 3},
      {"coherence-per-location: a superseded-forward load without a newer "
       "block-visible value",
       {ld(0, 0, X, 0, OvlSup)}, 0, 0},
      {"read-value: a superseded-forward load bound a value the block "
       "overlay does not hold",
       plus(Overlaid, ld(0, 0, X, 7, OvlSup)), 1, 3},
      {"self-coherence: a load bound from the block overlay while the thread "
       "still buffered stores on the bank",
       {st(0, 0, X, 1, 1), ld(0, 0, Y, 0, Ovl)}, 0, 1},
      {"forwarding: a load bound from the block overlay with no live value "
       "for its block",
       {ld(0, 0, X, 0, Ovl)}, 0, 0},
      {"read-value: a load bound a value the block overlay does not hold",
       {st(0, 0, X, 1, 1), promote(0, 1, 0, X, 1, 1), ld(1, 0, X, 9, Ovl)},
       0, 2},
      {"causality: a split-phase load completed without an issue",
       {asyncBind(0, 0, X, 0, 7)}, 0, 0},
      {"read-value: a split-phase load bound a value memory does not hold",
       {asyncIssue(0, 0, X, 1), asyncBind(0, 0, X, 5, 1)}, 1, 1},
      {"self-coherence: an atomic executed while the thread still buffered "
       "stores on its bank",
       {st(0, 0, X, 1, 1), atomic(0, 0, Y, 0, 1)}, 0, 1},
      {"same-bank issue order: an atomic executed while a split-phase load "
       "is pending on its bank",
       {asyncIssue(0, 0, X, 1), atomic(0, 0, Y, 0, 1)}, 1, 1},
      {"read-value: an atomic read a value memory does not hold",
       {hostWrite(X, 5, 1), atomic(0, 0, X, 3, 4)}, 0, 1},
      {"fence-drain: a device fence completed with the thread's stores "
       "still buffered",
       {st(0, 0, X, 1, 1), fenceDevice(0)}, 1, 1},
      {"fence-drain: a device fence completed with the thread's split-phase "
       "loads still pending",
       {asyncIssue(0, 0, X, 1), fenceDevice(0)}, 1, 1},
      {"forwarding: a block fence promoted a store that is not buffered",
       {promote(0, 0, 0, X, 1, 1)}, 0, 0},
      // End of run: the pair is the last event, twice.
      {"fence-drain: stores were still buffered at the end of the run (the "
       "kernel boundary must drain them)",
       {st(0, 0, X, 1, 1), ld(1, 1, Y, 0)}, 1, 1},
      {"fence-drain: split-phase loads were still pending at the end of the "
       "run",
       {asyncIssue(0, 0, X, 1), ld(1, 1, Y, 0)}, 1, 1},
  };
}

} // namespace

// Each replay and end-of-run message, provoked by a hand-built trace: both
// checkers must report that full message and the hand-derived violating
// pair, and the streaming verdict must carry copies of those two events.
TEST(ReplayAxiomTest, EveryViolationReportsItsHandDerivedPair) {
  ConsistencyChecker PostHoc;
  StreamingChecker Stream;
  std::set<std::string> Messages;
  for (const AxiomCase &C : axiomCases()) {
    SCOPED_TRACE(C.Message);
    Messages.insert(C.Message);
    const CheckResult A = PostHoc.check(C.Events);
    const StreamVerdict &B = Stream.checkAll(C.Events);
    EXPECT_FALSE(A.AxiomsOk);
    EXPECT_EQ(A.AxiomViolation, C.Message);
    EXPECT_EQ(A.ViolatingA, C.A);
    EXPECT_EQ(A.ViolatingB, C.B);
    EXPECT_FALSE(B.AxiomsOk);
    EXPECT_EQ(B.AxiomViolation, C.Message);
    EXPECT_EQ(B.ViolatingA, C.A);
    EXPECT_EQ(B.ViolatingB, C.B);
    EXPECT_EQ(model::describeEvent(B.EventA, B.ViolatingA),
              model::describeEvent(C.Events, C.A));
    EXPECT_EQ(model::describeEvent(B.EventB, B.ViolatingB),
              model::describeEvent(C.Events, C.B));
  }
  // 25 replay messages and 2 end-of-run ones.
  EXPECT_EQ(Messages.size(), 27u);
}

//===----------------------------------------------------------------------===//
// Indexed hub lists: host-write neighbours and thread ids
//===----------------------------------------------------------------------===//

namespace {

/// Hub writes whose lists outgrow a scan (more than 8 lanes), with
/// host-write neighbours in those lists, retired through splices, and a
/// weak cycle that closes through the splices' shortcuts. Thread K has id
/// \p Tid(K); bank 0 holds x, 1 y, z and u, 2 v.
///
///   e0-e9     t23..t32: ld u = 0               (lanes 0-9, so lane 32
///                                               comes only at e51)
///   e10       host z = 1                       (hz: out-list indexed by
///   e11-e19   t1..t9: ld z = 1                  e19)
///   e20       host x = 1                       (hx1)
///   e21       t1: st v = 1, buffered to e55    (s1)
///   e22       host z = 2: co hz -> e22; e11 retires, and its splice meets
///             that edge again: host to host, found by scanning hz's
///             indexed list
///   e23       t21: st x = 9, buffered to e49   (keeps x's window open)
///   e24-e33   t1..t10: ld x = 1 from hx1       (hx1's out-list indexed)
///   e34, e35  t0: st x = 2, drained            (w's in-list indexed: fr
///                                               from 10 lanes, co from
///                                               hx1)
///   e36, e37  t0: ld y = 0, ld x = 2
///   e38-e47   t11..t20: ld x = 2 from w        (w's out-list indexed)
///   e48       host y = 5: e36 retires, splicing w -> e48
///   e49       t21's store drains, dropped: co hx1 -> e23 -> w; hx1
///             retires
///   e50       host x = 7: co w -> e50; w retires through a splice that
///             gives e24..e33 indexed lists of lane edges and edges to
///             both host writes
///   e51       t33: ld u = 0: lane 32 widens every row in use
///   e52       t21: ld y = 5: e23 retires, and its splice meets the edges
///             of w's splice again, through the widened rows and scans
///   e53, e54  t22: ld x = 7, ld v = 0
///   e55       s1 drains, closing s1 -po-> e24 -fr-> w -co-> e50 -rf->
///             e53 -po-> e54 -fr-> s1; w is gone, so the streaming
///             witness runs through shortcuts of the splices
std::vector<TraceEvent> hubTrace(unsigned (*Tid)(unsigned)) {
  constexpr sim::Addr Z = 32, U = 96, V = 128;
  const auto Thread = [&](TraceEvent E, unsigned K) {
    E.Tid = E.Block = Tid(K);
    return E;
  };
  std::vector<TraceEvent> Es;
  for (unsigned K = 23; K <= 32; ++K)
    Es.push_back(Thread(ld(0, 1, U, 0), K));
  Es.push_back(hostWrite(Z, 1, 1));
  for (unsigned K = 1; K <= 9; ++K)
    Es.push_back(Thread(ld(0, 1, Z, 1), K));
  Es.push_back(hostWrite(X, 1, 2));
  Es.push_back(Thread(st(0, 2, V, 1, 3), 1));
  Es.push_back(hostWrite(Z, 2, 4));
  Es.push_back(Thread(st(0, 0, X, 9, 5), 21));
  for (unsigned K = 1; K <= 10; ++K)
    Es.push_back(Thread(ld(0, 0, X, 1), K));
  Es.push_back(Thread(st(0, 0, X, 2, 6), 0));
  Es.push_back(Thread(drain(0, 0, X, 2, 6), 0));
  Es.push_back(Thread(ld(0, 1, Y, 0), 0));
  Es.push_back(Thread(ld(0, 0, X, 2), 0));
  for (unsigned K = 11; K <= 20; ++K)
    Es.push_back(Thread(ld(0, 0, X, 2), K));
  Es.push_back(hostWrite(Y, 5, 7));
  Es.push_back(Thread(drain(0, 0, X, 9, 5, /*Applied=*/false), 21));
  Es.push_back(hostWrite(X, 7, 8));
  Es.push_back(Thread(ld(0, 1, U, 0), 33));
  Es.push_back(Thread(ld(0, 1, Y, 5), 21));
  Es.push_back(Thread(ld(0, 0, X, 7), 22));
  Es.push_back(Thread(ld(0, 2, V, 0), 22));
  Es.push_back(Thread(drain(0, 2, V, 1, 3), 1));
  return Es;
}

unsigned smallTid(unsigned K) { return K; }
unsigned hugeTid(unsigned K) { return 0xFFFFFFF0u - K; }

} // namespace

// Indexed lists are rows by lane, but a host write has no lane: its edges
// in an indexed list are found by a scan. And a lane named late widens
// every row in use. Both checkers must call the run weak, every step of
// the streaming witness must be a path in the trace, and the witness and
// the edge work must be what they were when indexed lists were a hash
// keyed by lane or host-write slot; the rows' high-water mark is pinned
// too.
TEST(StreamingHubTest, HostWriteNeighboursOfAnIndexedListSurviveItsSplice) {
  const std::vector<TraceEvent> Events = hubTrace(smallTid);
  ConsistencyChecker PostHoc;
  StreamingChecker Stream;
  const CheckResult A = PostHoc.check(Events);
  ASSERT_TRUE(A.AxiomsOk) << A.AxiomViolation;
  EXPECT_FALSE(A.Sc);
  const StreamVerdict &B = Stream.checkAll(Events);
  ASSERT_TRUE(B.AxiomsOk) << B.AxiomViolation;
  ASSERT_TRUE(B.weak());
  std::string Witness;
  for (size_t K = 0; K != B.Cycle.size(); ++K) {
    const size_t From = B.Cycle[K].first;
    const size_t To = B.Cycle[(K + 1) % B.Cycle.size()].first;
    EXPECT_TRUE(reaches(PostHoc.edges(), Events.size(), From, To))
        << "witness step e" << From << " -> e" << To;
    // Appended piecewise: GCC 12 warns falsely (-Wrestrict) on operator+.
    Witness += "e";
    Witness += std::to_string(From);
    Witness += " -";
    Witness += model::edgeKindName(B.Cycle[K].second);
    Witness += "-> ";
  }
  EXPECT_EQ(Witness,
            "e54 -fr-> e21 -po-> e24 -rf-> e38 -fr-> e50 -rf-> e53 -po-> ");
  EXPECT_EQ(B.ViolatingA, 54u);
  EXPECT_EQ(B.ViolatingB, 21u);
  EXPECT_EQ(Stream.edgeOps(), 328u);
  EXPECT_EQ(Stream.retiredEvents(), 14u);
  EXPECT_EQ(Stream.peakRows(), 26u);
}

// Thread ids only name lanes: the same trace with ids near 2^32 must give
// the same verdicts, witness and work, and no table may be sized by those
// ids (one would take 16 GiB).
TEST(StreamingHubTest, HugeThreadIdsGetDenseLanes) {
  const std::vector<TraceEvent> Small = hubTrace(smallTid);
  const std::vector<TraceEvent> Huge = hubTrace(hugeTid);
  ConsistencyChecker PostHoc;
  StreamingChecker Stream;
  const CheckResult A = PostHoc.check(Huge);
  ASSERT_TRUE(A.AxiomsOk) << A.AxiomViolation;
  EXPECT_FALSE(A.Sc);
  EXPECT_EQ(A.Cycle, PostHoc.check(Small).Cycle);
  const StreamVerdict Want = Stream.checkAll(Small);
  const uint64_t WantOps = Stream.edgeOps();
  const size_t WantRows = Stream.peakRows();
  const StreamVerdict &Got = Stream.checkAll(Huge);
  ASSERT_TRUE(Got.AxiomsOk) << Got.AxiomViolation;
  EXPECT_TRUE(Got.weak());
  EXPECT_EQ(Got.Cycle, Want.Cycle);
  EXPECT_EQ(Stream.edgeOps(), WantOps);
  EXPECT_EQ(Stream.peakRows(), WantRows);
  // The lanes still keep the threads apart: after e21, t1 buffers a store
  // and t0 nothing, so a device fence of t1 there is a violation and one
  // of t0 is not.
  for (const unsigned K : {0u, 1u}) {
    std::vector<TraceEvent> Fenced = Huge;
    Fenced.insert(Fenced.begin() + 22, fenceDevice(hugeTid(K)));
    const CheckResult C = PostHoc.check(Fenced);
    EXPECT_EQ(C.AxiomsOk, K == 0) << "t" << K << ": " << C.AxiomViolation;
    EXPECT_EQ(Stream.checkAll(Fenced).AxiomsOk, K == 0) << "t" << K;
    if (K == 1) {
      EXPECT_EQ(C.ViolatingA, 22u);
    }
  }
}

namespace {

/// The hub trace with every address moved up by \p Base, and thread 22
/// running two split-phase loads at once (tickets \p TicketA on u, then
/// \p TicketB on y, bound in the other order) just before s1's drain
/// closes the cycle.
std::vector<TraceEvent> farTrace(sim::Addr Base, uint64_t TicketA,
                                 uint64_t TicketB) {
  constexpr sim::Addr U = 96;
  std::vector<TraceEvent> Es = hubTrace(smallTid);
  for (TraceEvent &E : Es)
    E.A += Base;
  const TraceEvent Closing = Es.back();
  Es.pop_back();
  Es.push_back(asyncIssue(22, 1, Base + U, TicketA));
  Es.push_back(asyncIssue(22, 1, Base + Y, TicketB));
  Es.push_back(asyncBind(22, 1, Base + Y, 5, TicketB));
  Es.push_back(asyncBind(22, 1, Base + U, 0, TicketA));
  Es.push_back(Closing);
  return Es;
}

} // namespace

// Addresses only name the replay's records and tickets only name pending
// loads: the trace with addresses just below 2^32, and two pending
// tickets past 2^32 that agree in their low 32 bits, must give the same
// verdicts, witness, violating pair and work as at small values, and no
// table may be sized by an address (one would take 16 GiB).
TEST(StreamingHubTest, HugeAddressesAndTicketsGetDenseRecords) {
  constexpr sim::Addr Far = 0xFFFFFF00u;
  constexpr uint64_t TicketA = 0xFFFFFFFFu, TicketB = 0x1FFFFFFFFu;
  const std::vector<TraceEvent> Small = farTrace(0, 1, 2);
  const std::vector<TraceEvent> Huge = farTrace(Far, TicketA, TicketB);
  ConsistencyChecker PostHoc;
  StreamingChecker Stream;
  const CheckResult WantPh = PostHoc.check(Small);
  ASSERT_TRUE(WantPh.AxiomsOk) << WantPh.AxiomViolation;
  EXPECT_FALSE(WantPh.Sc);
  const CheckResult GotPh = PostHoc.check(Huge);
  ASSERT_TRUE(GotPh.AxiomsOk) << GotPh.AxiomViolation;
  EXPECT_FALSE(GotPh.Sc);
  EXPECT_EQ(GotPh.Cycle, WantPh.Cycle);
  EXPECT_EQ(GotPh.ViolatingA, WantPh.ViolatingA);
  EXPECT_EQ(GotPh.ViolatingB, WantPh.ViolatingB);
  const StreamVerdict Want = Stream.checkAll(Small);
  const uint64_t WantOps = Stream.edgeOps();
  const uint64_t WantRetired = Stream.retiredEvents();
  ASSERT_TRUE(Want.weak());
  const StreamVerdict &Got = Stream.checkAll(Huge);
  ASSERT_TRUE(Got.AxiomsOk) << Got.AxiomViolation;
  EXPECT_TRUE(Got.weak());
  EXPECT_EQ(Got.Cycle, Want.Cycle);
  EXPECT_EQ(Got.ViolatingA, Want.ViolatingA);
  EXPECT_EQ(Got.ViolatingB, Want.ViolatingB);
  EXPECT_EQ(Stream.edgeOps(), WantOps);
  EXPECT_EQ(Stream.retiredEvents(), WantRetired);
  // The tickets are kept whole: a bind of one that matches a pending
  // ticket only in its low 32 bits has no issue.
  std::vector<TraceEvent> Stray = Huge;
  const size_t Bind = Stray.size() - 3;
  Stray[Bind].Id = TicketA + (uint64_t{1} << 33);
  for (const bool Streamed : {false, true}) {
    const std::string Msg = Streamed
                                ? Stream.checkAll(Stray).AxiomViolation
                                : PostHoc.check(Stray).AxiomViolation;
    EXPECT_EQ(Msg, "causality: a split-phase load completed without an issue")
        << (Streamed ? "streaming" : "post-hoc");
  }
}

//===----------------------------------------------------------------------===//
// Allocation-free steady state
//===----------------------------------------------------------------------===//

namespace {

/// Heap allocations this thread made through operator new, which this
/// binary replaces below to count them.
thread_local uint64_t HeapAllocs = 0;

/// Thread 0 stores to one of four addresses, promotes the store to its
/// block and drains it; thread 1, in the same block, reads each store
/// from the overlay while it is buffered, from memory after, and by a
/// split-phase load issued before the drain and bound after it. Seven
/// events a round.
std::vector<TraceEvent> promoteDrainStream(size_t Rounds) {
  std::vector<TraceEvent> Es;
  for (uint64_t Id = 1; Id <= Rounds; ++Id) {
    const sim::Addr A = 32 * static_cast<sim::Addr>(Id % 4);
    const auto V = static_cast<sim::Word>(Id);
    Es.push_back(st(0, 0, A, V, Id));
    Es.push_back(promote(0, 0, 0, A, V, Id));
    Es.push_back(ldIn(0, 1, 0, A, V, LoadSource::Overlay));
    Es.push_back(asyncIssue(1, 1, A, Id));
    Es.push_back(drain(0, 0, A, V, Id));
    Es.push_back(ldIn(0, 1, 0, A, V, LoadSource::Memory));
    Es.push_back(asyncBind(1, 1, A, V, Id));
  }
  return Es;
}

} // namespace

// Kept out of line: inlined, GCC would pair the callers' new with free.
__attribute__((noinline)) void *operator new(std::size_t N) {
  ++HeapAllocs;
  if (void *P = std::malloc(N == 0 ? 1 : N))
    return P;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void *P) noexcept {
  std::free(P);
}
__attribute__((noinline)) void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}

// Harden, verify and shrink are streams of checked litmus runs, each on
// one runner and one checker. Once warm, such a run (engine, stress
// source and streaming oracle together) must not touch the heap: fenced
// and unfenced MP, SB and IRIW, 500 runs each under tuned stress.
TEST(StreamingAllocationTest, CheckedLitmusRunsAllocateNothing) {
  const sim::ChipProfile &Chip = titan();
  const auto Stress = litmus::LitmusRunner::MicroStress::tuned(Chip, 0);
  for (const char *Name : {"MP", "SB", "IRIW"})
    for (const bool Fenced : {false, true}) {
      SCOPED_TRACE(std::string(Name) + (Fenced ? " fenced" : " unfenced"));
      const litmus::Program *P = litmus::findCatalogProgram(Name);
      ASSERT_NE(P, nullptr);
      litmus::LitmusRunner Runner(Chip, 23);
      StreamingChecker Checker;
      litmus::LitmusRunOpts Opts;
      Opts.WithFences = Fenced;
      Opts.Sink = &Checker;
      unsigned Weak = 0;
      uint64_t Events = 0;
      const auto Run = [&] {
        Checker.begin();
        (void)Runner.runOnce(*P, /*Distance=*/128, Stress, Opts);
        const StreamVerdict &V = Checker.finish();
        EXPECT_TRUE(V.AxiomsOk) << V.AxiomViolation;
        Weak += V.weak();
        Events += Checker.consumedEvents();
      };
      for (unsigned I = 0; I != 100; ++I)
        Run();
      const uint64_t Before = HeapAllocs;
      for (unsigned I = 0; I != 500; ++I)
        Run();
      EXPECT_EQ(HeapAllocs - Before, 0u);
      EXPECT_GT(Events, 600u * 8); // Every run was checked.
      if (Fenced) {
        EXPECT_EQ(Weak, 0u);
      }
    }
}

// A long checked stream through promotions, overlay reads, drains and
// split-phase loads: past its first 1k events, the replay's records and
// per-thread state, the graph's slots, edges and reader links are all
// recycled, so the other 99k events allocate nothing.
TEST(StreamingAllocationTest, PromoteDrainStreamAllocatesNothing) {
  const std::vector<TraceEvent> Events = promoteDrainStream(100000 / 7 + 1);
  ASSERT_GE(Events.size(), 100000u);
  StreamingChecker Stream;
  Stream.begin();
  uint64_t Before = 0;
  for (size_t I = 0; I != Events.size(); ++I) {
    if (I == 1000)
      Before = HeapAllocs;
    Stream.event(Events[I]);
  }
  const uint64_t Allocs = HeapAllocs - Before;
  const StreamVerdict &R = Stream.finish();
  ASSERT_TRUE(R.AxiomsOk) << R.AxiomViolation;
  EXPECT_TRUE(R.Sc);
  EXPECT_EQ(Allocs, 0u);
  EXPECT_LT(Stream.peakLiveEvents(), 64u);
  ConsistencyChecker PostHoc;
  const CheckResult A = PostHoc.check(Events);
  ASSERT_TRUE(A.AxiomsOk) << A.AxiomViolation;
  EXPECT_TRUE(A.Sc);
}

// Both engines keep their launch state in the context: the reference
// engine (--engine=scalar) in its scheduler scratch, the compiled engine
// in its batch scratch. Once warm, a stream of plan launches on one
// ExecutionContext allocates nothing on either, under deterministic and
// randomised scheduling (random placement included). Two blocks of 40
// threads (a partial second warp each): jitter, a store, a ticket draw, a
// split-phase load across a barrier, a spin on a flag the last thread
// sets, and a writeback.
TEST(StreamingAllocationTest, ReferenceEnginePlanRunsAllocateNothing) {
  using Code = sim::BatchOp::Code;
  const auto Layout = [&](sim::Device &Dev) {
    const sim::Addr Data = Dev.alloc(80);
    return std::make_pair(Data, Dev.alloc(2));
  };
  sim::BatchProgram BP;
  {
    sim::ExecutionContext Ctx;
    sim::Device Dev(Ctx, titan(), 0);
    const auto [Data, Counter] = Layout(Dev);
    const sim::Addr Flag = Counter + 1;
    BP.GridDim = 2;
    BP.BlockDim = 40;
    for (uint16_t Tid = 0; Tid != 80; ++Tid) {
      const uint16_t RT = 3 * Tid, RV = RT + 1, RF = RT + 2;
      const auto Begin = static_cast<uint32_t>(BP.Ops.size());
      BP.Ops.push_back({Code::Jitter, 0, 0, 0, 4});
      BP.Ops.push_back({Code::Store, 0, 0, Data + Tid, Tid + 1u});
      BP.Ops.push_back({Code::AtomicAddReg, RT, 0, Counter, 1});
      BP.Ops.push_back({Code::AsyncLoad, RV, 0, Data + (Tid + 1u) % 80, 0});
      BP.Ops.push_back({Code::Barrier});
      BP.Ops.push_back({Code::AwaitLoad, RV, 0, 0, 0});
      if (Tid == 79) {
        BP.Ops.push_back({Code::Store, 0, 0, Flag, 1});
      } else {
        const auto Poll = static_cast<uint32_t>(BP.Ops.size());
        BP.Ops.push_back({Code::Load, RF, 0, Flag, 0});
        BP.Ops.push_back({Code::BrEq, RF, 0, Poll + 3, 0});
        BP.Ops.push_back({Code::Jump, 0, 0, Poll + 5, 0});
        BP.Ops.push_back({Code::Sleep, 0, 0, 0, 2});
        BP.Ops.push_back({Code::Jump, 0, 0, Poll, 0});
      }
      BP.Ops.push_back({Code::WbStore, RV, 0, Data + Tid, 0});
      BP.Lanes.push_back({Begin, static_cast<uint32_t>(BP.Ops.size())});
    }
    BP.NumSlots = 240;
  }
  onBothEngines([&] {
    sim::ExecutionContext Ctx;
    for (const bool Randomise : {false, true}) {
      SCOPED_TRACE(Randomise ? "randomised" : "deterministic");
      unsigned Completed = 0;
      const auto Run = [&](uint64_t Seed) {
        sim::Device Dev(Ctx, titan(), Seed);
        Dev.setRandomiseThreads(Randomise);
        (void)Layout(Dev);
        Completed += Dev.run(BP).completed();
      };
      for (uint64_t Seed = 0; Seed != 20; ++Seed)
        Run(Seed);
      const uint64_t Before = HeapAllocs;
      for (uint64_t Seed = 20; Seed != 220; ++Seed)
        Run(Seed);
      EXPECT_EQ(HeapAllocs - Before, 0u);
      EXPECT_EQ(Completed, 220u);
    }
  });
}

// The compiled engine's provable-timeout proof (DESIGN.md Sec. 19) keeps
// its buffers in the batch scratch: once warm, runs that attempt it
// allocate nothing. Two blocks of 40 threads poll a flag with loads only,
// so every quiet checkpoint tries the proof. In the completing plan the
// last thread sets the flag after four checkpoints, each of whose proofs
// fails (its store is reachable); in the livelocked plan nobody sets it,
// and the first checkpoint's proof cuts the run.
TEST(StreamingAllocationTest, ProofAttemptsAllocateNothing) {
  using Code = sim::BatchOp::Code;
  const auto Plan = [](bool SetFlag) {
    sim::BatchProgram BP;
    BP.GridDim = 2;
    BP.BlockDim = 40;
    BP.HasBackwardBranch = true;
    for (uint16_t Tid = 0; Tid != 80; ++Tid) {
      const auto Begin = static_cast<uint32_t>(BP.Ops.size());
      if (SetFlag && Tid == 79) {
        BP.Ops.push_back(
            {Code::Sleep, 0, 0, 0,
             static_cast<sim::Word>(4 * sim::TimeoutCheckInterval + 9)});
        BP.Ops.push_back({Code::Store, 0, 0, 0, 1});
      } else {
        BP.Ops.push_back({Code::Load, Tid, 0, 0, 0});
        BP.Ops.push_back({Code::BrEq, Tid, 0, Begin, 0});
      }
      BP.Lanes.push_back({Begin, static_cast<uint32_t>(BP.Ops.size())});
    }
    BP.NumSlots = 80;
    return BP;
  };
  const sim::BatchProgram Completing = Plan(true), Livelocked = Plan(false);
  EngineModeGuard Guard(sim::EngineMode::Auto);
  sim::ExecutionContext Ctx;
  for (const bool Randomise : {false, true}) {
    SCOPED_TRACE(Randomise ? "randomised" : "deterministic");
    unsigned Completed = 0, Cut = 0;
    const auto Run = [&](uint64_t Seed) {
      sim::Device Dev(Ctx, titan(), Seed);
      Dev.setRandomiseThreads(Randomise);
      (void)Dev.alloc(1);
      const bool Livelock = Seed % 2 != 0;
      const sim::RunResult R = Dev.run(Livelock ? Livelocked : Completing);
      if (Livelock)
        Cut += R.Status == sim::RunStatus::Timeout &&
               R.Mem.Loads < 79 * 2 * sim::TimeoutCheckInterval;
      else
        Completed += R.completed() && R.Ticks > 4 * sim::TimeoutCheckInterval;
    };
    for (uint64_t Seed = 0; Seed != 10; ++Seed)
      Run(Seed);
    const uint64_t Before = HeapAllocs;
    for (uint64_t Seed = 10; Seed != 60; ++Seed)
      Run(Seed);
    EXPECT_EQ(HeapAllocs - Before, 0u);
    EXPECT_EQ(Completed, 30u);
    EXPECT_EQ(Cut, 30u);
  }
}

//===----------------------------------------------------------------------===//
// Weak-run verdicts and explanations from the retained frontier
//===----------------------------------------------------------------------===//

TEST(StreamingExplainTest, HandBuiltWeakMpYieldsRenderableCycle) {
  // The canonical MP weak shape (as CheckerTest.ClassifiesWeakMpTrace):
  // the streaming checker must find a cycle and retain enough of the
  // frontier to render the explanation without the trace.
  const auto StoreIssue = [](unsigned Tid, unsigned Bank, sim::Addr A,
                             sim::Word V, uint64_t Id) -> TraceEvent {
    return {TraceEventKind::StoreIssue, LoadSource::Memory, false, Tid, Tid,
            Bank, A, V, Id, 0};
  };
  const auto StoreDrain = [](unsigned Tid, unsigned Bank, sim::Addr A,
                             sim::Word V, uint64_t Id) -> TraceEvent {
    return {TraceEventKind::StoreDrain, LoadSource::Memory, true, Tid, Tid,
            Bank, A, V, Id, 0};
  };
  const auto LoadBind = [](unsigned Tid, unsigned Bank, sim::Addr A,
                           sim::Word V) -> TraceEvent {
    return {TraceEventKind::LoadBind, LoadSource::Memory, false, Tid, Tid,
            Bank, A, V, 0, 0};
  };
  const std::vector<TraceEvent> Events = {
      StoreIssue(0, 0, 0, 1, 1), StoreIssue(0, 1, 8, 1, 2),
      StoreDrain(0, 1, 8, 1, 2), LoadBind(1, 1, 8, 1),
      LoadBind(1, 0, 0, 0),      StoreDrain(0, 0, 0, 1, 1),
  };
  StreamingChecker Stream;
  const StreamVerdict &R = Stream.checkAll(Events);
  ASSERT_TRUE(R.AxiomsOk) << R.AxiomViolation;
  ASSERT_TRUE(R.weak());
  ASSERT_FALSE(R.Cycle.empty());
  ASSERT_EQ(R.CycleEvents.size(), R.Cycle.size());
  const model::AddrNamer Namer = [](sim::Addr A) {
    return std::string(A == 0 ? "x" : "y");
  };
  const std::string Text = model::renderStreamExplanation(R, Namer);
  EXPECT_NE(Text.find("--rf-->"), std::string::npos) << Text;
  EXPECT_NE(Text.find("--fr-->"), std::string::npos) << Text;
  EXPECT_NE(Text.find("store-issue y = 1"), std::string::npos) << Text;
  EXPECT_NE(Text.find("load-bind x = 0"), std::string::npos) << Text;
}

//===----------------------------------------------------------------------===//
// Campaign --oracle=all
//===----------------------------------------------------------------------===//

TEST(StreamingCampaignTest, OracleAllChecksEveryRunWithoutPerturbing) {
  harness::CampaignConfig Config;
  Config.Chips = {&titan()};
  Config.Envs = {{stress::StressKind::None, false},
                 {stress::StressKind::Sys, true}};
  Config.Apps = {apps::AppKind::CbeDot, apps::AppKind::CbeHt,
                 apps::AppKind::SdkRed};
  Config.LitmusTests = {litmus::findCatalogProgram("MP")};
  Config.Runs = 10;
  Config.Seed = 3;
  Config.OracleEvery = 1; // --oracle=all
  const harness::CampaignReport Report = harness::runCampaign(Config);
  ASSERT_EQ(Report.Cells.size(), 6u);
  for (const harness::CampaignCell &Cell : Report.Cells) {
    EXPECT_EQ(Cell.OracleChecked, Config.Runs);
    EXPECT_EQ(Cell.OracleViolations, 0u);
  }
  ASSERT_EQ(Report.LitmusCells.size(), 1u);
  // A litmus cell scans every per-bank stress location for Runs
  // executions each; --oracle=all checks every one of them.
  EXPECT_EQ(Report.LitmusCells[0].OracleChecked,
            Report.LitmusCells[0].Runs * titan().NumBanks);
  EXPECT_EQ(Report.LitmusCells[0].OracleViolations, 0u);

  // The oracle observes only: every count must be bit-identical with it
  // off.
  harness::CampaignConfig Off = Config;
  Off.OracleEvery = 0;
  const harness::CampaignReport Plain = harness::runCampaign(Off);
  ASSERT_EQ(Plain.Cells.size(), Report.Cells.size());
  for (size_t I = 0; I != Report.Cells.size(); ++I) {
    EXPECT_EQ(Plain.Cells[I].Result.Runs, Report.Cells[I].Result.Runs);
    EXPECT_EQ(Plain.Cells[I].Result.Errors, Report.Cells[I].Result.Errors);
  }
  EXPECT_EQ(Plain.LitmusCells[0].Weak, Report.LitmusCells[0].Weak);
}
