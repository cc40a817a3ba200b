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
// and on deliberately corrupted traces; it also pins the streaming
// checker's bounded-memory property (retirement keeps the live graph at
// the active frontier, not the run length), the exact work a checked run
// does (events, edge operations, memory operations) on both engines, and
// the campaign's --oracle=all mode (every run checked, counts
// unperturbed).
//
//===----------------------------------------------------------------------===//

#include "EngineModeGuard.h"

#include "apps/Application.h"
#include "fuzz/LitmusBridge.h"
#include "fuzz/ProgramFuzzer.h"
#include "harness/Campaign.h"
#include "litmus/Litmus.h"
#include "model/ConsistencyChecker.h"
#include "model/StreamingChecker.h"
#include "stress/Environment.h"

#include <gtest/gtest.h>

#include <algorithm>
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
  for (litmus::LitmusKind K : litmus::AllLitmusKinds) {
    const litmus::Program &P = litmus::catalogProgram(K);
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
        ASSERT_EQ(A, B) << litmus::litmusName(K) << " run " << I
                        << ": streaming perturbed the execution";
        const CheckResult Ref = PostHoc.check(Recorded.trace());
        ASSERT_TRUE(Live.AxiomsOk) << Live.AxiomViolation;
        EXPECT_EQ(Ref.weak(), Live.weak())
            << litmus::litmusName(K) << " region " << Region << " run "
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
    const fuzz::Program FP = fuzz::Program::generate(
        Gen, /*NumVars=*/3, /*OpsPerThread=*/5, /*WithFences=*/PI % 4 == 0);
    const litmus::Program LP = fuzz::toLitmusProgram(FP, "fuzz-case");
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
// to run before its read side and retire the write it read from (and a
// coherence-dropped write ordered after it), so the read lost its rf and
// fr edges. Post-hoc: e0 is dropped into co after the atomic e3, so
// e0 -co-> e5 and e5 (which read e3) -fr-> e0.
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
  ASSERT_TRUE(A.weak());
  const StreamVerdict &B = Stream.checkAll(Events);
  ASSERT_TRUE(B.AxiomsOk) << B.AxiomViolation;
  EXPECT_TRUE(B.weak());
  ASSERT_EQ(B.Cycle.size(), 2u);
  EXPECT_EQ(B.ViolatingA, 5u);
  EXPECT_EQ(B.ViolatingB, 0u);
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
  (void)Runner.runOnce(litmus::catalogProgram(litmus::LitmusKind::MP), 64,
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
  (void)Runner.runOnce(litmus::catalogProgram(litmus::LitmusKind::MP), 64,
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
/// summed.
WorkCounts checkedAppWork(size_t AppIndex) {
  const apps::AppKind App = apps::AllAppKinds[AppIndex];
  const sim::ChipProfile &Chip = titan();
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  const stress::Environment Envs[] = {{stress::StressKind::None, true},
                                      {stress::StressKind::Cache, false}};
  StreamingChecker Checker;
  sim::ExecutionContext Ctx;
  WorkCounts W;
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
  const litmus::Program &P = litmus::catalogProgram(litmus::LitmusKind::MP);
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
      W->add(Checker);
    }
  }
  return Weak;
}

} // namespace

// The exact work of fixed checked runs, on both engines. Checked runs are
// never cut short, so the compiled engine and the coroutine reference must
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
  // MP: {events, edge ops} (its memory counts are not observable through
  // the runner) and the number of weak runs.
  const WorkCounts MpPin = {2000, 1847};
  const size_t MpWeakPin = 6;
  ASSERT_EQ(std::size(AppPins), apps::AllAppKinds.size())
      << "pin every app";

  for (const sim::EngineMode Mode :
       {sim::EngineMode::Auto, sim::EngineMode::Scalar}) {
    EngineModeGuard Guard(Mode);
    const std::string Engine = sim::engineModeName(Mode);
    for (size_t A = 0; A != std::size(AppPins); ++A) {
      const WorkCounts Got = checkedAppWork(A);
      EXPECT_EQ(Got, AppPins[A])
          << apps::appName(apps::AllAppKinds[A]) << " on " << Engine
          << ": actual " << Got.row();
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
  (void)Runner.runOnce(litmus::catalogProgram(litmus::LitmusKind::MP), 64,
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
