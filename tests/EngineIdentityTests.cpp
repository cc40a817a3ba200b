//===- tests/EngineIdentityTests.cpp - Event-stream engine identity ----------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// The compiled op-stream engine serves every run of a lowerable program,
// traced and oracle-checked runs included, so it must be indistinguishable
// from the coroutine reference engine (--engine=scalar) not only in its
// verdicts but in the memory events it emits: the same TraceEvent
// sequence, every field including the tick, for
//
//  * every catalog program, plain, under tuned stress, fenced and with
//    randomised scheduling;
//  * 200 random fuzz programs, through the litmus runner;
//  * random fuzz programs through the fuzz runner itself, whose stressed
//    runs add sys-str+ environment stress with randomised threads; and
//  * every lowered application kernel under all eight environments, with
//    no inserted fences and with one single-site fence policy.
//
// For litmus and fuzz programs the reference is sim::runProgram's
// interpretation of the very op stream the compiled engine walks, so these
// tests check runBatchProgram against the coroutine scheduler directly
// (the lowerings themselves are pinned by the litmus and fuzz goldens).
// For apps it is the hand-written coroutine bodies. The barrier release
// is the one event the engines emit themselves (everything else comes
// from the shared MemorySystem), so the app grid is what pins
// runBatchProgram's BarrierRelease against the scheduler's.
//
//===----------------------------------------------------------------------===//

#include "EngineModeGuard.h"

#include "apps/AppCompile.h"
#include "fuzz/ProgramFuzzer.h"
#include "litmus/Format.h"
#include "litmus/Litmus.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

using namespace gpuwmm;

namespace {

const sim::ChipProfile &titan() { return *sim::ChipProfile::lookup("titan"); }

/// One engine's record of a run sequence: per-run verdicts (or fuzz
/// outcomes) and the per-run event streams.
struct Record {
  std::vector<int> Verdicts;
  std::vector<fuzz::Outcome> Outcomes;
  std::vector<std::vector<sim::TraceEvent>> Events;
};

bool sameEvent(const sim::TraceEvent &A, const sim::TraceEvent &B) {
  return A.Kind == B.Kind && A.Source == B.Source && A.Flag == B.Flag &&
         A.Tid == B.Tid && A.Block == B.Block && A.Bank == B.Bank &&
         A.A == B.A && A.V == B.V && A.Id == B.Id && A.Tick == B.Tick;
}

std::string describe(const sim::TraceEvent &E) {
  std::ostringstream OS;
  OS << sim::traceEventKindName(E.Kind) << " src="
     << static_cast<int>(E.Source) << " flag=" << E.Flag << " tid=" << E.Tid
     << " block=" << E.Block << " bank=" << E.Bank << " a=" << E.A
     << " v=" << E.V << " id=" << E.Id << " tick=" << E.Tick;
  return OS.str();
}

/// Expects \p Compiled to equal \p Scalar event for event; reports the
/// first divergence of each run.
void expectIdentical(const Record &Scalar, const Record &Compiled,
                     const std::string &What) {
  ASSERT_EQ(Scalar.Verdicts, Compiled.Verdicts) << What;
  ASSERT_EQ(Scalar.Outcomes, Compiled.Outcomes) << What;
  ASSERT_EQ(Scalar.Events.size(), Compiled.Events.size()) << What;
  for (size_t R = 0; R != Scalar.Events.size(); ++R) {
    const auto &S = Scalar.Events[R];
    const auto &C = Compiled.Events[R];
    EXPECT_FALSE(S.empty()) << What << " run " << R;
    const size_t N = std::min(S.size(), C.size());
    size_t I = 0;
    while (I != N && sameEvent(S[I], C[I]))
      ++I;
    if (I == N) {
      EXPECT_EQ(S.size(), C.size()) << What << " run " << R;
      continue;
    }
    ADD_FAILURE() << What << " run " << R << ": event " << I
                  << " differs\n  scalar:   " << describe(S[I])
                  << "\n  compiled: " << describe(C[I]);
  }
}

//===----------------------------------------------------------------------===//
// Litmus programs
//===----------------------------------------------------------------------===//

/// \p Runs traced runOnce calls of \p P on a fresh runner under \p Mode.
Record litmusRecord(sim::EngineMode Mode, const litmus::Program &P,
                    unsigned Distance,
                    const litmus::LitmusRunner::MicroStress &S,
                    litmus::LitmusRunOpts Opts, unsigned Runs, uint64_t Seed) {
  EngineModeGuard Guard(Mode);
  litmus::LitmusRunner Runner(titan(), Seed);
  Opts.Trace = true;
  Record R;
  for (unsigned I = 0; I != Runs; ++I) {
    R.Verdicts.push_back(Runner.runOnce(P, Distance, S, Opts));
    R.Events.push_back(Runner.trace().events());
  }
  return R;
}

void expectLitmusIdentity(const litmus::Program &P, unsigned Distance,
                          const litmus::LitmusRunner::MicroStress &S,
                          const litmus::LitmusRunOpts &Opts, unsigned Runs,
                          uint64_t Seed, const std::string &What) {
  expectIdentical(
      litmusRecord(sim::EngineMode::Scalar, P, Distance, S, Opts, Runs, Seed),
      litmusRecord(sim::EngineMode::Auto, P, Distance, S, Opts, Runs, Seed),
      What);
}

litmus::LitmusRunner::MicroStress tunedStress() {
  const auto Tuned = stress::TunedStressParams::paperDefaults(titan());
  return litmus::LitmusRunner::MicroStress::at(Tuned.Seq,
                                               2 * Tuned.PatchWords);
}

} // namespace

TEST(EventStreamIdentity, CatalogProgramsUnderEveryOptionSet) {
  struct Case {
    const char *Name;
    bool Stressed, Fenced, Randomise;
  };
  const Case Cases[] = {{"plain", false, false, false},
                        {"tuned-stressed", true, false, false},
                        {"fenced", true, true, false},
                        {"randomised", true, false, true}};
  for (const litmus::Program &P : litmus::catalog())
    for (const Case &C : Cases) {
      litmus::LitmusRunOpts Opts;
      Opts.WithFences = C.Fenced;
      Opts.Randomise = C.Randomise;
      const auto S = C.Stressed ? tunedStress()
                                : litmus::LitmusRunner::MicroStress::none();
      expectLitmusIdentity(P, 2 * titan().PatchSizeWords, S, Opts, 24, 77,
                           P.Name + " " + C.Name);
    }
}

TEST(EventStreamIdentity, TwoHundredFuzzPrograms) {
  Rng Gen(0x1de7u);
  for (unsigned I = 0; I != 200; ++I) {
    Rng R = Gen.fork(I);
    const litmus::Program P = fuzz::generateProgram(R, 3, 4, I % 4 == 0);
    ASSERT_TRUE(P.validate().empty()) << P.validate();
    litmus::LitmusRunOpts Opts;
    Opts.Randomise = I % 2 == 0;
    const auto S =
        I % 3 == 0 ? litmus::LitmusRunner::MicroStress::none() : tunedStress();
    expectLitmusIdentity(P, 32, S, Opts, 4, 9000 + I,
                         litmus::printLitmus(P));
  }
}

namespace {

/// \p Runs traced fuzz::runOnWeakMachine calls of \p CP under \p Mode,
/// at seeds Seed, Seed + 1, ...
Record fuzzRecord(sim::EngineMode Mode, const fuzz::CompiledProgram &CP,
                  bool Stressed, unsigned Runs, uint64_t Seed) {
  EngineModeGuard Guard(Mode);
  sim::ExecutionContext Ctx;
  Ctx.requestTracing(true);
  Record R;
  for (unsigned I = 0; I != Runs; ++I) {
    R.Outcomes.push_back(
        fuzz::runOnWeakMachine(Ctx, CP, titan(), Seed + I, Stressed));
    R.Events.push_back(Ctx.trace().events());
  }
  return R;
}

} // namespace

TEST(EventStreamIdentity, FuzzRunnerMatchesReferenceBitForBit) {
  // The fuzz runner's own path: native runs, and sys-str+ runs whose
  // environment stress and randomised threads no litmus case above uses.
  Rng R(7100);
  for (int I = 0; I != 40; ++I) {
    const litmus::Program P = fuzz::generateProgram(R, 3, 5, true);
    const fuzz::CompiledProgram CP = fuzz::compileProgram(P, titan());
    const bool Stressed = I % 2 == 0;
    const uint64_t Seed = 9000 + 100 * I;
    expectIdentical(
        fuzzRecord(sim::EngineMode::Scalar, CP, Stressed, 5, Seed),
        fuzzRecord(sim::EngineMode::Auto, CP, Stressed, 5, Seed),
        (Stressed ? "stressed\n" : "native\n") + litmus::printLitmus(P));
  }
}

//===----------------------------------------------------------------------===//
// Lowered application kernels
//===----------------------------------------------------------------------===//

namespace {

Record appRecord(sim::EngineMode Mode, apps::AppKind K,
                 const stress::Environment &Env,
                 const sim::FencePolicy *Policy, unsigned Runs,
                 uint64_t Seed) {
  EngineModeGuard Guard(Mode);
  const auto Tuned = stress::TunedStressParams::paperDefaults(titan());
  sim::ExecutionContext Ctx;
  Ctx.requestTracing(true);
  Record R;
  for (unsigned I = 0; I != Runs; ++I) {
    R.Verdicts.push_back(static_cast<int>(
        apps::runApplicationOnce(Ctx, K, titan(), Env, Tuned, Policy,
                                 Rng::deriveStream(Seed, I))));
    R.Events.push_back(Ctx.trace().events());
  }
  return R;
}

} // namespace

class EventStreamIdentityApps
    : public ::testing::TestWithParam<apps::AppKind> {};

TEST_P(EventStreamIdentityApps, UnderEveryEnvironment) {
  const apps::AppKind K = GetParam();
  ASSERT_TRUE(apps::appLowerable(K));
  const unsigned NumSites = apps::appNumSites(K);
  const sim::FencePolicy OneSite = sim::FencePolicy::ofSites(NumSites, {1u});
  const sim::FencePolicy *const Policies[] = {nullptr, &OneSite};
  for (const stress::Environment &Env : stress::Environment::all())
    for (const sim::FencePolicy *Policy : Policies) {
      const std::string What = std::string(apps::appName(K)) + " " +
                               Env.name() +
                               (Policy ? " site-1 fence" : " unfenced");
      expectIdentical(
          appRecord(sim::EngineMode::Scalar, K, Env, Policy, 3, 4242),
          appRecord(sim::EngineMode::Auto, K, Env, Policy, 3, 4242), What);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Lowered, EventStreamIdentityApps,
    ::testing::Values(apps::AppKind::CbeHt, apps::AppKind::CbeDot,
                      apps::AppKind::SdkRed, apps::AppKind::SdkRedNf,
                      apps::AppKind::CubScan, apps::AppKind::CubScanNf,
                      apps::AppKind::TpoTm),
    [](const auto &Info) {
      std::string N = apps::appName(Info.param);
      for (char &C : N)
        if (C == '-')
          C = '_';
      return N;
    });

//===----------------------------------------------------------------------===//
// Release-build invariant checks
//===----------------------------------------------------------------------===//

TEST(EngineChecksDeathTest, MalformedProgramAbortsInEveryBuild) {
  // Program::validate guards the compiled plan; the check is a
  // GPUWMM_CHECK, so it fires under NDEBUG too, on either engine.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const litmus::Program Malformed; // No name, no threads.
  ASSERT_FALSE(Malformed.validate().empty());
  for (const sim::EngineMode Mode :
       {sim::EngineMode::Auto, sim::EngineMode::Scalar})
    EXPECT_DEATH(
        {
          EngineModeGuard Guard(Mode);
          litmus::LitmusRunner Runner(titan(), 1);
          (void)Runner.runOnce(Malformed, 1,
                               litmus::LitmusRunner::MicroStress::none());
        },
        "check failed: program must be well-formed")
        << sim::engineModeName(Mode);
}

TEST(EngineChecksDeathTest, UnlowerableAppAbortsInEveryBuild) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ASSERT_FALSE(apps::appLowerable(apps::AppKind::LsBh));
  EXPECT_DEATH((void)apps::compileApplication(apps::AppKind::LsBh, titan(),
                                              nullptr),
               "check failed: app does not lower");
}

TEST(EngineChecksDeathTest, ReferenceInterpreterRejectsUnsupportedOps) {
  // The reference interpretation covers the straight-line ops the litmus
  // and fuzz lowerings emit; anything else (a barrier, say) must abort
  // rather than run wrongly.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::BatchProgram BP;
  BP.GridDim = 1;
  BP.BlockDim = 1;
  BP.NumSlots = 1;
  BP.Ops.push_back({sim::BatchOp::Code::Barrier, 0, 0, 0, 0});
  BP.Lanes.push_back({0, 1});
  EXPECT_DEATH(
      {
        EngineModeGuard Guard(sim::EngineMode::Scalar);
        sim::ExecutionContext Ctx;
        Ctx.reset(titan(), 1);
        sim::Word Reg = 0;
        (void)sim::runProgram(BP, Ctx, titan(), &Reg, {});
      },
      "check failed: op has no reference interpretation");
}
