//===- tests/EngineIdentityTests.cpp - Event-stream engine identity ----------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// The compiled op-stream engine serves every run of a lowerable program,
// traced and oracle-checked runs included, so it must be indistinguishable
// from the reference engine (--engine=scalar) not only in its
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
// The reference engine steps the very op stream the compiled engine
// walks, so these tests check runBatchProgram against the Scheduler
// directly; the lowerings themselves are pinned by the litmus, fuzz,
// campaign and cost goldens and, fence site by fence site, by the app
// event-stream digests below. The barrier release is the
// one event the engines emit themselves (everything else comes from the
// shared MemorySystem), so the app grid is what pins runBatchProgram's
// BarrierRelease against the scheduler's.
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
    while (I != N && S[I] == C[I])
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

/// One (app, environment) pair per test, so the slow reference-engine
/// pairs (tpo-tm's livelocks run to the full budget there) spread over
/// many ctest cases.
class EventStreamIdentityApps
    : public ::testing::TestWithParam<
          std::tuple<apps::AppKind, stress::Environment>> {};

TEST_P(EventStreamIdentityApps, UnderEnvironment) {
  const auto [K, Env] = GetParam();
  const unsigned NumSites = apps::appNumSites(K);
  const sim::FencePolicy OneSite = sim::FencePolicy::ofSites(NumSites, {1u});
  const sim::FencePolicy *const Policies[] = {nullptr, &OneSite};
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
    ::testing::Combine(::testing::ValuesIn(apps::AllAppKinds),
                       ::testing::ValuesIn(stress::Environment::all())),
    [](const auto &Info) {
      // tpo-tm under sys-str+ -> tpo_tm_sys_str_plus.
      std::string Env = std::get<1>(Info.param).name();
      const char Sign = Env.back();
      Env.pop_back();
      std::string N = std::string(apps::appName(std::get<0>(Info.param))) +
                      "_" + Env + (Sign == '+' ? "_plus" : "_minus");
      std::replace(N.begin(), N.end(), '-', '_');
      return N;
    });

namespace {

/// FNV-1a over a record's verdicts and every field of every event, so a
/// golden can pin a whole run sequence in one word.
uint64_t digest(const Record &R) {
  uint64_t H = 14695981039346656037ull;
  auto Mix = [&H](uint64_t V) {
    for (unsigned Byte = 0; Byte != 8; ++Byte, V >>= 8) {
      H ^= V & 0xff;
      H *= 1099511628211ull;
    }
  };
  for (size_t Run = 0; Run != R.Events.size(); ++Run) {
    Mix(static_cast<uint64_t>(R.Verdicts[Run]));
    for (const sim::TraceEvent &E : R.Events[Run])
      for (const uint64_t F :
           {static_cast<uint64_t>(E.Kind), static_cast<uint64_t>(E.Source),
            static_cast<uint64_t>(E.Flag), static_cast<uint64_t>(E.Tid),
            static_cast<uint64_t>(E.Block), static_cast<uint64_t>(E.Bank),
            static_cast<uint64_t>(E.A), static_cast<uint64_t>(E.V), E.Id,
            E.Tick})
        Mix(F);
  }
  return H;
}

} // namespace

TEST(AppFenceSiteGolden, EventStreamsArePinnedOnBothEngines) {
  // Where each lowering puts each inserted fence, pinned for every
  // lowered app: two native runs under the all-sites policy (Site -1) and
  // under each single-site policy, recorded from the hand-written
  // coroutine kernels the lowerings replaced. The FenceDevice events and
  // everything after them move with the fence, so a wrong Site constant
  // or a fence after the wrong op changes the digest even where the
  // Fig. 5 cost pin cannot see it (two sites whose fences cost alike).
  using apps::AppKind;
  struct Golden {
    AppKind App;
    int Site;
    size_t Events;
    uint64_t Digest;
  };
  const Golden Expected[] = {
      {AppKind::CbeHt, -1, 12242, 0x6b9dedf984697b57ull},
      {AppKind::CbeHt, 0, 6002, 0x961799545399c6f4ull},
      {AppKind::CbeHt, 1, 6767, 0xc880ae814079c878ull},
      {AppKind::CbeHt, 2, 6764, 0x180a3abd1959eb7eull},
      {AppKind::CbeHt, 3, 6769, 0x75b4259ed59c5e20ull},
      {AppKind::CbeHt, 4, 6756, 0x7510180c319fa61cull},
      {AppKind::CbeHt, 5, 4871, 0xba07b8b382587698ull},
      {AppKind::CbeDot, -1, 4252, 0x7723bf881e590bffull},
      {AppKind::CbeDot, 0, 4162, 0x65d9f20fbac3af29ull},
      {AppKind::CbeDot, 1, 3158, 0x9976713ece46f3deull},
      {AppKind::CbeDot, 2, 3173, 0x3f009d503b12acdaull},
      {AppKind::CbeDot, 3, 3173, 0x8db4072ea496d66full},
      {AppKind::CbeDot, 4, 3146, 0xe9dd538d17eecc12ull},
      {AppKind::TpoTm, -1, 261044, 0x0d5d4c46b32261afull},
      {AppKind::TpoTm, 0, 112418, 0x16e3cae37a41074dull},
      {AppKind::TpoTm, 1, 127840, 0x802ad229b4ffd710ull},
      {AppKind::TpoTm, 2, 166368, 0x544ecbf14ea3495bull},
      {AppKind::TpoTm, 3, 84667, 0x9e4ed69b4111cdcbull},
      {AppKind::TpoTm, 4, 64471, 0x38fee457ee36afc0ull},
      {AppKind::TpoTm, 5, 72250, 0xcc47a33faceae077ull},
      {AppKind::TpoTm, 6, 61311, 0x4c2c45e75c850e93ull},
      {AppKind::SdkRed, -1, 3755, 0x9e041b4adfe08926ull},
      {AppKind::SdkRed, 0, 3705, 0x5528dfc1d51a1bfeull},
      {AppKind::SdkRed, 1, 3209, 0x6552c9ac19facb66ull},
      {AppKind::SdkRed, 2, 3209, 0xd28f0d6a982d8726ull},
      {AppKind::SdkRed, 3, 3209, 0x5559f780e3ff41a6ull},
      {AppKind::SdkRed, 4, 3195, 0xddbea2fbcacf556eull},
      {AppKind::SdkRedNf, -1, 3739, 0x299e9775415ff92eull},
      {AppKind::SdkRedNf, 0, 3689, 0xa95148f04807781eull},
      {AppKind::SdkRedNf, 1, 3193, 0xf697d31204fb9dc6ull},
      {AppKind::SdkRedNf, 2, 3193, 0x89c3b0f51a449a06ull},
      {AppKind::SdkRedNf, 3, 3193, 0xd56bd5d74c7df10eull},
      {AppKind::SdkRedNf, 4, 3179, 0x0330cf8866c962f6ull},
      {AppKind::CubScan, -1, 8166, 0x0d4c3bfa72a445c8ull},
      {AppKind::CubScan, 0, 7517, 0x65d5522701bf087bull},
      {AppKind::CubScan, 1, 7021, 0xbfc70b8bdbddd723ull},
      {AppKind::CubScan, 2, 7021, 0x0bf332d1aa0fb663ull},
      {AppKind::CubScan, 3, 7034, 0xbe6d0686abb8759eull},
      {AppKind::CubScan, 4, 7010, 0xa38fdd171bb117e6ull},
      {AppKind::CubScan, 5, 7013, 0x5753b5faaad25789ull},
      {AppKind::CubScan, 6, 7029, 0xf3e76c7b6e635911ull},
      {AppKind::CubScan, 7, 7021, 0x16ca2116661aa74dull},
      {AppKind::CubScan, 8, 7517, 0xe6ebe37432afe87dull},
      {AppKind::CubScanNf, -1, 8134, 0xb23d2607b68eb438ull},
      {AppKind::CubScanNf, 0, 7477, 0xc7cd2ac42b03604eull},
      {AppKind::CubScanNf, 1, 6981, 0x7d9b138cc811b856ull},
      {AppKind::CubScanNf, 2, 6981, 0x43edd1b7e1f68336ull},
      {AppKind::CubScanNf, 3, 7002, 0x4f64a121d6a5ac10ull},
      {AppKind::CubScanNf, 4, 6978, 0xdff234e34589326cull},
      {AppKind::CubScanNf, 5, 6975, 0xa4f2f305e2793e24ull},
      {AppKind::CubScanNf, 6, 6997, 0xd4392aae179bb145ull},
      {AppKind::CubScanNf, 7, 6981, 0xb9d9c4a7ff1a3126ull},
      {AppKind::CubScanNf, 8, 7477, 0xd2d65a05187dd638ull},
      {AppKind::LsBh, -1, 28116, 0x0672887d64eb5631ull},
      {AppKind::LsBh, 0, 15608, 0x2e6f7d98dd9bd94aull},
      {AppKind::LsBh, 1, 15493, 0x062132f006efecb9ull},
      {AppKind::LsBh, 2, 15569, 0xe5f150f925739bfcull},
      {AppKind::LsBh, 3, 17817, 0xdbd58f18f568148eull},
      {AppKind::LsBh, 4, 15779, 0x90a2943380afe1b8ull},
      {AppKind::LsBh, 5, 15423, 0x250557dda7412aa9ull},
      {AppKind::LsBh, 6, 15969, 0x613df6b6182fa58eull},
      {AppKind::LsBh, 7, 15539, 0xd2c9a453d83bc997ull},
      {AppKind::LsBh, 8, 15853, 0xe4c64cebe24f0e96ull},
      {AppKind::LsBh, 9, 24643, 0x7dc913ab2512386eull},
      {AppKind::LsBh, 10, 15523, 0x360864776c61a6fdull},
      {AppKind::LsBh, 11, 15523, 0x52a28a61882e13fbull},
      {AppKind::LsBhNf, -1, 28122, 0x5781f854f167e02eull},
      {AppKind::LsBhNf, 0, 15586, 0x4c34dd1a1f7a8c74ull},
      {AppKind::LsBhNf, 1, 15431, 0x153106142c4be094ull},
      {AppKind::LsBhNf, 2, 15441, 0xb01fd5f5cd036bedull},
      {AppKind::LsBhNf, 3, 17634, 0xb7c189ec043490c8ull},
      {AppKind::LsBhNf, 4, 15623, 0xf303e0f3531593daull},
      {AppKind::LsBhNf, 5, 15320, 0x13c4c4cfaded476bull},
      {AppKind::LsBhNf, 6, 15923, 0x93c5708681e8198dull},
      {AppKind::LsBhNf, 7, 15465, 0x412c1a06227d6479ull},
      {AppKind::LsBhNf, 8, 15779, 0xf7178a6694f0e941ull},
      {AppKind::LsBhNf, 9, 24569, 0x7be65dfccbd0e19cull},
      {AppKind::LsBhNf, 10, 15449, 0xfbc991b31df0a90dull},
      {AppKind::LsBhNf, 11, 15449, 0x63913fd1a639da5bull},
      {AppKind::CtOctree, -1, 3298, 0xc917478180e781efull},
      {AppKind::CtOctree, 0, 2666, 0x53916df616a24246ull},
      {AppKind::CtOctree, 1, 2600, 0x6befd8f57ef95a94ull},
      {AppKind::CtOctree, 2, 2754, 0x96ea093b374cabacull},
      {AppKind::CtOctree, 3, 2761, 0x1269fb50a22b84b8ull},
      {AppKind::CtOctree, 4, 2600, 0x6e77596b9beef75aull},
  };
  const stress::Environment Native{stress::StressKind::None, false};
  for (const sim::EngineMode Mode :
       {sim::EngineMode::Auto, sim::EngineMode::Scalar})
    for (const Golden &G : Expected) {
      const unsigned NumSites = apps::appNumSites(G.App);
      const auto Policy =
          G.Site < 0 ? sim::FencePolicy::all(NumSites)
                     : sim::FencePolicy::ofSites(
                           NumSites, {static_cast<unsigned>(G.Site)});
      const Record R = appRecord(Mode, G.App, Native, &Policy, 2, 4242);
      size_t Events = 0;
      for (const auto &Run : R.Events)
        Events += Run.size();
      const std::string What = std::string(apps::appName(G.App)) +
                               " site " + std::to_string(G.Site) + " on " +
                               sim::engineModeName(Mode);
      EXPECT_EQ(Events, G.Events) << What;
      EXPECT_EQ(digest(R), G.Digest) << What;
    }
}

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

TEST(EngineChecksDeathTest, MismatchedAppFencePolicyAbortsInEveryBuild) {
  // A policy sized for another app would index past the policy's sites
  // when the plan's site mask is built; the check is a GPUWMM_CHECK, so
  // it fires under NDEBUG too, on either engine.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const sim::FencePolicy TooShort = sim::FencePolicy::all(2);
  const auto Tuned = stress::TunedStressParams::paperDefaults(titan());
  for (const sim::EngineMode Mode :
       {sim::EngineMode::Auto, sim::EngineMode::Scalar})
    EXPECT_DEATH(
        {
          EngineModeGuard Guard(Mode);
          (void)apps::runApplicationOnce(apps::AppKind::CbeDot, titan(),
                                         {stress::StressKind::None, false},
                                         Tuned, &TooShort, 1);
        },
        "check failed: fence policy does not match the app's sites")
        << sim::engineModeName(Mode);
}
