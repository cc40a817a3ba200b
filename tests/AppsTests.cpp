//===- tests/AppsTests.cpp - application case-study tests -----------------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// Parameterised over all ten case studies (Tab. 4): sequential
// consistency always satisfies the post-condition; conservative fencing
// hardens against the aggressive environment; the weak machine exposes
// errors exactly where the paper says it should.
//
//===----------------------------------------------------------------------===//

#include "EngineModeGuard.h"

#include "apps/AppCompile.h"
#include "apps/AppsInternal.h"
#include "apps/Application.h"
#include "harness/Campaign.h"
#include "harness/EnvironmentRunner.h"
#include "model/StreamingChecker.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <vector>

using namespace gpuwmm;
using namespace gpuwmm::apps;

namespace {

const sim::ChipProfile &titan() {
  return *sim::ChipProfile::lookup("titan");
}

stress::TunedStressParams tunedTitan() {
  return stress::TunedStressParams::paperDefaults(titan());
}

constexpr stress::Environment NoStress{stress::StressKind::None, false};
constexpr stress::Environment SysPlus{stress::StressKind::Sys, true};

unsigned countErrors(AppKind App, const stress::Environment &Env,
                     const sim::FencePolicy *Policy, unsigned Runs,
                     uint64_t Seed) {
  unsigned Errors = 0;
  Rng Master(Seed);
  for (unsigned I = 0; I != Runs; ++I)
    Errors += isErroneous(runApplicationOnce(
        App, titan(), Env, tunedTitan(), Policy, Master.fork(I).next()));
  return Errors;
}

} // namespace

class AppTest : public ::testing::TestWithParam<AppKind> {};

TEST_P(AppTest, MetadataIsWellFormed) {
  const auto App = makeApp(GetParam());
  ASSERT_NE(App, nullptr);
  EXPECT_STREQ(App->name(),
               appName(GetParam() == AppKind::SdkRedNf ? AppKind::SdkRed
                       : GetParam() == AppKind::CubScanNf
                           ? AppKind::CubScan
                       : GetParam() == AppKind::LsBhNf ? AppKind::LsBh
                                                       : GetParam()));
  EXPECT_GT(App->numSites(), 0u);
  for (unsigned S = 0; S != App->numSites(); ++S) {
    ASSERT_NE(App->siteName(S), nullptr);
    EXPECT_GT(std::string(App->siteName(S)).size(), 0u);
  }
  EXPECT_GT(App->maxTicks(), 0u);
}

TEST_P(AppTest, NameParsesBack) {
  EXPECT_EQ(parseAppName(appName(GetParam())), GetParam());
}

TEST_P(AppTest, SequentialConsistencyAlwaysPasses) {
  // Tab. 4's post-conditions hold under SC for every app: all races are
  // benign by design.
  Rng Master(101);
  for (unsigned I = 0; I != 12; ++I) {
    const AppVerdict V = runApplicationOnce(
        GetParam(), titan(), NoStress, tunedTitan(), nullptr,
        Master.fork(I).next(), /*Sequential=*/true);
    EXPECT_EQ(V, AppVerdict::Pass) << appName(GetParam()) << " run " << I;
  }
}

TEST_P(AppTest, ConservativeFencesHardenAgainstAggressiveStress) {
  // Sec. 5's starting point: with a fence after every instrumented
  // access, the application is empirically stable even under sys-str+.
  const sim::FencePolicy All =
      sim::FencePolicy::all(appNumSites(GetParam()));
  EXPECT_EQ(countErrors(GetParam(), SysPlus, &All, 25, 202), 0u)
      << appName(GetParam());
}

TEST_P(AppTest, NativeErrorsAreRareOnTitan) {
  // Tab. 5: no-str exposes (almost) nothing on Titan.
  EXPECT_LE(countErrors(GetParam(), NoStress, nullptr, 30, 303), 1u)
      << appName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllApps, AppTest,
                         ::testing::ValuesIn(AllAppKinds),
                         [](const auto &Info) {
                           std::string N = appName(Info.param);
                           for (char &C : N)
                             if (C == '-')
                               C = '_';
                           return N;
                         });

//===----------------------------------------------------------------------===//
// The paper's per-application findings (Sec. 4.3)
//===----------------------------------------------------------------------===//

class VulnerableAppTest : public ::testing::TestWithParam<AppKind> {};

TEST_P(VulnerableAppTest, SysStressExposesErrors) {
  // All applications except sdk-red and cub-scan exhibit weak-memory
  // errors under the tuned environment. (120 runs keeps the flake
  // probability negligible even for the least provocable apps, whose
  // error rates sit around 5-10%.)
  EXPECT_GE(countErrors(GetParam(), SysPlus, nullptr, 120, 404), 3u)
      << appName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    PaperSet, VulnerableAppTest,
    ::testing::Values(AppKind::CbeHt, AppKind::CbeDot, AppKind::CtOctree,
                      AppKind::TpoTm, AppKind::SdkRedNf,
                      AppKind::CubScanNf, AppKind::LsBhNf),
    [](const auto &Info) {
      std::string N = appName(Info.param);
      for (char &C : N)
        if (C == '-')
          C = '_';
      return N;
    });

TEST(AppFindingsTest, ProvidedFencesOfSdkRedSuffice) {
  // sdk-red (with its __threadfence) never errs; sdk-red-nf does.
  EXPECT_EQ(countErrors(AppKind::SdkRed, SysPlus, nullptr, 80, 505), 0u);
  EXPECT_GE(countErrors(AppKind::SdkRedNf, SysPlus, nullptr, 80, 505), 4u);
}

TEST(AppFindingsTest, ProvidedFencesOfCubScanSuffice) {
  EXPECT_EQ(countErrors(AppKind::CubScan, SysPlus, nullptr, 80, 606), 0u);
  EXPECT_GE(countErrors(AppKind::CubScanNf, SysPlus, nullptr, 80, 606),
            8u);
}

TEST(AppFindingsTest, ProvidedFencesOfLsBhAreInsufficient) {
  // The paper's discovery: ls-bh errs even WITH its provided fences (they
  // miss the displaced-body store), and so does ls-bh-nf (Tab. 5 reports
  // errors for both; it makes no claim about their relative rates).
  const unsigned Fenced =
      countErrors(AppKind::LsBh, SysPlus, nullptr, 150, 707);
  const unsigned NoFences =
      countErrors(AppKind::LsBhNf, SysPlus, nullptr, 150, 707);
  EXPECT_GT(Fenced, 0u) << "ls-bh's own fences must not fully protect it";
  EXPECT_GT(NoFences, 0u);
}

TEST(AppFindingsTest, BuiltinFenceFlags) {
  EXPECT_TRUE(appHasBuiltinFences(AppKind::SdkRed));
  EXPECT_TRUE(appHasBuiltinFences(AppKind::CubScan));
  EXPECT_TRUE(appHasBuiltinFences(AppKind::LsBh));
  EXPECT_FALSE(appHasBuiltinFences(AppKind::CbeDot));
  EXPECT_TRUE(isNoFenceVariant(AppKind::SdkRedNf));
  EXPECT_FALSE(isNoFenceVariant(AppKind::SdkRed));
}

TEST(AppFindingsTest, TpoTmCanTimeOut) {
  // Weak behaviour can affect termination (the paper's 30s timeout):
  // tpo-tm occasionally livelocks until the tick budget under stress.
  unsigned Timeouts = 0;
  Rng Master(808);
  for (unsigned I = 0; I != 120 && Timeouts == 0; ++I) {
    const AppVerdict V = runApplicationOnce(
        AppKind::TpoTm, titan(), SysPlus, tunedTitan(), nullptr,
        Master.fork(I).next());
    Timeouts += V == AppVerdict::Timeout;
  }
  EXPECT_GT(Timeouts, 0u);
}

TEST(AppFindingsTest, NativeErrorsOn770Hashtable) {
  // Tab. 5: the GTX 770 is the only chip with native cbe-ht errors.
  const sim::ChipProfile &C770 = *sim::ChipProfile::lookup("770");
  const auto Tuned = stress::TunedStressParams::paperDefaults(C770);
  unsigned Errors = 0;
  Rng Master(909);
  for (unsigned I = 0; I != 120; ++I)
    Errors += isErroneous(
        runApplicationOnce(AppKind::CbeHt, C770, NoStress, Tuned, nullptr,
                           Master.fork(I).next()));
  EXPECT_GT(Errors, 1u) << "770 drains slowly enough for native errors";
}

TEST(AppFindingsTest, VerdictNamesAreStable) {
  EXPECT_STREQ(appVerdictName(AppVerdict::Pass), "pass");
  EXPECT_STREQ(appVerdictName(AppVerdict::PostCondFail),
               "postcondition-fail");
  EXPECT_STREQ(appVerdictName(AppVerdict::Timeout), "timeout");
  EXPECT_STREQ(appVerdictName(AppVerdict::SimFault), "sim-fault");
}

//===----------------------------------------------------------------------===//
// Compiled application execution (DESIGN.md Sec. 19)
//===----------------------------------------------------------------------===//

namespace {

std::vector<uint64_t> forkSeeds(uint64_t Master, unsigned N) {
  Rng M(Master);
  std::vector<uint64_t> Seeds(N);
  for (unsigned I = 0; I != N; ++I)
    Seeds[I] = M.fork(I).next();
  return Seeds;
}

/// runApplicationOnce over \p Seeds on one context, with the engine the
/// current --engine mode picks.
std::vector<AppVerdict> runVerdicts(AppKind K, const sim::ChipProfile &Chip,
                                    const stress::Environment &Env,
                                    const sim::FencePolicy *Policy,
                                    const std::vector<uint64_t> &Seeds) {
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  sim::ExecutionContext Ctx;
  std::vector<AppVerdict> V;
  for (const uint64_t S : Seeds)
    V.push_back(runApplicationOnce(Ctx, K, Chip, Env, Tuned, Policy, S));
  return V;
}

/// The reference engine (--engine=scalar).
std::vector<AppVerdict> scalarVerdicts(AppKind K,
                                       const sim::ChipProfile &Chip,
                                       const stress::Environment &Env,
                                       const sim::FencePolicy *Policy,
                                       const std::vector<uint64_t> &Seeds) {
  EngineModeGuard Scalar(sim::EngineMode::Scalar);
  return runVerdicts(K, Chip, Env, Policy, Seeds);
}

} // namespace

class AppBatchIdentity : public ::testing::TestWithParam<AppKind> {};

TEST_P(AppBatchIdentity, MatchesScalarAcrossEnvironments) {
  // The tier-1 identity grid: every environment of the paper's sweep,
  // unfenced, 24 runs each, verdict-for-verdict agreement.
  const auto Seeds = forkSeeds(1010, 24);
  unsigned Timeouts = 0;
  for (const stress::Environment &Env : stress::Environment::all()) {
    const auto Scalar =
        scalarVerdicts(GetParam(), titan(), Env, nullptr, Seeds);
    const auto Compiled =
        runVerdicts(GetParam(), titan(), Env, nullptr, Seeds);
    EXPECT_EQ(Scalar, Compiled) << appName(GetParam()) << " " << Env.name();
    Timeouts += static_cast<unsigned>(
        std::count(Scalar.begin(), Scalar.end(), AppVerdict::Timeout));
  }
  // tpo-tm's livelocks are where the compiled engine stops a run early
  // (a provable timeout); the reference engine never does, so the grid
  // must hold some for the comparison to cover that path.
  if (GetParam() == AppKind::TpoTm) {
    EXPECT_GT(Timeouts, 0u);
  }
}

TEST_P(AppBatchIdentity, MatchesScalarUnderFencePolicies) {
  // Inserted fences reshape the op stream (two extra resumes per armed
  // site); sweep all-sites plus every single-site policy.
  const auto Seeds = forkSeeds(2020, 16);
  const unsigned NumSites = appNumSites(GetParam());
  std::vector<sim::FencePolicy> Policies;
  Policies.push_back(sim::FencePolicy::all(NumSites));
  for (unsigned S = 0; S != NumSites; ++S)
    Policies.push_back(sim::FencePolicy::ofSites(NumSites, {S}));
  for (const sim::FencePolicy &P : Policies) {
    const auto Scalar =
        scalarVerdicts(GetParam(), titan(), SysPlus, &P, Seeds);
    const auto Compiled = runVerdicts(GetParam(), titan(), SysPlus, &P, Seeds);
    EXPECT_EQ(Scalar, Compiled)
        << appName(GetParam()) << " policy " << P.count() << " sites";
  }
}

TEST_P(AppBatchIdentity, WidthSweepIncludingDegenerateAndOversized) {
  // runCell splits a cell into work units of CellChunkRuns runs: a single
  // run (degenerate), one short of a unit, and a unit plus a partial one
  // (oversized) must all fold to the scalar per-run verdicts.
  const auto Tuned = stress::TunedStressParams::paperDefaults(titan());
  ThreadPool Pool(2);
  for (const unsigned Runs :
       {1u, harness::CellChunkRuns - 1, harness::CellChunkRuns + 3}) {
    std::vector<uint64_t> Seeds(Runs);
    for (unsigned I = 0; I != Runs; ++I)
      Seeds[I] = Rng::deriveStream(3030, I);
    harness::CellResult Ref;
    Ref.Runs = Runs;
    for (const AppVerdict V :
         scalarVerdicts(GetParam(), titan(), SysPlus, nullptr, Seeds)) {
      Ref.Errors += isErroneous(V);
      Ref.Timeouts += V == AppVerdict::Timeout;
    }
    EXPECT_EQ(Ref, harness::runCell(GetParam(), titan(), SysPlus, Tuned,
                                    Runs, 3030, &Pool))
        << appName(GetParam()) << " runs " << Runs;
  }
}

TEST_P(AppBatchIdentity, ChipRebindingInterleavings) {
  // One context alternating between chips (and so between plan shapes —
  // Kepler's 32-word patches vs. Maxwell's 64) must match per-chip
  // scalar references run on fresh contexts.
  const sim::ChipProfile &C980 = *sim::ChipProfile::lookup("980");
  const auto Seeds = forkSeeds(4040, 10);
  const auto RefTitan =
      scalarVerdicts(GetParam(), titan(), SysPlus, nullptr, Seeds);
  const auto Ref980 =
      scalarVerdicts(GetParam(), C980, SysPlus, nullptr, Seeds);

  sim::ExecutionContext Ctx;
  for (size_t I = 0; I != Seeds.size(); ++I) {
    const sim::ChipProfile &Chip = I % 2 ? C980 : titan();
    const AppVerdict V = runApplicationOnce(
        Ctx, GetParam(), Chip, SysPlus,
        stress::TunedStressParams::paperDefaults(Chip), nullptr, Seeds[I]);
    EXPECT_EQ(V, (I % 2 ? Ref980 : RefTitan)[I])
        << appName(GetParam()) << " run " << I;
  }
}

TEST_P(AppBatchIdentity, TracedContextsFallBackToScalar) {
  // Tracing never picks the engine: a traced context falls back to the
  // reference engine only under --engine=scalar, and otherwise runs the
  // compiled plan — with the same verdicts and the same event stream.
  const auto Seeds = forkSeeds(5050, 6);
  const auto Tuned = stress::TunedStressParams::paperDefaults(titan());
  const auto Traced = [&](sim::EngineMode M) {
    EngineModeGuard Guard(M);
    sim::ExecutionContext Ctx;
    Ctx.requestTracing(true);
    std::vector<AppVerdict> V;
    std::vector<size_t> Events;
    for (const uint64_t S : Seeds) {
      V.push_back(runApplicationOnce(Ctx, GetParam(), titan(), SysPlus,
                                     Tuned, nullptr, S));
      Events.push_back(Ctx.trace().size());
    }
    return std::make_pair(V, Events);
  };
  const auto Scalar = Traced(sim::EngineMode::Scalar);
  const auto Compiled = Traced(sim::EngineMode::Auto);
  EXPECT_EQ(Scalar, Compiled) << appName(GetParam());
  EXPECT_EQ(Scalar.first,
            scalarVerdicts(GetParam(), titan(), SysPlus, nullptr, Seeds));
  for (const size_t N : Compiled.second)
    EXPECT_GT(N, 0u) << appName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Lowerable, AppBatchIdentity,
                         ::testing::ValuesIn(AllAppKinds),
                         [](const auto &Info) {
                           std::string N = appName(Info.param);
                           for (char &C : N)
                             if (C == '-')
                               C = '_';
                           return N;
                         });

TEST(AppBatchFallback, ScalarEngineModeForcesCoroutinePath) {
  // --engine=scalar must be honoured by runApplicationOnce (identity
  // again, but exercised through the mode switch).
  const auto Seeds = forkSeeds(7070, 6);
  const auto Compiled =
      runVerdicts(AppKind::CbeDot, titan(), SysPlus, nullptr, Seeds);
  EXPECT_EQ(Compiled,
            scalarVerdicts(AppKind::CbeDot, titan(), SysPlus, nullptr, Seeds));
}

//===----------------------------------------------------------------------===//
// ls-bh regression
//===----------------------------------------------------------------------===//

TEST(LsBhRegression, CampaignSeed4SummariseStaysInBounds) {
  // Campaign seed 4, cell 980/no-str-/ls-bh: an overflowed tree build
  // used to send the summarise kernel past the node arrays and outside
  // the memory image. The bounds checks stay on in Release, so a
  // regression aborts here.
  harness::CampaignConfig Cfg;
  Cfg.Seed = 4;
  Cfg.Runs = 8;
  const sim::ChipProfile &Chip = *sim::ChipProfile::lookup("980");
  const auto Env = *stress::Environment::parse("no-str-");
  const harness::CampaignCell Cell =
      harness::runCampaignAppCell(Cfg, Chip, Env, AppKind::LsBh, nullptr);
  EXPECT_EQ(Cell.Result.Runs, 8u);
}

//===----------------------------------------------------------------------===//
// ls-bh's SC reference: host evaluation against the simulated plan
//===----------------------------------------------------------------------===//

namespace {

using BodySet = std::pair<std::vector<sim::Word>, std::vector<sim::Word>>;

/// Bodies drawn like ls-bh's setup, from a square of side 2^Bits.
BodySet randomBodies(uint64_t Seed, unsigned Bits) {
  Rng R(Seed);
  BodySet B;
  for (unsigned I = 0; I != detail::LsBhNumBodies; ++I) {
    B.first.push_back(static_cast<sim::Word>(R.below(1u << Bits)));
    B.second.push_back(static_cast<sim::Word>(R.below(1u << Bits)));
  }
  return B;
}

} // namespace

TEST(LsBhReference, HostMatchesThePlanOnSeededBodySets) {
  // 1,700 sets over the app's whole space, and 600 crowded into a 32x32
  // square, where the concurrent build contends on every slot and some
  // sets hold coincident bodies. Wherever the host reference answers, it
  // equals the simulated plan's positions exactly.
  unsigned Answered = 0, Declined = 0;
  for (uint64_t Seed = 0; Seed != 2300; ++Seed) {
    const BodySet B = randomBodies(Seed, Seed < 1700 ? 14 : 5);
    std::vector<sim::Word> HostX, HostY, PlanX, PlanY;
    detail::lsBhPlanReference(titan(), B.first, B.second, PlanX, PlanY);
    if (!detail::lsBhHostReference(B.first, B.second, HostX, HostY)) {
      ++Declined;
      continue;
    }
    ++Answered;
    ASSERT_EQ(HostX, PlanX) << "body set " << Seed;
    ASSERT_EQ(HostY, PlanY) << "body set " << Seed;
  }
  EXPECT_GE(Answered, 2000u);
  EXPECT_GT(Declined, 0u); // The crowded sets reach the fallback.
}

TEST(LsBhReference, DegenerateSetsTakeTheCountedFallback) {
  // Coincident bodies split forever, and sixteen pairs of neighbours one
  // unit apart need 181 nodes: both exhaust the node pool, so the host
  // reference declines, and lsBhReference returns the plan reference and
  // counts one fallback each. An ordinary set takes no fallback.
  BodySet Coincident = randomBodies(1, 14);
  Coincident.first[7] = Coincident.first[3];
  Coincident.second[7] = Coincident.second[3];
  BodySet Pairs;
  for (unsigned I = 0; I != detail::LsBhNumBodies; ++I) {
    const unsigned Pair = I / 2;
    Pairs.first.push_back(4096 * (Pair % 4) + 2 + I % 2);
    Pairs.second.push_back(4096 * (Pair / 4) + 2);
  }
  for (const BodySet *B : {&Coincident, &Pairs}) {
    std::vector<sim::Word> X, Y, PlanX, PlanY;
    EXPECT_FALSE(detail::lsBhHostReference(B->first, B->second, X, Y));
    const uint64_t Before = detail::lsBhReferenceFallbacks();
    detail::lsBhReference(titan(), B->first, B->second, X, Y);
    EXPECT_EQ(detail::lsBhReferenceFallbacks(), Before + 1);
    detail::lsBhPlanReference(titan(), B->first, B->second, PlanX, PlanY);
    EXPECT_EQ(X, PlanX);
    EXPECT_EQ(Y, PlanY);
  }
  const BodySet Ordinary = randomBodies(2, 14);
  std::vector<sim::Word> X, Y;
  const uint64_t Before = detail::lsBhReferenceFallbacks();
  detail::lsBhReference(titan(), Ordinary.first, Ordinary.second, X, Y);
  EXPECT_EQ(detail::lsBhReferenceFallbacks(), Before);
}

//===----------------------------------------------------------------------===//
// Work of decided runs
//===----------------------------------------------------------------------===//

TEST(DecidedRunWork, TpoTmTimeoutsStopEarly) {
  // `gpuwmm test --app=tpo-tm --env=sys-str+ --runs=200 --seed=2`, run by
  // run on the compiled engine: the livelocked runs are cut once their
  // timeout is provable (DESIGN.md Sec. 19). Their summed atomics pin
  // how early; the proof tried only every 4096 ticks left 7,890,743, and
  // the quiet checkpoints must keep it at or below 60% of that.
  EngineModeGuard Guard(sim::EngineMode::Auto);
  const auto Env = *stress::Environment::parse("sys-str+");
  sim::ExecutionContext Ctx;
  unsigned Timeouts = 0;
  uint64_t Atomics = 0;
  for (unsigned Run = 0; Run != 200; ++Run)
    if (runApplicationOnce(Ctx, AppKind::TpoTm, titan(), Env, tunedTitan(),
                           nullptr, Rng::deriveStream(2, Run)) ==
        AppVerdict::Timeout) {
      ++Timeouts;
      Atomics += Ctx.memory().stats().Atomics;
    }
  EXPECT_EQ(Timeouts, 132u);
  EXPECT_EQ(Atomics, 4332459u);
  EXPECT_LE(Atomics, 7890743u * 6 / 10);
}
