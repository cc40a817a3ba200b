//===- tests/HardenTests.cpp - empirical fence insertion tests ------------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// Unit tests of Alg. 1 against deterministic mock oracles (binary/linear
// reduction behaviour, restart-with-doubled-iterations) and integration
// tests rediscovering the paper's fences on the real case studies.
//
//===----------------------------------------------------------------------===//

#include "harden/FenceInsertion.h"

#include "gtest/gtest.h"

#include <set>

using namespace gpuwmm;
using namespace gpuwmm::harden;
using sim::FencePolicy;

namespace {

/// Deterministic oracle: the program is stable iff the policy covers all
/// of a fixed set of required sites.
class RequiredSitesOracle final : public CheckOracle {
public:
  RequiredSitesOracle(unsigned NumSites, std::set<unsigned> Required)
      : NumSites(NumSites), Required(std::move(Required)) {}

  bool checkApplication(const FencePolicy &F, unsigned Iterations) override {
    ++Checks;
    IterationsUsed += Iterations;
    return covers(F);
  }

  bool empiricallyStable(const FencePolicy &F) override {
    ++StableChecks;
    return covers(F);
  }

  unsigned Checks = 0;
  unsigned StableChecks = 0;
  uint64_t IterationsUsed = 0;

private:
  bool covers(const FencePolicy &F) const {
    for (unsigned S : Required)
      if (!F.fenceAfter(static_cast<int>(S)))
        return false;
    return true;
  }

  unsigned NumSites;
  std::set<unsigned> Required;
};

/// An oracle whose CheckApplication misses bugs until the iteration count
/// is large enough — exercising Alg. 1's restart-with-doubled-I loop.
class FlakyOracle final : public CheckOracle {
public:
  FlakyOracle(unsigned NumSites, std::set<unsigned> Required,
              unsigned MinIterations)
      : Inner(NumSites, std::move(Required)), MinIterations(MinIterations) {}

  bool checkApplication(const FencePolicy &F, unsigned Iterations) override {
    if (Iterations < MinIterations)
      return true; // Too few runs: bugs go unnoticed.
    return Inner.checkApplication(F, Iterations);
  }

  bool empiricallyStable(const FencePolicy &F) override {
    return Inner.empiricallyStable(F);
  }

  RequiredSitesOracle Inner;
  unsigned MinIterations;
};

} // namespace

//===----------------------------------------------------------------------===//
// FencePolicy
//===----------------------------------------------------------------------===//

TEST(FencePolicyTest, Constructors) {
  EXPECT_EQ(FencePolicy::none(5).count(), 0u);
  EXPECT_EQ(FencePolicy::all(5).count(), 5u);
  const auto P = FencePolicy::ofSites(5, {1, 3});
  EXPECT_EQ(P.count(), 2u);
  EXPECT_TRUE(P.fenceAfter(1));
  EXPECT_TRUE(P.fenceAfter(3));
  EXPECT_FALSE(P.fenceAfter(0));
  EXPECT_FALSE(P.fenceAfter(sim::NoSite));
}

TEST(FencePolicyTest, SitesRoundTrip) {
  const auto P = FencePolicy::ofSites(8, {0, 4, 7});
  EXPECT_EQ(P.sites(), (std::vector<unsigned>{0, 4, 7}));
  EXPECT_EQ(FencePolicy::ofSites(8, P.sites()), P);
}

TEST(FencePolicyDeathTest, OutOfRangeSiteAbortsInEveryBuild) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH((void)FencePolicy::ofSites(4, {1, 4}),
               "check failed: fence site out of range");
  FencePolicy P = FencePolicy::none(4);
  EXPECT_DEATH(P.set(4, true), "check failed: fence site out of range");
  EXPECT_DEATH((void)P.fenceAfter(4), "check failed: unknown fence site");
}

//===----------------------------------------------------------------------===//
// Reductions against mock oracles
//===----------------------------------------------------------------------===//

TEST(ReductionTest, LinearRemovesAllUnnecessaryFences) {
  RequiredSitesOracle Oracle(10, {3, 7});
  const auto F =
      linearReduction(FencePolicy::all(10), Oracle, /*Iterations=*/4);
  EXPECT_EQ(F.sites(), (std::vector<unsigned>{3, 7}));
}

TEST(ReductionTest, LinearKeepsEverythingWhenAllRequired) {
  RequiredSitesOracle Oracle(4, {0, 1, 2, 3});
  const auto F = linearReduction(FencePolicy::all(4), Oracle, 4);
  EXPECT_EQ(F.count(), 4u);
}

TEST(ReductionTest, BinaryDiscardsWholeHalves) {
  // Required sites all in the second half: binary reduction can discard
  // the first half in one probe.
  RequiredSitesOracle Oracle(8, {6});
  const auto F = binaryReduction(FencePolicy::all(8), Oracle, 4);
  EXPECT_TRUE(F.fenceAfter(6));
  EXPECT_LE(F.count(), 2u);
  EXPECT_LE(Oracle.Checks, 8u) << "binary reduction is logarithmic-ish";
}

TEST(ReductionTest, BinaryStopsWhenBothHalvesNeeded) {
  // One required site per half: neither half can be removed wholesale.
  RequiredSitesOracle Oracle(8, {1, 6});
  const auto F = binaryReduction(FencePolicy::all(8), Oracle, 4);
  EXPECT_EQ(F.count(), 8u) << "worst case: binary reduction removes "
                              "nothing (paper Sec. 5.1)";
}

TEST(InsertionTest, ConvergesToExactRequiredSet) {
  RequiredSitesOracle Oracle(12, {2, 9});
  const auto R =
      empiricalFenceInsertion(FencePolicy::all(12), Oracle);
  EXPECT_TRUE(R.Stable);
  EXPECT_EQ(R.Rounds, 1u);
  EXPECT_EQ(R.Fences.sites(), (std::vector<unsigned>{2, 9}));
}

TEST(InsertionTest, ResultIsMinimal) {
  // Property: removing any fence from the converged set must break the
  // oracle — the paper's definition of the reduced set.
  RequiredSitesOracle Oracle(10, {0, 5, 9});
  const auto R = empiricalFenceInsertion(FencePolicy::all(10), Oracle);
  ASSERT_TRUE(R.Stable);
  for (unsigned S : R.Fences.sites()) {
    FencePolicy Without = R.Fences;
    Without.set(S, false);
    EXPECT_FALSE(Oracle.checkApplication(Without, 1))
        << "fence " << S << " is removable: result not minimal";
  }
}

TEST(InsertionTest, EmptyRequirementYieldsNoFences) {
  RequiredSitesOracle Oracle(6, {});
  const auto R = empiricalFenceInsertion(FencePolicy::all(6), Oracle);
  EXPECT_TRUE(R.Stable);
  EXPECT_EQ(R.Fences.count(), 0u);
}

TEST(InsertionTest, RestartsWithDoubledIterationsUntilStable) {
  // The oracle misses bugs below 128 iterations; the insertion loop must
  // double I (32 -> 64 -> 128) and restart from the full set (Alg. 1
  // lines 5-6).
  FlakyOracle Oracle(8, {4}, /*MinIterations=*/128);
  InsertionConfig Cfg;
  Cfg.InitialIterations = 32;
  const auto R = empiricalFenceInsertion(FencePolicy::all(8), Oracle, Cfg);
  EXPECT_TRUE(R.Stable);
  EXPECT_EQ(R.Rounds, 3u);
  EXPECT_TRUE(R.Fences.fenceAfter(4));
}

TEST(InsertionTest, GivesUpAfterMaxRounds) {
  // An oracle that never stabilises.
  class NeverStable final : public CheckOracle {
  public:
    bool checkApplication(const FencePolicy &, unsigned) override {
      return true; // Everything looks removable...
    }
    bool empiricallyStable(const FencePolicy &) override {
      return false; // ...but nothing is ever stable.
    }
  };
  NeverStable Oracle;
  InsertionConfig Cfg;
  Cfg.MaxRounds = 3;
  const auto R = empiricalFenceInsertion(FencePolicy::all(4), Oracle, Cfg);
  EXPECT_FALSE(R.Stable);
  EXPECT_EQ(R.Rounds, 3u);
}

//===----------------------------------------------------------------------===//
// Integration: rediscovering the paper's fences
//===----------------------------------------------------------------------===//

TEST(InsertionIntegration, CbeDotFindsTheCriticalSectionStoreFence) {
  // The paper's running example: a single fence after the store to *c
  // (before the unlock), matching the hand analysis of [8].
  const auto &Chip = *sim::ChipProfile::lookup("titan");
  AppCheckOracle Oracle(apps::AppKind::CbeDot, Chip, 4242,
                        /*StableRuns=*/200);
  const unsigned NumSites = apps::appNumSites(apps::AppKind::CbeDot);
  const auto R =
      empiricalFenceInsertion(FencePolicy::all(NumSites), Oracle);
  ASSERT_TRUE(R.Stable);
  ASSERT_EQ(R.Fences.count(), 1u);
  const auto App = apps::makeApp(apps::AppKind::CbeDot);
  EXPECT_STREQ(App->siteName(R.Fences.sites()[0]), "critical: store *c");
}

TEST(InsertionIntegration, CbeHtFindsTheHeadPublishFence) {
  const auto &Chip = *sim::ChipProfile::lookup("titan");
  AppCheckOracle Oracle(apps::AppKind::CbeHt, Chip, 4243,
                        /*StableRuns=*/200);
  const unsigned NumSites = apps::appNumSites(apps::AppKind::CbeHt);
  const auto R =
      empiricalFenceInsertion(FencePolicy::all(NumSites), Oracle);
  ASSERT_TRUE(R.Stable);
  ASSERT_EQ(R.Fences.count(), 1u);
  const auto App = apps::makeApp(apps::AppKind::CbeHt);
  EXPECT_STREQ(App->siteName(R.Fences.sites()[0]),
               "insert: store bucket head");
}

TEST(InsertionIntegration, HardenedPolicyIsEmpiricallyStable) {
  // Whatever set the insertion returns for ct-octree must pass a fresh
  // stability check with a different seed.
  const auto &Chip = *sim::ChipProfile::lookup("k20");
  const unsigned NumSites = apps::appNumSites(apps::AppKind::CtOctree);
  AppCheckOracle Search(apps::AppKind::CtOctree, Chip, 4244, 150);
  const auto R =
      empiricalFenceInsertion(FencePolicy::all(NumSites), Search);
  ASSERT_TRUE(R.Stable);
  AppCheckOracle Verify(apps::AppKind::CtOctree, Chip, 999, 150);
  EXPECT_TRUE(Verify.empiricallyStable(R.Fences));
}
