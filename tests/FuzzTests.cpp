//===- tests/FuzzTests.cpp - random-program fuzzing tests ------------------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// Tests the exhaustive SC reference against hand-computed outcome sets and
// property-tests the memory model's soundness on random programs: with a
// fence after every access, the weak machine only ever produces
// SC-reachable outcomes, even under the aggressive testing environment.
//
//===----------------------------------------------------------------------===//

#include "EngineModeGuard.h"

#include "fuzz/ProgramFuzzer.h"

#include "gtest/gtest.h"

#include <iterator>
#include <utility>

using namespace gpuwmm;
using namespace gpuwmm::fuzz;

namespace {

const sim::ChipProfile &titan() {
  return *sim::ChipProfile::lookup("titan");
}

/// Builds the MP idiom as a fuzzer program:
///   T0: st(v0,1) st(v1,1)      T1: ld(v1) ld(v0)
Program mpProgram() {
  Program P;
  P.NumVars = 2;
  P.Thread[0] = {{Op::Kind::Store, 0, 1}, {Op::Kind::Store, 1, 1}};
  P.Thread[1] = {{Op::Kind::Load, 1, 0}, {Op::Kind::Load, 0, 0}};
  return P;
}

} // namespace

//===----------------------------------------------------------------------===//
// SC enumerator
//===----------------------------------------------------------------------===//

TEST(ScEnumeratorTest, MpOutcomesMatchHandEnumeration) {
  // Outcome layout for MP: [r1=ld(v1), r2=ld(v0), final v0, final v1].
  const auto Sc = enumerateScOutcomes(mpProgram());
  // SC allows (0,0), (0,1)... r1=1 implies r2=1. Finals always (1,1).
  EXPECT_EQ(Sc.size(), 3u);
  EXPECT_TRUE(Sc.count({0, 0, 1, 1}));
  EXPECT_TRUE(Sc.count({0, 1, 1, 1}));
  EXPECT_TRUE(Sc.count({1, 1, 1, 1}));
  EXPECT_FALSE(Sc.count({1, 0, 1, 1})) << "the MP weak outcome is not SC";
}

TEST(ScEnumeratorTest, SbOutcomesMatchHandEnumeration) {
  // SB: T0: st(v0,1) ld(v1); T1: st(v1,1) ld(v0).
  Program P;
  P.NumVars = 2;
  P.Thread[0] = {{Op::Kind::Store, 0, 1}, {Op::Kind::Load, 1, 0}};
  P.Thread[1] = {{Op::Kind::Store, 1, 1}, {Op::Kind::Load, 0, 0}};
  const auto Sc = enumerateScOutcomes(P);
  // Outcome layout: [r1=ld(v1), r2=ld(v0), v0, v1]. SC forbids (0,0).
  EXPECT_FALSE(Sc.count({0, 0, 1, 1}));
  EXPECT_TRUE(Sc.count({1, 1, 1, 1}));
  EXPECT_TRUE(Sc.count({0, 1, 1, 1}));
  EXPECT_TRUE(Sc.count({1, 0, 1, 1}));
}

TEST(ScEnumeratorTest, AtomicsAccumulate) {
  Program P;
  P.NumVars = 1;
  P.Thread[0] = {{Op::Kind::AtomicAdd, 0, 3}};
  P.Thread[1] = {{Op::Kind::AtomicAdd, 0, 5}};
  const auto Sc = enumerateScOutcomes(P);
  ASSERT_EQ(Sc.size(), 1u);
  EXPECT_TRUE(Sc.count({8})) << "adds commute; one final state";
}

TEST(ScEnumeratorTest, FencesAreScNoOps) {
  Program P = mpProgram();
  const auto Plain = enumerateScOutcomes(P);
  const auto Fenced = enumerateScOutcomes(P.fullyFenced());
  EXPECT_EQ(Plain, Fenced);
}

//===----------------------------------------------------------------------===//
// Program generation
//===----------------------------------------------------------------------===//

TEST(ProgramTest, GenerateRespectsBounds) {
  Rng R(5);
  for (int I = 0; I != 50; ++I) {
    const Program P = Program::generate(R, 3, 6, /*WithFences=*/false);
    EXPECT_EQ(P.NumVars, 3u);
    for (unsigned T = 0; T != 2; ++T) {
      EXPECT_EQ(P.Thread[T].size(), 6u);
      for (const Op &O : P.Thread[T]) {
        EXPECT_NE(O.K, Op::Kind::Fence);
        EXPECT_LT(O.Var, 3u);
      }
    }
  }
}

TEST(ProgramTest, FullyFencedDoublesAccesses) {
  Rng R(6);
  const Program P = Program::generate(R, 2, 5, false);
  const Program F = P.fullyFenced();
  EXPECT_EQ(F.Thread[0].size(), 10u);
  EXPECT_EQ(F.Thread[1].size(), 10u);
}

TEST(ProgramTest, ListingMentionsEveryOpKind) {
  Program P;
  P.NumVars = 1;
  P.Thread[0] = {{Op::Kind::Store, 0, 7},
                 {Op::Kind::Load, 0, 0},
                 {Op::Kind::AtomicAdd, 0, 1},
                 {Op::Kind::Fence, 0, 0}};
  const std::string S = P.str();
  EXPECT_NE(S.find("st(v0,7)"), std::string::npos);
  EXPECT_NE(S.find("ld(v0)"), std::string::npos);
  EXPECT_NE(S.find("add(v0,1)"), std::string::npos);
  EXPECT_NE(S.find("fence"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Weak-machine soundness (the headline property)
//===----------------------------------------------------------------------===//

TEST(FuzzSoundnessTest, FullyFencedOutcomesAreAlwaysScReachable) {
  // 60 random programs, each fully fenced, each run 6 times under the
  // aggressive environment: every outcome must be SC-reachable. This is
  // the model-soundness property the whole reproduction rests on.
  Rng R(4242);
  for (int I = 0; I != 60; ++I) {
    const Program P =
        Program::generate(R, 3, 4, /*WithFences=*/false).fullyFenced();
    const FuzzResult Result =
        fuzzProgram(P, titan(), /*Runs=*/6, 1000 + I, /*Stressed=*/true);
    EXPECT_EQ(Result.WeakOutcomes, 0u)
        << "non-SC outcome from a fully fenced program:\n"
        << P.str();
  }
}

TEST(FuzzSoundnessTest, SequentialOutcomesAreScReachableUnfenced) {
  // The same property for plain programs on rare native runs: most
  // executions are SC; the few that are not are genuine weak behaviours.
  Rng R(99);
  unsigned Weak = 0, Total = 0;
  for (int I = 0; I != 30; ++I) {
    const Program P = Program::generate(R, 3, 4, false);
    const FuzzResult Result =
        fuzzProgram(P, titan(), 10, 2000 + I, /*Stressed=*/false);
    Weak += Result.WeakOutcomes;
    Total += Result.Runs;
  }
  EXPECT_LT(Weak * 50, Total) << "native weak outcomes must be rare (<2%)";
}

TEST(FuzzWeaknessTest, StressExposesWeakOutcomesOnRandomPrograms) {
  // Black-box generality (the paper's Sec. 3 goal): the tuned stress
  // provokes non-SC outcomes on arbitrary unfenced programs, not just the
  // three hand-written litmus idioms.
  Rng R(77);
  unsigned ProgramsWithWeak = 0;
  for (int I = 0; I != 25; ++I) {
    const Program P = Program::generate(R, 3, 5, false);
    const FuzzResult Result =
        fuzzProgram(P, titan(), 40, 3000 + I, /*Stressed=*/true);
    ProgramsWithWeak += Result.WeakOutcomes > 0;
  }
  EXPECT_GE(ProgramsWithWeak, 5u)
      << "the tuned environment must surface weak behaviour on a healthy "
         "fraction of random programs";
}

TEST(FuzzWeaknessTest, MpWeakOutcomeIsObservableUnderStress) {
  const FuzzResult Result =
      fuzzProgram(mpProgram(), titan(), 300, 555, /*Stressed=*/true);
  EXPECT_GT(Result.WeakOutcomes, 5u);
  EXPECT_GE(Result.DistinctWeak, 1u);
  EXPECT_EQ(Result.ScSetSize, 3u);
}

//===----------------------------------------------------------------------===//
// Golden outcomes
//===----------------------------------------------------------------------===//

TEST(FuzzGoldenTest, BatchWeakCountsPinnedAtSeed2024) {
  // Per-program weak counts of one stressed fuzzBatch on titan, recorded
  // from the coroutine interpreter the fuzzer kept beside its compiled
  // path until both engines came to share fuzz::compileProgram's lowering.
  // The engine-identity tests cannot see a bug in that shared lowering;
  // this golden pins it against the historical behaviour on both engines.
  // Regenerate by copying the reported actuals — but any diff here means
  // fuzz execution semantics changed and fuzz/hunt reproducibility is
  // broken.
  const std::pair<unsigned, unsigned> Golden[] = {
      {1, 1},  {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0},  {0, 0},
      {15, 5}, {12, 2}, {3, 1}, {8, 2}, {0, 0}, {0, 0}, {0, 0},  {0, 0},
      {0, 0},  {0, 0}, {0, 0}, {3, 1}, {12, 1}, {0, 0}, {0, 0}, {0, 0}};
  BatchConfig Cfg;
  Cfg.Programs = static_cast<unsigned>(std::size(Golden));
  Cfg.RunsPerProgram = 150;
  for (const sim::EngineMode Mode :
       {sim::EngineMode::Auto, sim::EngineMode::Scalar}) {
    EngineModeGuard Guard(Mode);
    const std::vector<BatchEntry> Batch = fuzzBatch(titan(), Cfg, 2024);
    ASSERT_EQ(Batch.size(), std::size(Golden));
    for (size_t I = 0; I != Batch.size(); ++I) {
      EXPECT_EQ(Batch[I].R.WeakOutcomes, Golden[I].first)
          << "program " << I << " on " << sim::engineModeName(Mode) << ":\n"
          << Batch[I].P.str();
      EXPECT_EQ(Batch[I].R.DistinctWeak, Golden[I].second)
          << "program " << I << " on " << sim::engineModeName(Mode);
    }
  }
}
