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

#include "fuzz/LitmusBridge.h"
#include "fuzz/ProgramFuzzer.h"
#include "harden/LitmusHarden.h"
#include "litmus/Format.h"
#include "support/ShardIo.h"

#include "gtest/gtest.h"

#include <iterator>
#include <utility>

using namespace gpuwmm;
using namespace gpuwmm::fuzz;
using litmus::Program;

namespace {

const sim::ChipProfile &titan() {
  return *sim::ChipProfile::lookup("titan");
}

Program parse(const std::string &Text) {
  litmus::ParseError Err;
  std::optional<Program> P = litmus::parseLitmus(Text, Err);
  EXPECT_TRUE(P.has_value()) << Err.render("<test>");
  return P ? *P : Program();
}

/// The MP idiom as a fuzz program.
Program mpProgram() {
  return parse("litmus mp\nlocations v0 v1\n"
               "thread 0 {\n  st v0 1\n  st v1 1\n}\n"
               "thread 1 {\n  ld r0 v1\n  ld r1 v0\n}\n");
}

/// \p P with a fence after every access (Alg. 1's starting point).
Program fenceEverywhere(const Program &P) {
  return harden::applyLitmusFences(
      P, sim::FencePolicy::all(
             static_cast<unsigned>(harden::litmusFenceSites(P).size())));
}

} // namespace

//===----------------------------------------------------------------------===//
// SC enumerator
//===----------------------------------------------------------------------===//

TEST(ScEnumeratorTest, MpOutcomesMatchHandEnumeration) {
  // Outcome layout for MP: [r0=ld(v1), r1=ld(v0), final v0, final v1].
  const auto Sc = enumerateScOutcomes(mpProgram());
  // SC allows (0,0), (0,1)... r0=1 implies r1=1. Finals always (1,1).
  EXPECT_EQ(Sc.size(), 3u);
  EXPECT_TRUE(Sc.count({0, 0, 1, 1}));
  EXPECT_TRUE(Sc.count({0, 1, 1, 1}));
  EXPECT_TRUE(Sc.count({1, 1, 1, 1}));
  EXPECT_FALSE(Sc.count({1, 0, 1, 1})) << "the MP weak outcome is not SC";
}

TEST(ScEnumeratorTest, SbOutcomesMatchHandEnumeration) {
  const Program P = parse("litmus sb\nlocations v0 v1\n"
                          "thread 0 {\n  st v0 1\n  ld r0 v1\n}\n"
                          "thread 1 {\n  st v1 1\n  ld r1 v0\n}\n");
  const auto Sc = enumerateScOutcomes(P);
  // Outcome layout: [r0=ld(v1), r1=ld(v0), v0, v1]. SC forbids (0,0).
  EXPECT_FALSE(Sc.count({0, 0, 1, 1}));
  EXPECT_TRUE(Sc.count({1, 1, 1, 1}));
  EXPECT_TRUE(Sc.count({0, 1, 1, 1}));
  EXPECT_TRUE(Sc.count({1, 0, 1, 1}));
}

TEST(ScEnumeratorTest, AtomicsAccumulate) {
  const Program P = parse("litmus adds\nlocations v0\n"
                          "thread 0 {\n  add v0 3\n}\n"
                          "thread 1 {\n  add v0 5\n}\n");
  const auto Sc = enumerateScOutcomes(P);
  ASSERT_EQ(Sc.size(), 1u);
  EXPECT_TRUE(Sc.count({8})) << "adds commute; one final state";
}

TEST(ScEnumeratorTest, FencesAreScNoOps) {
  const Program P = mpProgram();
  EXPECT_EQ(enumerateScOutcomes(P), enumerateScOutcomes(fenceEverywhere(P)));
}

//===----------------------------------------------------------------------===//
// Program generation
//===----------------------------------------------------------------------===//

TEST(ProgramTest, GenerateRespectsBounds) {
  Rng R(5);
  for (int I = 0; I != 50; ++I) {
    const Program P = generateProgram(R, 3, 6, /*WithFences=*/false);
    EXPECT_EQ(P.validate(), "");
    EXPECT_EQ(fuzzabilityError(P), "");
    EXPECT_EQ(P.Locations.size(), 3u);
    ASSERT_EQ(P.Threads.size(), 2u);
    for (unsigned T = 0; T != 2; ++T) {
      EXPECT_EQ(P.Threads[T].Block, T);
      EXPECT_EQ(P.Threads[T].Ops.size(), 6u);
      for (const litmus::ProgOp &O : P.Threads[T].Ops) {
        EXPECT_NE(O.K, litmus::ProgOp::Kind::Fence);
        EXPECT_LT(O.Loc, 3u);
      }
    }
    EXPECT_EQ(P.PhaseJitter, StartJitter) << "must match the fuzz runner";
  }
}

TEST(ProgramTest, FullyFencedDoublesAccesses) {
  // The soundness property's transform: one fence after every access.
  Rng R(6);
  const Program P = generateProgram(R, 2, 5, false);
  const Program F = fenceEverywhere(P);
  EXPECT_EQ(F.Threads[0].Ops.size(), 10u);
  EXPECT_EQ(F.Threads[1].Ops.size(), 10u);
  EXPECT_EQ(fuzzabilityError(F), "");
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
        fenceEverywhere(generateProgram(R, 3, 4, /*WithFences=*/false));
    const FuzzResult Result =
        fuzzProgram(P, titan(), /*Runs=*/6, 1000 + I, /*Stressed=*/true);
    EXPECT_EQ(Result.WeakOutcomes, 0u)
        << "non-SC outcome from a fully fenced program:\n"
        << litmus::printLitmus(P);
  }
}

TEST(FuzzSoundnessTest, SequentialOutcomesAreScReachableUnfenced) {
  // The same property for plain programs on rare native runs: most
  // executions are SC; the few that are not are genuine weak behaviours.
  Rng R(99);
  unsigned Weak = 0, Total = 0;
  for (int I = 0; I != 30; ++I) {
    const Program P = generateProgram(R, 3, 4, false);
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
    const Program P = generateProgram(R, 3, 5, false);
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
          << litmus::printLitmus(Batch[I].P);
      EXPECT_EQ(Batch[I].R.DistinctWeak, Golden[I].second)
          << "program " << I << " on " << sim::engineModeName(Mode);
    }
  }
}

TEST(FuzzGoldenTest, BatchProgramsPinnedAtSeed2024) {
  // crc32 of each program of the batch above as `fuzz --export-weak`
  // prints it (weak ones with their first weak outcome pinned), recorded
  // when generation still went through a fuzz-only program type and a
  // conversion to the litmus IR. Any diff means the generator's draws or
  // the export layout changed, and every fuzz and hunt result with them.
  const uint32_t Golden[] = {
      0x944e3108, 0xbcd5e6b0, 0xb98ffdd5, 0xcca55e80, 0x322814e7, 0xd9a52e19,
      0x48e9ca72, 0xa45b9657, 0x14ee358f, 0x78c322bb, 0x79a68c2b, 0xa55a790d,
      0x42c58995, 0xa52da68a, 0x3d97d45b, 0xd1f5f2ca, 0xcfd4572c, 0x42eca148,
      0xaae90ce9, 0xc0020421, 0xc208d40b, 0xc9e12ce7, 0xbf659882, 0x120cc14a};
  BatchConfig Cfg;
  Cfg.Programs = static_cast<unsigned>(std::size(Golden));
  Cfg.RunsPerProgram = 150;
  const std::vector<BatchEntry> Batch = fuzzBatch(titan(), Cfg, 2024);
  ASSERT_EQ(Batch.size(), std::size(Golden));
  for (size_t I = 0; I != Batch.size(); ++I) {
    const FuzzResult &R = Batch[I].R;
    const std::string Text = litmus::printLitmus(
        toLitmusProgram(Batch[I].P, "fuzz-" + std::to_string(I),
                        R.WeakOutcomes ? &R.FirstWeak : nullptr));
    EXPECT_EQ(crc32(Text), Golden[I]) << "program " << I << ":\n" << Text;
  }
}
