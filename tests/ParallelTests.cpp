//===- tests/ParallelTests.cpp - Parallel engine & determinism -----------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// The parallel campaign engine's determinism contract (DESIGN.md Sec. 11):
// for a fixed base seed, results of every parallelized layer are
// bit-identical to serial execution regardless of the job count, because
// every cell/trial/program owns an independently derived RNG stream. Each
// suite here runs one layer serially and on an 8-job pool and asserts
// equality; the golden test additionally pins a Tab. 5 sub-grid so silent
// simulator drift fails loudly.
//
//===----------------------------------------------------------------------===//

#include "EngineModeGuard.h"

#include "fuzz/ProgramFuzzer.h"
#include "harden/FenceInsertion.h"
#include "harness/Campaign.h"
#include "harness/EnvironmentRunner.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "tuning/PatchFinder.h"
#include "tuning/SequenceTuner.h"
#include "tuning/SpreadTuner.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

using namespace gpuwmm;

namespace {

const sim::ChipProfile &chip(const char *Name) {
  const sim::ChipProfile *Chip = sim::ChipProfile::lookup(Name);
  EXPECT_NE(Chip, nullptr);
  return *Chip;
}

//===----------------------------------------------------------------------===//
// Rng::deriveStream
//===----------------------------------------------------------------------===//

TEST(DeriveStreamTest, PureAndOrderIndependent) {
  // A pure function of (base, index): recomputing in any order, on any
  // "history", yields the same seeds.
  std::vector<uint64_t> Forward;
  for (uint64_t I = 0; I != 256; ++I)
    Forward.push_back(Rng::deriveStream(123, I));
  for (uint64_t I = 256; I != 0; --I)
    EXPECT_EQ(Rng::deriveStream(123, I - 1), Forward[I - 1]);
}

TEST(DeriveStreamTest, DistinctAcrossIndicesAndBases) {
  std::set<uint64_t> Seen;
  for (uint64_t Base : {0ull, 1ull, 2ull, 42ull, ~0ull})
    for (uint64_t I = 0; I != 4096; ++I)
      Seen.insert(Rng::deriveStream(Base, I));
  // All 5 * 4096 derived seeds distinct: no stream aliasing between
  // adjacent indices or adjacent user seeds.
  EXPECT_EQ(Seen.size(), 5u * 4096u);
}

TEST(DeriveStreamTest, StreamsAreNonOverlapping) {
  // Independently derived generators should share no outputs in a long
  // prefix (a collision among 64-bit outputs is astronomically unlikely,
  // and this is deterministic given the implementation).
  std::set<uint64_t> Outputs;
  constexpr unsigned NumStreams = 16;
  constexpr unsigned Draws = 512;
  for (uint64_t S = 0; S != NumStreams; ++S) {
    Rng Stream(Rng::deriveStream(7, S));
    for (unsigned I = 0; I != Draws; ++I)
      Outputs.insert(Stream.next());
  }
  EXPECT_EQ(Outputs.size(), size_t(NumStreams) * Draws);
}

TEST(DeriveStreamTest, ForkMatchesDeriveStream) {
  // Rng::fork is the stateful spelling of deriveStream; the campaign
  // engine relies on runner-internal forks staying pure in the seed.
  Rng A(99);
  A.next();
  A.next(); // Draws must not affect forking.
  Rng Forked = A.fork(5);
  Rng Derived(Rng::deriveStream(99, 5));
  for (int I = 0; I != 16; ++I)
    EXPECT_EQ(Forked.next(), Derived.next());
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.jobs(), 4u);
  std::vector<std::atomic<unsigned>> Hits(1000);
  Pool.parallelFor(Hits.size(), [&](size_t I) { ++Hits[I]; });
  for (const auto &H : Hits)
    EXPECT_EQ(H.load(), 1u);
}

TEST(ThreadPoolTest, SingleJobRunsInline) {
  ThreadPool Pool(1);
  std::vector<unsigned> Order;
  Pool.parallelFor(8, [&](size_t I) { Order.push_back(unsigned(I)); });
  EXPECT_EQ(Order, (std::vector<unsigned>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ThreadPoolTest, EmptyAndSingletonLoops) {
  ThreadPool Pool(4);
  unsigned Calls = 0;
  Pool.parallelFor(0, [&](size_t) { ++Calls; });
  EXPECT_EQ(Calls, 0u);
  Pool.parallelFor(1, [&](size_t I) {
    EXPECT_EQ(I, 0u);
    ++Calls;
  });
  EXPECT_EQ(Calls, 1u);
}

TEST(ThreadPoolTest, ReusableAcrossManyBatches) {
  // Many small batches back to back: exercises the generation handshake
  // (and is the prime ThreadSanitizer target).
  ThreadPool Pool(4);
  std::atomic<uint64_t> Sum{0};
  uint64_t Expected = 0;
  for (unsigned Batch = 0; Batch != 100; ++Batch) {
    const size_t N = Batch % 7; // Includes empty batches.
    for (size_t I = 0; I != N; ++I)
      Expected += Batch * I;
    Pool.parallelFor(N, [&, Batch](size_t I) { Sum += Batch * I; });
  }
  EXPECT_EQ(Sum.load(), Expected);
}

TEST(ThreadPoolTest, MoreJobsThanWork) {
  ThreadPool Pool(8);
  std::vector<std::atomic<unsigned>> Hits(3);
  Pool.parallelFor(Hits.size(), [&](size_t I) { ++Hits[I]; });
  for (const auto &H : Hits)
    EXPECT_EQ(H.load(), 1u);
}

//===----------------------------------------------------------------------===//
// Layer determinism: parallel == serial, bit for bit
//===----------------------------------------------------------------------===//

TEST(ParallelDeterminismTest, RunCell) {
  const auto &Chip = chip("titan");
  const stress::Environment Env{stress::StressKind::Sys, true};
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  const auto Serial = harness::runCell(apps::AppKind::CbeDot, Chip, Env,
                                       Tuned, /*Runs=*/40, /*Seed=*/5);
  ThreadPool Pool(8);
  const auto Parallel = harness::runCell(apps::AppKind::CbeDot, Chip, Env,
                                         Tuned, 40, 5, &Pool);
  EXPECT_EQ(Serial, Parallel);
  EXPECT_EQ(Serial.Runs, 40u);
}

TEST(ParallelDeterminismTest, EnvironmentSummary) {
  const auto &Chip = chip("980");
  const stress::Environment Env{stress::StressKind::Sys, true};
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  const auto Serial =
      harness::runEnvironmentSummary(Chip, Env, Tuned, /*Runs=*/10, 17);
  ThreadPool Pool(8);
  const auto Parallel =
      harness::runEnvironmentSummary(Chip, Env, Tuned, 10, 17, &Pool);
  EXPECT_EQ(Serial, Parallel);
}

TEST(ParallelDeterminismTest, EnvironmentSummaryMatchesPerAppCells) {
  // The summary's per-app cells are runCell at the app's derived stream —
  // the composition contract call sites rely on.
  const auto &Chip = chip("titan");
  const stress::Environment Env{stress::StressKind::Sys, true};
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  const uint64_t Seed = 23;
  harness::EnvironmentSummary Expected;
  for (size_t A = 0; A != apps::AllAppKinds.size(); ++A) {
    const auto Cell =
        harness::runCell(apps::AllAppKinds[A], Chip, Env, Tuned, 8,
                         Rng::deriveStream(Seed, A));
    Expected.AppsWithErrors += Cell.observed();
    Expected.AppsEffective += Cell.effective();
  }
  EXPECT_EQ(harness::runEnvironmentSummary(Chip, Env, Tuned, 8, Seed),
            Expected);
}

TEST(ParallelDeterminismTest, PatchFinderScan) {
  tuning::PatchFinder Serial(chip("k20"), 31);
  tuning::PatchFinder Parallel(chip("k20"), 31);
  tuning::PatchFinder::Config Cfg;
  Cfg.NumLocations = 48;
  Cfg.Distances = {16, 32, 64};
  Cfg.Executions = 3;
  // The serial arm runs the reference engine: histograms must
  // be invariant to both jobs and engine.
  const auto A = [&] {
    EngineModeGuard Scalar(sim::EngineMode::Scalar);
    return Serial.scan(Cfg);
  }();
  ThreadPool Pool(8);
  const auto B = Parallel.scan(Cfg, &Pool);
  EXPECT_EQ(A.Hist, B.Hist);
  EXPECT_EQ(Serial.executions(), Parallel.executions());
  EXPECT_EQ(Serial.executions(), uint64_t(3 * 3 * 48) * 3);
}

TEST(ParallelDeterminismTest, SequenceTunerRanking) {
  tuning::SequenceTuner Serial(chip("titan"), 37);
  tuning::SequenceTuner Parallel(chip("titan"), 37);
  tuning::SequenceTuner::Config Cfg;
  Cfg.NumLocations = 64; // One patch-aligned location on a 64-word chip.
  Cfg.Executions = 2;
  // Rankings are invariant to jobs and engine.
  const auto A = [&] {
    EngineModeGuard Scalar(sim::EngineMode::Scalar);
    return Serial.rankAll(64, Cfg);
  }();
  ThreadPool Pool(8);
  const auto B = Parallel.rankAll(64, Cfg, &Pool);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Seq.str(), B[I].Seq.str());
    EXPECT_EQ(A[I].Scores, B[I].Scores);
  }
  EXPECT_EQ(Serial.executions(), Parallel.executions());
}

TEST(ParallelDeterminismTest, SpreadTunerRanking) {
  tuning::SpreadTuner Serial(chip("k20"), 41);
  tuning::SpreadTuner Parallel(chip("k20"), 41);
  tuning::SpreadTuner::Config Cfg;
  Cfg.MaxSpread = 6;
  Cfg.Executions = 8;
  const auto Seq = stress::AccessSequence::parse("st ld");
  // Rankings are invariant to jobs and engine.
  const auto A = [&] {
    EngineModeGuard Scalar(sim::EngineMode::Scalar);
    return Serial.rankAll(32, Seq, Cfg);
  }();
  ThreadPool Pool(8);
  const auto B = Parallel.rankAll(32, Seq, Cfg, &Pool);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Spread, B[I].Spread);
    EXPECT_EQ(A[I].Scores, B[I].Scores);
  }
}

TEST(ParallelDeterminismTest, FenceInsertion) {
  const auto &Chip = chip("titan");
  harden::InsertionConfig Config;
  Config.InitialIterations = 8;
  Config.MaxRounds = 4;
  const unsigned NumSites = apps::appNumSites(apps::AppKind::CbeDot);

  harden::AppCheckOracle SerialOracle(apps::AppKind::CbeDot, Chip, 11,
                                      /*StableRuns=*/24);
  const auto A = harden::empiricalFenceInsertion(
      sim::FencePolicy::all(NumSites), SerialOracle, Config);

  ThreadPool Pool(8);
  harden::AppCheckOracle ParallelOracle(apps::AppKind::CbeDot, Chip, 11, 24,
                                        &Pool);
  const auto B = harden::empiricalFenceInsertion(
      sim::FencePolicy::all(NumSites), ParallelOracle, Config);

  EXPECT_EQ(A.Fences.sites(), B.Fences.sites());
  EXPECT_EQ(A.Stable, B.Stable);
  EXPECT_EQ(A.Rounds, B.Rounds);
  // The oracle's early exit is chunk-granular (full fixed-size chunks
  // always execute), so its execution count is jobs-invariant too.
  EXPECT_EQ(SerialOracle.executions(), ParallelOracle.executions());
}

TEST(ParallelDeterminismTest, FuzzBatch) {
  fuzz::BatchConfig Cfg;
  Cfg.Programs = 6;
  Cfg.RunsPerProgram = 8;
  const auto A = fuzz::fuzzBatch(chip("980"), Cfg, 13);
  ThreadPool Pool(8);
  const auto B = fuzz::fuzzBatch(chip("980"), Cfg, 13, &Pool);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_TRUE(A[I].P == B[I].P) << "program " << I;
    EXPECT_EQ(A[I].R.WeakOutcomes, B[I].R.WeakOutcomes);
    EXPECT_EQ(A[I].R.DistinctWeak, B[I].R.DistinctWeak);
    EXPECT_EQ(A[I].R.DistinctScSeen, B[I].R.DistinctScSeen);
    EXPECT_EQ(A[I].R.ScSetSize, B[I].R.ScSetSize);
  }
}

//===----------------------------------------------------------------------===//
// Campaign: JSON byte-stability and cell/seed contracts
//===----------------------------------------------------------------------===//

harness::CampaignConfig smallGrid() {
  harness::CampaignConfig Config;
  Config.Chips = {sim::ChipProfile::lookup("titan"),
                  sim::ChipProfile::lookup("k20")};
  Config.Envs = {{stress::StressKind::None, false},
                 {stress::StressKind::Sys, true}};
  Config.Apps = {apps::AppKind::CbeDot, apps::AppKind::SdkRedNf};
  Config.Runs = 10;
  Config.Seed = 3;
  return Config;
}

TEST(CampaignTest, JsonIsJobsInvariant) {
  const auto Config = smallGrid();
  const auto Serial = harness::runCampaign(Config);
  ThreadPool Pool(8);
  const auto Parallel = harness::runCampaign(Config, &Pool);

  std::ostringstream A, B;
  harness::writeCampaignJson(Serial, A);
  harness::writeCampaignJson(Parallel, B);
  EXPECT_EQ(A.str(), B.str());
  EXPECT_NE(A.str().find("\"schema\": \"gpuwmm-campaign-v2\""),
            std::string::npos);
  EXPECT_NE(A.str().find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(A.str().find("\"tool\": {\"name\": \"gpuwmm\""),
            std::string::npos);
  // The oracle was off: its fields must not dirty the report.
  EXPECT_EQ(A.str().find("oracle"), std::string::npos);
}

TEST(CampaignTest, CellsMatchDirectRunCell) {
  // Campaign cells are exactly runCell at the cell's canonical derived
  // seed — so any sub-grid reproduces the full grid's cells.
  const auto Config = smallGrid();
  const auto Report = harness::runCampaign(Config);
  ASSERT_EQ(Report.Cells.size(), 8u);
  for (const harness::CampaignCell &Cell : Report.Cells) {
    const auto Direct = harness::runCell(
        Cell.App, *Cell.Chip, Cell.Env,
        stress::TunedStressParams::paperDefaults(*Cell.Chip), Config.Runs,
        harness::campaignCellSeed(Config.Seed, *Cell.Chip, Cell.Env,
                                  Cell.App));
    EXPECT_EQ(Cell.Result, Direct);
  }
}

TEST(CampaignTest, CellSeedsIgnoreSelectionOrder) {
  // Seeds derive from canonical identity, not selection position.
  const auto &Titan = chip("titan");
  const auto &K20 = chip("k20");
  const stress::Environment Env{stress::StressKind::Sys, true};
  EXPECT_EQ(
      harness::campaignCellSeed(1, Titan, Env, apps::AppKind::CbeDot),
      harness::campaignCellSeed(1, Titan, Env, apps::AppKind::CbeDot));
  EXPECT_NE(harness::campaignCellSeed(1, Titan, Env, apps::AppKind::CbeDot),
            harness::campaignCellSeed(1, K20, Env, apps::AppKind::CbeDot));

  auto Config = smallGrid();
  const auto Report = harness::runCampaign(Config);
  std::swap(Config.Chips[0], Config.Chips[1]);
  std::reverse(Config.Apps.begin(), Config.Apps.end());
  const auto Swapped = harness::runCampaign(Config);
  // Same (chip, env, app) tuple -> same result, wherever it sits.
  for (const harness::CampaignCell &Cell : Report.Cells)
    for (const harness::CampaignCell &Other : Swapped.Cells)
      if (Cell.Chip == Other.Chip && Cell.App == Other.App &&
          Cell.Env.Kind == Other.Env.Kind &&
          Cell.Env.Randomise == Other.Env.Randomise) {
        EXPECT_EQ(Cell.Result, Other.Result);
      }
}

//===----------------------------------------------------------------------===//
// Golden regression: a pinned Tab. 5 sub-grid
//===----------------------------------------------------------------------===//

TEST(GoldenCampaignTest, SubGridSummariesArePinned) {
  // 2 chips x 3 environments x all 10 apps, 20 runs at seed 42. These
  // exact counts are a regression anchor: a simulator or seed-derivation
  // change that silently shifts Tab. 5 error rates must fail here, not
  // slip through. Regenerate with: gpuwmm campaign --chips=titan,980
  //   --envs=no-str-,sys-str+,rand-str+ --runs=20 --seed=42 --jobs=1
  harness::CampaignConfig Config;
  Config.Chips = {sim::ChipProfile::lookup("titan"),
                  sim::ChipProfile::lookup("980")};
  Config.Envs = {{stress::StressKind::None, false},
                 {stress::StressKind::Sys, true},
                 {stress::StressKind::Rand, true}};
  Config.Apps.assign(apps::AllAppKinds.begin(), apps::AllAppKinds.end());
  Config.Runs = 20;
  Config.Seed = 42;

  ThreadPool Pool; // Default jobs: the golden values are jobs-invariant.
  const auto Report = harness::runCampaign(Config, &Pool);

  struct Golden {
    const char *Chip;
    const char *Env;
    unsigned AppsEffective;
    unsigned AppsWithErrors;
  };
  const Golden Expected[] = {
      {"titan", "no-str-", 0, 0}, {"titan", "sys-str+", 7, 7},
      {"titan", "rand-str+", 1, 2}, {"980", "no-str-", 0, 0},
      {"980", "sys-str+", 6, 8},    {"980", "rand-str+", 1, 3},
  };
  ASSERT_EQ(Report.Summaries.size(), std::size(Expected));
  for (size_t C = 0; C != Config.Chips.size(); ++C)
    for (size_t E = 0; E != Config.Envs.size(); ++E) {
      const Golden &G = Expected[C * Config.Envs.size() + E];
      ASSERT_STREQ(Config.Chips[C]->ShortName, G.Chip);
      ASSERT_EQ(Config.Envs[E].name(), G.Env);
      const harness::EnvironmentSummary &S = Report.summary(C, E);
      EXPECT_EQ(S.AppsEffective, G.AppsEffective)
          << G.Chip << " under " << G.Env;
      EXPECT_EQ(S.AppsWithErrors, G.AppsWithErrors)
          << G.Chip << " under " << G.Env;
    }
}

TEST(GoldenCampaignTest, TitanSeed4JsonIsPinnedOnBothEngines) {
  // The whole Tab. 5 grid on titan (all ten apps, all eight
  // environments), 20 runs at seed 4, byte for byte against the report
  // recorded from the hand-written coroutine kernels the lowered plans
  // replaced; only each cell's "engine" field is masked. With those
  // bodies gone, this golden (and the Fig. 5 cost golden in HarnessTests)
  // is the independent reference for the lowerings. Regenerate with:
  //   gpuwmm campaign --chips=titan --runs=20 --seed=4
  //     --out=tests/golden/campaign-titan-seed4.json
  std::ifstream In(GPUWMM_GOLDEN_DIR "/campaign-titan-seed4.json");
  ASSERT_TRUE(In) << "missing golden file";
  std::ostringstream Golden;
  Golden << In.rdbuf();
  const std::regex Engine("\"engine\": \"[a-z]*\"");
  const auto Masked = [&](const std::string &Json) {
    return std::regex_replace(Json, Engine, "\"engine\": \"X\"");
  };

  harness::CampaignConfig Config;
  Config.Chips = {sim::ChipProfile::lookup("titan")};
  Config.Envs.assign(stress::Environment::all().begin(),
                     stress::Environment::all().end());
  Config.Apps.assign(apps::AllAppKinds.begin(), apps::AllAppKinds.end());
  Config.Runs = 20;
  Config.Seed = 4;
  for (const sim::EngineMode Mode :
       {sim::EngineMode::Auto, sim::EngineMode::Scalar}) {
    EngineModeGuard Guard(Mode);
    ThreadPool Pool;
    std::ostringstream Json;
    harness::writeCampaignJson(harness::runCampaign(Config, &Pool), Json);
    std::istringstream Got(Masked(Json.str())), Want(Masked(Golden.str()));
    std::string GotLine, WantLine;
    for (unsigned Line = 1; std::getline(Want, WantLine); ++Line) {
      if (!std::getline(Got, GotLine))
        GotLine = "<end of output>";
      ASSERT_EQ(GotLine, WantLine)
          << "engine=" << sim::engineModeName(Mode) << ", line " << Line;
    }
    EXPECT_FALSE(std::getline(Got, GotLine))
        << "engine=" << sim::engineModeName(Mode) << ": trailing output";
  }
}

//===----------------------------------------------------------------------===//
// Golden engine grid: scalar and compiled campaigns are interchangeable
//===----------------------------------------------------------------------===//

TEST(GoldenCampaignTest, EngineAndJobsGridIsInvariant) {
  // The compiled application engine (DESIGN.md Sec. 19) must leave every
  // campaign number untouched: a sub-grid of single-kernel apps
  // (cbe-dot, sdk-red, cub-scan) and four-kernel ls-bh, with the
  // streaming oracle sampling every 5th run, is executed under
  // engine {scalar, auto} x jobs {1, 8} and every combination must
  // reproduce the scalar/serial reference cell for cell — error counts,
  // oracle tallies and all.
  harness::CampaignConfig Config;
  Config.Chips = {sim::ChipProfile::lookup("titan")};
  Config.Envs = {{stress::StressKind::None, false},
                 {stress::StressKind::Sys, true}};
  Config.Apps = {apps::AppKind::CbeDot, apps::AppKind::SdkRed,
                 apps::AppKind::CubScan, apps::AppKind::LsBh};
  Config.Runs = 16;
  Config.Seed = 42;
  Config.OracleEvery = 5;

  const auto Reference = [&] {
    EngineModeGuard Scalar(sim::EngineMode::Scalar);
    return harness::runCampaign(Config);
  }();
  ASSERT_EQ(Reference.Cells.size(), 8u);

  for (sim::EngineMode Mode :
       {sim::EngineMode::Scalar, sim::EngineMode::Auto}) {
    EngineModeGuard Guard(Mode);
    for (unsigned Jobs : {1u, 8u}) {
      ThreadPool Pool(Jobs);
      const auto Report = harness::runCampaign(Config, &Pool);
      ASSERT_EQ(Report.Cells.size(), Reference.Cells.size());
      for (size_t I = 0; I != Report.Cells.size(); ++I) {
        const harness::CampaignCell &Got = Report.Cells[I];
        const harness::CampaignCell &Want = Reference.Cells[I];
        EXPECT_EQ(Got.Result, Want.Result)
            << "engine=" << sim::engineModeName(Mode) << " jobs=" << Jobs
            << " cell " << I;
        EXPECT_EQ(Got.OracleChecked, Want.OracleChecked) << "cell " << I;
        EXPECT_EQ(Got.OracleViolations, Want.OracleViolations)
            << "cell " << I;
      }
    }
  }
}

} // namespace
