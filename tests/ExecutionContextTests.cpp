//===- tests/ExecutionContextTests.cpp - reusable engine tests ----------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// Pins the reusable execution engine's contract (DESIGN.md Sec. 12):
// a reset context is observably indistinguishable from a fresh one, so
// results are bit-identical between fresh-context and reused-context
// execution across every consumer layer (litmus, apps, fuzz, harden,
// harness), for any chip-rebinding history.
//
//===----------------------------------------------------------------------===//

#include "sim/ExecutionContext.h"

#include "EngineModeGuard.h"
#include "apps/Application.h"
#include "fuzz/ProgramFuzzer.h"
#include "harden/FenceInsertion.h"
#include "harness/EnvironmentRunner.h"
#include "litmus/Litmus.h"
#include "sim/Device.h"

#include "gtest/gtest.h"

#include <vector>

using namespace gpuwmm;
using namespace gpuwmm::sim;

namespace {

const ChipProfile &titan() { return *ChipProfile::lookup("titan"); }
const ChipProfile &gtx980() { return *ChipProfile::lookup("980"); }

/// A workload that touches every engine subsystem: buffered stores across
/// banks, atomics, async loads, device/block fences, barriers, host
/// writes, and (optionally) congestion and thread randomisation.
struct ProbeResult {
  std::vector<Word> Memory;
  uint64_t Ticks = 0;
  MemStats Stats;

  bool operator==(const ProbeResult &O) const {
    return Memory == O.Memory && Ticks == O.Ticks &&
           Stats.Loads == O.Stats.Loads && Stats.Stores == O.Stats.Stores &&
           Stats.Atomics == O.Stats.Atomics &&
           Stats.DeviceFences == O.Stats.DeviceFences &&
           Stats.BlockFences == O.Stats.BlockFences &&
           Stats.DrainedStores == O.Stats.DrainedStores &&
           Stats.AsyncLoads == O.Stats.AsyncLoads &&
           Stats.ForcedSelfDrains == O.Stats.ForcedSelfDrains;
  }
};

/// The probe kernel: every thread jitters its start, stores across banks
/// (Data is patch-spread), joins an atomic handshake, then device-fences
/// (even threads) or goes straight to a split-phase load of Data[0] and the
/// barrier (odd threads: the barrier's release block-fences them), awaits
/// the load, reads the handshake counter and stores the sum.
BatchProgram probePlan(Addr Data, Addr Flags, Addr Out) {
  using Code = BatchOp::Code;
  BatchProgram BP;
  BP.GridDim = 2;
  BP.BlockDim = 4;
  for (uint16_t Id = 0; Id != 8; ++Id) {
    const uint16_t RV = 3 * Id, RF = RV + 1, RSum = RV + 2;
    const uint32_t Begin = static_cast<uint32_t>(BP.Ops.size());
    BP.Ops.push_back({Code::Jitter, 0, 0, 0, 8});
    BP.Ops.push_back({Code::Store, 0, 0, Data + Id * 64u, Id + 1u});
    BP.Ops.push_back({Code::AtomicAdd, 0, 0, Flags, 1});
    if (Id % 2 == 0)
      BP.Ops.push_back({Code::FenceDevice});
    BP.Ops.push_back({Code::AsyncLoad, RV, 0, Data, 0});
    BP.Ops.push_back({Code::Barrier});
    BP.Ops.push_back({Code::AwaitLoad, RV, 0, 0, 0});
    BP.Ops.push_back({Code::Load, RF, 0, Flags, 0});
    BP.Ops.push_back({Code::AddRR, RSum, RV, RF, 0});
    BP.Ops.push_back({Code::WbStore, RSum, 0, Out + Id, 0});
    BP.Lanes.push_back({Begin, static_cast<uint32_t>(BP.Ops.size())});
  }
  BP.NumSlots = 3 * 8;
  return BP;
}

ProbeResult runProbe(Device &Dev) {
  const Addr Data = Dev.alloc(8 * 64);
  const Addr Flags = Dev.alloc(1);
  const Addr Out = Dev.alloc(8);
  Dev.write(Data, 7);
  const RunResult R = Dev.run(probePlan(Data, Flags, Out));
  EXPECT_TRUE(R.completed());
  ProbeResult P;
  for (Addr A = 0; A != Dev.memory().allocatedWords(); ++A)
    P.Memory.push_back(Dev.read(A));
  P.Ticks = R.Ticks;
  P.Stats = R.Mem;
  return P;
}

} // namespace

//===----------------------------------------------------------------------===//
// Device-level reset semantics
//===----------------------------------------------------------------------===//

TEST(ExecutionContext, ReusedContextReproducesFreshRun) {
  // Fresh reference.
  onBothEngines([] {
    ExecutionContext Fresh;
    Device FreshDev(Fresh, titan(), /*Seed=*/123);
    const ProbeResult Expected = runProbe(FreshDev);

    // Same run on a context dirtied by a different prior workload.
    ExecutionContext Reused;
    {
      Device Warmup(Reused, titan(), /*Seed=*/999);
      runProbe(Warmup);
    }
    Device ReusedDev(Reused, titan(), /*Seed=*/123);
    EXPECT_EQ(runProbe(ReusedDev), Expected);
  });
}

TEST(ExecutionContext, ResetClearsEverything) {
  onBothEngines([] {
    ExecutionContext Ctx;
    {
      Device Dev(Ctx, titan(), /*Seed=*/5);
      runProbe(Dev);
      EXPECT_GT(Ctx.memory().allocatedWords(), 0u);
      EXPECT_GT(Ctx.memory().stats().Stores, 0u);
    }
    Ctx.reset(titan(), /*Seed=*/5);
    EXPECT_EQ(Ctx.memory().allocatedWords(), 0u);
    EXPECT_EQ(Ctx.memory().stats().Stores, 0u);
    EXPECT_EQ(Ctx.memory().stats().Loads, 0u);
    EXPECT_FALSE(Ctx.memory().hasPendingWork());
    // Every word the previous run wrote reads back zero after reallocation.
    const Addr A = Ctx.memory().alloc(8 * 64 + 9);
    for (Addr W = A; W != A + 8 * 64 + 9; ++W)
      EXPECT_EQ(Ctx.memory().hostRead(W), 0u) << "word " << W;
  });
}

TEST(ExecutionContext, RunAResetRunBEqualsFreshB) {
  // The reset-clears-everything property, end to end: run A, reset, run B
  // must equal B run on a fresh context — for several (A, B) seed pairs.
  onBothEngines([] {
    for (uint64_t SeedA : {1ULL, 77ULL, 1234567ULL}) {
      for (uint64_t SeedB : {2ULL, 99ULL}) {
        ExecutionContext CtxFresh;
        Device DevFresh(CtxFresh, titan(), SeedB);
        const ProbeResult Expected = runProbe(DevFresh);

        ExecutionContext CtxReused;
        {
          Device DevA(CtxReused, titan(), SeedA);
          runProbe(DevA);
        }
        Device DevB(CtxReused, titan(), SeedB);
        EXPECT_EQ(runProbe(DevB), Expected)
            << "A-seed " << SeedA << ", B-seed " << SeedB;
      }
    }
  });
}

TEST(ExecutionContext, ChipRebindingDoesNotLeakState) {
  // titan (64-word patches, Kepler) and 980 (Maxwell) disagree on every
  // model parameter; interleave them on one context and compare each run
  // to a fresh-context reference.
  onBothEngines([] {
    ExecutionContext Reused;
    for (const ChipProfile *Chip :
         {&titan(), &gtx980(), &titan(), &gtx980()}) {
      ExecutionContext Fresh;
      Device FreshDev(Fresh, *Chip, /*Seed=*/17);
      const ProbeResult Expected = runProbe(FreshDev);
      Device ReusedDev(Reused, *Chip, /*Seed=*/17);
      EXPECT_EQ(runProbe(ReusedDev), Expected) << Chip->ShortName;
    }
  });
}

TEST(ExecutionContext, LeaseRecyclesContextsPerThread) {
  const ExecutionContext *First = nullptr;
  {
    ContextLease L;
    First = &L.get();
  }
  // The next lease on this thread must hand back the same context.
  ContextLease L2;
  EXPECT_EQ(&L2.get(), First);
  // A nested lease (reference runs inside an application run) must get a
  // distinct context.
  ContextLease L3;
  EXPECT_NE(&L3.get(), &L2.get());
}

TEST(ExecutionContext, OneShotDeviceReusesLeasedContext) {
  uint64_t ResetsBefore = 0;
  {
    Device Dev(titan(), /*Seed=*/3);
    ResetsBefore = Dev.context().resets();
  }
  Device Dev2(titan(), /*Seed=*/4);
  // Same recycled context, one more reset — the classic constructor is on
  // the reuse path too.
  EXPECT_EQ(Dev2.context().resets(), ResetsBefore + 1);
}

//===----------------------------------------------------------------------===//
// Fresh-vs-reused equality across the consumer layers
//===----------------------------------------------------------------------===//

TEST(ExecutionContextLayers, LitmusRunnerIsHistoryIndependent) {
  // Two runners at one seed — the second's leased context was warmed by
  // the first's executions — must agree run by run.
  const litmus::Program &Mp = *litmus::findCatalogProgram("MP");
  const auto Tuned = stress::TunedStressParams::paperDefaults(titan());
  const auto S = litmus::LitmusRunner::MicroStress::at(Tuned.Seq, 0);
  std::vector<bool> FirstRuns, SecondRuns;
  {
    litmus::LitmusRunner Runner(titan(), /*Seed=*/21);
    for (unsigned I = 0; I != 200; ++I)
      FirstRuns.push_back(Runner.runOnce(Mp, 128, S));
  }
  {
    litmus::LitmusRunner Runner(titan(), /*Seed=*/21);
    for (unsigned I = 0; I != 200; ++I)
      SecondRuns.push_back(Runner.runOnce(Mp, 128, S));
  }
  EXPECT_EQ(FirstRuns, SecondRuns);
}

TEST(ExecutionContextLayers, AppsFreshVsReusedVerdictsAgree) {
  const stress::Environment Env{stress::StressKind::Sys, true};
  const auto Tuned = stress::TunedStressParams::paperDefaults(titan());
  ExecutionContext Reused;
  for (apps::AppKind App : apps::AllAppKinds) {
    for (uint64_t Run = 0; Run != 3; ++Run) {
      const uint64_t Seed = Rng::deriveStream(11, Run);
      ExecutionContext Fresh;
      const apps::AppVerdict Expected = apps::runApplicationOnce(
          Fresh, App, titan(), Env, Tuned, /*Policy=*/nullptr, Seed);
      const apps::AppVerdict Actual = apps::runApplicationOnce(
          Reused, App, titan(), Env, Tuned, /*Policy=*/nullptr, Seed);
      EXPECT_EQ(Actual, Expected)
          << apps::appName(App) << " run " << Run;
    }
  }
}

TEST(ExecutionContextLayers, FuzzFreshVsReusedOutcomesAgree) {
  Rng Gen(31);
  const litmus::Program P = fuzz::generateProgram(Gen, /*NumVars=*/3,
                                                  /*OpsPerThread=*/5,
                                                  /*WithFences=*/false);
  const fuzz::CompiledProgram CP = fuzz::compileProgram(P, titan());
  ExecutionContext Reused;
  for (uint64_t Run = 0; Run != 20; ++Run) {
    const uint64_t Seed = Rng::deriveStream(32, Run);
    ExecutionContext Fresh;
    EXPECT_EQ(
        fuzz::runOnWeakMachine(Reused, CP, titan(), Seed, /*Stressed=*/true),
        fuzz::runOnWeakMachine(Fresh, CP, titan(), Seed, /*Stressed=*/true))
        << "run " << Run;
  }
}

TEST(ExecutionContextLayers, HardenOracleIsHistoryIndependent) {
  // Two identical oracles — the second running on thread-warmed contexts —
  // must agree on every check verdict and on executions().
  const auto App = apps::AppKind::CbeDot;
  const unsigned NumSites = apps::appNumSites(App);
  harden::AppCheckOracle OracleA(App, titan(), /*Seed=*/51,
                                 /*StableRuns=*/40, /*Pool=*/nullptr);
  const bool FullA =
      OracleA.checkApplication(sim::FencePolicy::all(NumSites), 40);
  const bool NoneA =
      OracleA.checkApplication(sim::FencePolicy::none(NumSites), 40);

  harden::AppCheckOracle OracleB(App, titan(), /*Seed=*/51,
                                 /*StableRuns=*/40, /*Pool=*/nullptr);
  const bool FullB =
      OracleB.checkApplication(sim::FencePolicy::all(NumSites), 40);
  const bool NoneB =
      OracleB.checkApplication(sim::FencePolicy::none(NumSites), 40);

  EXPECT_EQ(FullA, FullB);
  EXPECT_EQ(NoneA, NoneB);
  EXPECT_EQ(OracleA.executions(), OracleB.executions());
}

TEST(ExecutionContextLayers, HarnessCellIsHistoryIndependent) {
  const stress::Environment Env{stress::StressKind::Sys, true};
  const auto Tuned = stress::TunedStressParams::paperDefaults(titan());
  const harness::CellResult First = harness::runCell(
      apps::AppKind::CbeDot, titan(), Env, Tuned, /*Runs=*/30, /*Seed=*/61);
  const harness::CellResult Second = harness::runCell(
      apps::AppKind::CbeDot, titan(), Env, Tuned, /*Runs=*/30, /*Seed=*/61);
  EXPECT_EQ(First, Second);
}
