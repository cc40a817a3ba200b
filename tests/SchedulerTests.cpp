//===- tests/SchedulerTests.cpp - scheduler and kernel execution tests --------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// Tests program execution end to end through the Device facade, on the
// reference engine (the Scheduler) and the compiled engine alike: warp
// grouping, barriers (including divergence detection), timeouts, delayed
// policy fences, determinism and thread randomisation. Kernels are plans
// written with the app plan builder; policy fences are compiled into them
// under a policy mask, as every app's are.
//
//===----------------------------------------------------------------------===//

#include "sim/Device.h"

#include "EngineModeGuard.h"
#include "apps/AppsInternal.h"

#include "gtest/gtest.h"

#include <set>
#include <utility>

using namespace gpuwmm;
using namespace gpuwmm::sim;
using apps::detail::PlanBuilder;
using Code = BatchOp::Code;

namespace {

const ChipProfile &titan() { return *ChipProfile::lookup("titan"); }

/// A one-kernel plan of \p Grid blocks of \p Block threads compiled for
/// \p Chip under policy \p Mask: \p Lane(B, Tid) writes thread Tid's ops.
template <typename Fn>
BatchProgram plan(unsigned Grid, unsigned Block, Fn Lane,
                  uint32_t Mask = 0, const ChipProfile &Chip = titan()) {
  PlanBuilder B(Chip, Mask);
  B.launch(Grid, Block);
  for (unsigned Tid = 0; Tid != Grid * Block; ++Tid) {
    B.beginLane(Tid);
    Lane(B, Tid);
    B.endLane();
  }
  return std::move(B.finish().Kernels.front());
}

/// Spins until \p Flag is non-zero: load, yield(1), retry.
void spinUntilSet(PlanBuilder &B, Addr Flag) {
  const uint16_t RV = B.reg();
  const uint32_t Poll = B.emit(Code::Load, RV, 0, Flag);
  const uint32_t BrSet = B.emit(Code::BrNe, RV, 0, 0, 0);
  B.emit(Code::Sleep, 0, 0, 0, 1);
  B.emit(Code::Jump, 0, 0, Poll);
  B.patch(BrSet, B.size());
}

/// MP with a writer-side policy: block 0 stores data (site 0) then the
/// flag (site 1); block 1 spins on the flag, then copies data to Result.
BatchProgram mpPlan(Addr Data, Addr Flag, Addr Result, uint32_t Mask) {
  return plan(
      2, 1,
      [&](PlanBuilder &B, unsigned Tid) {
        if (Tid == 0) {
          B.emitMem(Code::Store, /*Site=*/0, 0, 0, Data, 1);
          B.emitMem(Code::Store, /*Site=*/1, 0, 0, Flag, 1);
          return;
        }
        spinUntilSet(B, Flag);
        const uint16_t RD = B.reg();
        B.emit(Code::Load, RD, 0, Data);
        B.emit(Code::WbStore, RD, 0, Result);
      },
      Mask);
}

} // namespace

TEST(SchedulerTest, RunsAllThreadsToCompletion) {
  onBothEngines([] {
    Device Dev(titan(), 1);
    const Addr Base = Dev.alloc(64);
    const RunResult R = Dev.run(plan(2, 32, [&](PlanBuilder &B, unsigned Tid) {
      B.emit(Code::Store, 0, 0, Base + Tid, (Tid / 32) << 16 | Tid % 32);
    }));
    EXPECT_TRUE(R.completed());
    EXPECT_EQ(R.Mem.Stores, 64u);
    for (unsigned B = 0; B != 2; ++B)
      for (unsigned L = 0; L != 32; ++L)
        EXPECT_EQ(Dev.read(Base + B * 32 + L), (B << 16) | L);
  });
}

TEST(SchedulerTest, MultiWarpBlocksKeepWarpIndexing) {
  // Warps are 32 lanes and an SM issues two warps a tick: a 64-lane
  // block's two warps store in tick 1 and finish in tick 2, while a
  // 65-lane block's third warp (lane 64 alone) waits a tick.
  onBothEngines([] {
    for (const auto &[Lanes, Ticks] :
         {std::pair<unsigned, uint64_t>{64, 2}, {65, 3}}) {
      Device Dev(titan(), 1);
      const Addr Base = Dev.alloc(Lanes);
      const RunResult R =
          Dev.run(plan(1, Lanes, [&](PlanBuilder &B, unsigned Tid) {
            B.emit(Code::Store, 0, 0, Base + Tid, Tid / WarpSize);
          }));
      EXPECT_TRUE(R.completed());
      EXPECT_EQ(R.Ticks, Ticks) << Lanes << " lanes";
      EXPECT_EQ(Dev.read(Base + 40), 1u) << "lane 40 is in warp 1";
    }
  });
}

TEST(SchedulerTest, BarrierMakesBlockStoresVisible) {
  onBothEngines([] {
    for (uint64_t Seed = 0; Seed != 20; ++Seed) {
      Device Dev(titan(), Seed);
      const Addr Cells = Dev.alloc(64);
      const Addr Out = Dev.alloc(2);
      const RunResult R =
          Dev.run(plan(2, 32, [&](PlanBuilder &B, unsigned Tid) {
            const unsigned Block = Tid / 32, Lane = Tid % 32;
            B.emit(Code::Store, 0, 0, Cells + Tid, Lane + 1);
            B.emit(Code::Barrier);
            if (Lane != 0)
              return;
            const uint16_t RSum = B.reg();
            for (unsigned I = 0; I != 32; ++I)
              B.emit(Code::LoadAcc, RSum, 0, Cells + Block * 32 + I);
            B.emit(Code::WbStore, RSum, 0, Out + Block);
          }));
      ASSERT_TRUE(R.completed());
      // Sum 1..32 = 528, regardless of drain timing: the barrier
      // guarantees block-level consistency.
      EXPECT_EQ(Dev.read(Out), 528u);
      EXPECT_EQ(Dev.read(Out + 1), 528u);
    }
  });
}

TEST(SchedulerTest, BarrierDivergenceIsDetected) {
  // Half the block skips the barrier: undefined behaviour in CUDA,
  // detected by the simulator.
  onBothEngines([] {
    Device Dev(titan(), 1);
    const RunResult R = Dev.run(plan(1, 32, [](PlanBuilder &B, unsigned Tid) {
      if (Tid % 2 == 0)
        B.emit(Code::Barrier);
      B.emit(Code::Sleep, 0, 0, 0, 1);
    }));
    EXPECT_EQ(R.Status, RunStatus::BarrierDivergence);
  });
}

TEST(SchedulerTest, TimeoutIsDetected) {
  onBothEngines([] {
    Device Dev(titan(), 1);
    Dev.setMaxTicks(500);
    const Addr Flag = Dev.alloc(1); // Never set.
    const RunResult R = Dev.run(plan(
        1, 1, [&](PlanBuilder &B, unsigned) { spinUntilSet(B, Flag); }));
    EXPECT_EQ(R.Status, RunStatus::Timeout);
    EXPECT_EQ(R.Ticks, 501u);
    EXPECT_EQ(Dev.lastStatus(), RunStatus::Timeout);
  });
}

TEST(SchedulerTest, DeterministicForSeed) {
  // Each thread jitters its start (1 + rand(4) ticks), draws a ticket
  // and records its id in the ticket's slot.
  auto Fingerprint = [](uint64_t Seed, bool Randomise) {
    Device Dev(titan(), Seed);
    Dev.setRandomiseThreads(Randomise);
    const Addr Counter = Dev.alloc(1);
    const Addr Order = Dev.alloc(64);
    Dev.run(plan(2, 32, [&](PlanBuilder &B, unsigned Tid) {
      const uint16_t RSlot = B.reg();
      B.emit(Code::Jitter, 0, 0, 0, 4);
      B.emit(Code::AtomicAddReg, RSlot, 0, Counter, 1);
      B.emit(Code::StoreIdx, 0, RSlot, Order, Tid);
    }));
    uint64_t H = 1469598103934665603ull;
    for (unsigned I = 0; I != 64; ++I)
      H = (H ^ Dev.read(Order + I)) * 1099511628211ull;
    return H;
  };
  std::set<uint64_t> PerEngine;
  onBothEngines([&] {
    EXPECT_EQ(Fingerprint(7, false), Fingerprint(7, false));
    EXPECT_EQ(Fingerprint(7, true), Fingerprint(7, true));
    EXPECT_NE(Fingerprint(7, false), Fingerprint(8, false));
    PerEngine.insert(Fingerprint(7, true));
  });
  EXPECT_EQ(PerEngine.size(), 1u) << "engines disagree";
}

TEST(SchedulerTest, RandomisationChangesInterleavings) {
  // With randomisation, different seeds produce different thread arrival
  // orders (block placement + priority jitter).
  auto ArrivalOrder = [](uint64_t Seed) {
    Device Dev(titan(), Seed);
    Dev.setRandomiseThreads(true);
    const Addr Counter = Dev.alloc(1);
    const Addr First = Dev.alloc(1);
    Dev.run(plan(4, 32, [&](PlanBuilder &B, unsigned Tid) {
      const uint16_t RSlot = B.reg();
      B.emit(Code::AtomicAddReg, RSlot, 0, Counter, 1);
      const uint32_t BrLate = B.emit(Code::BrNe, RSlot, 0, 0, 0);
      B.emit(Code::Store, 0, 0, First, Tid + 1);
      B.patch(BrLate, B.size());
    }));
    return Dev.read(First);
  };
  onBothEngines([&] {
    std::set<Word> FirstArrivals;
    for (uint64_t Seed = 0; Seed != 16; ++Seed)
      FirstArrivals.insert(ArrivalOrder(Seed));
    EXPECT_GT(FirstArrivals.size(), 1u);
  });
}

TEST(SchedulerTest, YieldConsumesTicks) {
  auto Yield = [](Word Ticks) {
    return plan(1, 1, [=](PlanBuilder &B, unsigned) {
      B.emit(Code::Sleep, 0, 0, 0, Ticks);
    });
  };
  onBothEngines([&] {
    Device Fast(titan(), 1);
    const RunResult RFast = Fast.run(Yield(1));
    Device Slow(titan(), 1);
    const RunResult RSlow = Slow.run(Yield(500));
    EXPECT_GT(RSlow.Ticks, RFast.Ticks + 400);
  });
}

TEST(SchedulerTest, MultipleLaunchesShareMemory) {
  onBothEngines([] {
    Device Dev(titan(), 1);
    const Addr A = Dev.alloc(1);
    Dev.run(plan(1, 1, [&](PlanBuilder &B, unsigned) {
      B.emit(Code::Store, 0, 0, A, 41);
    }));
    // Kernel boundary synchronises; the second launch reads the first's
    // result and stores it plus one.
    Dev.run(plan(1, 1, [&](PlanBuilder &B, unsigned) {
      const uint16_t RV = B.reg();
      B.emit(Code::Load, RV, 0, A);
      B.emit(Code::WbStore, RV, 0, A, 1);
    }));
    EXPECT_EQ(Dev.read(A), 42u);
    EXPECT_GT(Dev.totalTicks(), 0u);
  });
}

TEST(SchedulerTest, PolicyFenceClosesStoreWindow) {
  // With the policy fencing the data-store site, a reader polling the
  // flag must never see stale data (MP with a writer-side inserted
  // fence).
  onBothEngines([] {
    unsigned Weak = 0;
    for (uint64_t Seed = 0; Seed != 200; ++Seed) {
      Device Dev(titan(), Seed);
      const Addr Data = Dev.alloc(1);
      const Addr Flag = Dev.alloc(1);
      const Addr Result = Dev.alloc(1);
      ASSERT_TRUE(Dev.run(mpPlan(Data, Flag, Result, 1u << 0)).completed());
      Weak += Dev.read(Result) == 0;
    }
    EXPECT_EQ(Weak, 0u);
  });
}

TEST(SchedulerTest, PolicyFenceIsDelayedNotAtomicWithOp) {
  // The inserted fence is separate code after the access, not a side
  // effect folded into it: a masked site compiles to the op, a sleep of
  // the chip's fence base latency, then the device fence, leaving a
  // window between the access and the fence's drain. An unmasked site
  // compiles to the op alone.
  const ChipProfile &Chip = titan();
  const auto StoreThenYield = [&](Addr Data, uint32_t Mask) {
    return plan(
        1, 1,
        [&](PlanBuilder &B, unsigned) {
          B.emitMem(Code::Store, /*Site=*/1, 0, 0, Data, 1);
          B.emit(Code::Sleep, 0, 0, 0, 1);
        },
        Mask);
  };
  const BatchProgram Fenced = StoreThenYield(0, 1u << 1);
  ASSERT_EQ(Fenced.Ops.size(), 4u);
  EXPECT_EQ(Fenced.Ops[0].C, Code::Store);
  EXPECT_EQ(Fenced.Ops[1].C, Code::Sleep);
  EXPECT_EQ(Fenced.Ops[1].Imm, Chip.FenceBaseLatency);
  EXPECT_EQ(Fenced.Ops[2].C, Code::FenceDevice);
  EXPECT_EQ(Fenced.Ops[3].C, Code::Sleep);
  EXPECT_EQ(StoreThenYield(0, 1u << 0).Ops.size(), 2u);

  onBothEngines([&] {
    Device Dev(Chip, 5);
    const Addr Data = Dev.alloc(1);
    const RunResult R = Dev.run(StoreThenYield(Data, 1u << 1));
    ASSERT_TRUE(R.completed());
    // The fence executed: exactly one device fence in the stats.
    EXPECT_EQ(R.Mem.DeviceFences, 1u);
    EXPECT_EQ(Dev.read(Data), 1u);
  });
}

TEST(SchedulerTest, RuntimeAndEnergyModelRespondToFences) {
  auto Measure = [](bool Fenced) {
    Device Dev(titan(), 3);
    const Addr Base = Dev.alloc(64);
    Dev.run(plan(
        2, 32,
        [&](PlanBuilder &B, unsigned Tid) {
          for (unsigned I = 0; I != 8; ++I)
            B.emitMem(Code::Store, /*Site=*/0, 0, 0, Base + Tid, I);
        },
        Fenced ? 1u : 0u));
    return std::make_pair(Dev.runtimeMs(), Dev.energy().Joules);
  };
  onBothEngines([&] {
    const auto [PlainMs, PlainJ] = Measure(false);
    const auto [FencedMs, FencedJ] = Measure(true);
    EXPECT_GT(FencedMs, PlainMs * 1.5);
    EXPECT_GT(FencedJ, PlainJ * 1.2);
  });
}

TEST(SchedulerTest, EnergyValidityTracksPowerInstrumentation) {
  size_t Count = 0;
  const ChipProfile *Chips = ChipProfile::all(Count);
  onBothEngines([&] {
    for (size_t I = 0; I != Count; ++I) {
      Device Dev(Chips[I], 1);
      Dev.run(plan(
          1, 1,
          [](PlanBuilder &B, unsigned) { B.emit(Code::Sleep, 0, 0, 0, 1); },
          0, Chips[I]));
      EXPECT_EQ(Dev.energy().Valid, Chips[I].SupportsPowerQuery);
    }
  });
}
