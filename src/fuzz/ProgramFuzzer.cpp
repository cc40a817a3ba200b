//===- fuzz/ProgramFuzzer.cpp - Random-program differential fuzzing ----------===//

#include "fuzz/ProgramFuzzer.h"

#include "sim/Device.h"
#include "stress/Environment.h"
#include "support/Check.h"

#include <algorithm>
#include <functional>

using namespace gpuwmm;
using namespace gpuwmm::fuzz;
using sim::Word;

//===----------------------------------------------------------------------===//
// Program generation
//===----------------------------------------------------------------------===//

litmus::Program fuzz::generateProgram(Rng &R, unsigned NumVars,
                                      unsigned OpsPerThread,
                                      bool WithFences) {
  GPUWMM_CHECK(NumVars > 0, "need at least one variable");
  litmus::Program P;
  P.Name = "fuzz";
  P.PhaseJitter = StartJitter;
  for (unsigned V = 0; V != NumVars; ++V) {
    // Built without operator+ to dodge GCC 12's -Wrestrict false positive.
    std::string Loc = "v";
    Loc += std::to_string(V);
    P.Locations.push_back(std::move(Loc));
  }
  P.Init.assign(NumVars, 0);
  Word NextValue = 1;
  for (unsigned T = 0; T != 2; ++T) {
    litmus::ProgThread &Thread = P.Threads.emplace_back();
    Thread.Block = T;
    for (unsigned I = 0; I != OpsPerThread; ++I) {
      const unsigned Kinds = WithFences ? 4 : 3;
      switch (R.below(Kinds)) {
      case 0:
        Thread.Ops.push_back(litmus::ProgOp::store(
            static_cast<unsigned>(R.below(NumVars)), NextValue++));
        break;
      case 1: {
        const auto Reg = static_cast<unsigned>(P.Registers.size());
        std::string Name = "r";
        Name += std::to_string(Reg);
        P.Registers.push_back(std::move(Name));
        Thread.Ops.push_back(litmus::ProgOp::load(
            Reg, static_cast<unsigned>(R.below(NumVars))));
        break;
      }
      case 2:
        Thread.Ops.push_back(litmus::ProgOp::atomicAdd(
            static_cast<unsigned>(R.below(NumVars)), NextValue++));
        break;
      default:
        Thread.Ops.push_back(litmus::ProgOp::fence());
        break;
      }
    }
  }
  return P;
}

//===----------------------------------------------------------------------===//
// Exhaustive SC reference
//===----------------------------------------------------------------------===//

std::set<Outcome> fuzz::enumerateScOutcomes(const litmus::Program &P) {
  using Kind = litmus::ProgOp::Kind;
  GPUWMM_CHECK(P.Threads.size() == 2, "fuzz programs have two threads");
  const std::vector<litmus::ProgOp> &Ops0 = P.Threads[0].Ops;
  const std::vector<litmus::ProgOp> &Ops1 = P.Threads[1].Ops;
  std::set<Outcome> Outcomes;
  std::vector<Word> Mem(P.Locations.size(), 0);
  std::vector<Word> Loads[2];

  // DFS over interleavings: at each step run the next op of thread 0 or 1.
  std::function<void(size_t, size_t)> Step = [&](size_t I0, size_t I1) {
    if (I0 == Ops0.size() && I1 == Ops1.size()) {
      Outcome O = Loads[0];
      O.insert(O.end(), Loads[1].begin(), Loads[1].end());
      O.insert(O.end(), Mem.begin(), Mem.end());
      Outcomes.insert(std::move(O));
      return;
    }
    for (unsigned T = 0; T != 2; ++T) {
      const std::vector<litmus::ProgOp> &Ops = T == 0 ? Ops0 : Ops1;
      const size_t I = T == 0 ? I0 : I1;
      if (I == Ops.size())
        continue;
      const litmus::ProgOp &O = Ops[I];
      // Apply, recurse, undo.
      Word SavedMem = 0;
      switch (O.K) {
      case Kind::Store:
        SavedMem = Mem[O.Loc];
        Mem[O.Loc] = O.Value;
        break;
      case Kind::AtomicAdd:
        SavedMem = Mem[O.Loc];
        Mem[O.Loc] = SavedMem + O.Value;
        break;
      case Kind::Load:
        Loads[T].push_back(Mem[O.Loc]);
        break;
      case Kind::Fence:
        break; // SC: fences are no-ops.
      default:
        GPUWMM_CHECK(false, "fuzz programs use only st, ld, add and fence");
      }
      Step(T == 0 ? I0 + 1 : I0, T == 1 ? I1 + 1 : I1);
      if (O.K == Kind::Store || O.K == Kind::AtomicAdd)
        Mem[O.Loc] = SavedMem;
      else if (O.K == Kind::Load)
        Loads[T].pop_back();
    }
  };
  Step(0, 0);
  return Outcomes;
}

//===----------------------------------------------------------------------===//
// Weak-machine execution
//===----------------------------------------------------------------------===//

CompiledProgram fuzz::compileProgram(const litmus::Program &P,
                                     const sim::ChipProfile &Chip) {
  using Kind = litmus::ProgOp::Kind;
  GPUWMM_CHECK(P.Threads.size() == 2, "fuzz programs have two threads");
  CompiledProgram CP;
  CP.NumVars = static_cast<unsigned>(P.Locations.size());
  // The logs are sized by ops per thread (an upper bound on loads), not by
  // loads: this keeps the historical allocation layout, and with it the
  // stress scratchpad's placement that the fuzz goldens pin.
  CP.MaxLoads = static_cast<unsigned>(
      std::max(P.Threads[0].Ops.size(), P.Threads[1].Ops.size()));

  const unsigned Patch = Chip.PatchSizeWords;
  const auto AlignUp = [Patch](unsigned X) {
    return (X + Patch - 1) / Patch * Patch;
  };
  CP.Vars = 0;
  CP.Log0 = AlignUp(CP.NumVars * Patch);
  CP.Log1 = AlignUp(CP.Log0 + CP.MaxLoads + 1);

  sim::BatchProgram &BP = CP.BP;
  BP.GridDim = 2;
  BP.BlockDim = 1;
  uint16_t NextSlot = 0;
  for (unsigned T = 0; T != 2; ++T) {
    using Code = sim::BatchOp::Code;
    const auto Begin = static_cast<uint32_t>(BP.Ops.size());
    BP.Ops.push_back({Code::Jitter, 0, 0, 0, StartJitter});
    const sim::Addr Log = T == 0 ? CP.Log0 : CP.Log1;
    unsigned LoadIdx = 0;
    for (const litmus::ProgOp &O : P.Threads[T].Ops) {
      const sim::Addr A = CP.Vars + O.Loc * Patch;
      switch (O.K) {
      case Kind::Store:
        BP.Ops.push_back({Code::Store, 0, 0, A, O.Value});
        break;
      case Kind::Load:
        // Each load is logged right after it completes; the +1 bias
        // distinguishes a logged 0 from "unset".
        BP.Ops.push_back({Code::Load, NextSlot, 0, A, 0});
        BP.Ops.push_back({Code::WbStore, NextSlot, 0, Log + LoadIdx++, 1});
        ++NextSlot;
        break;
      case Kind::AtomicAdd:
        BP.Ops.push_back({Code::AtomicAdd, 0, 0, A, O.Value});
        break;
      case Kind::Fence:
        BP.Ops.push_back({Code::FenceDevice, 0, 0, 0, 0});
        break;
      default:
        GPUWMM_CHECK(false, "fuzz programs use only st, ld, add and fence");
      }
    }
    CP.NumLoads[T] = LoadIdx;
    BP.Lanes.push_back({Begin, static_cast<uint32_t>(BP.Ops.size())});
  }
  BP.NumSlots = std::max<unsigned>(NextSlot, 1);
  return CP;
}

Outcome fuzz::runOnWeakMachine(sim::ExecutionContext &Ctx,
                               const CompiledProgram &CP,
                               const sim::ChipProfile &Chip, uint64_t Seed,
                               bool Stressed) {
  // Per-run draw order: seed the device, allocate, then (when stressed)
  // draw the environment from its own fork.
  Rng R(Seed);
  sim::Device Dev(Ctx, Chip, R.next());

  // Variables sit on distinct patches so cross-bank reordering can occur
  // between any pair, as between distinct allocations in real
  // applications.
  const sim::Addr Vars = Dev.alloc(CP.NumVars * Chip.PatchSizeWords);
  const sim::Addr Log0 = Dev.alloc(CP.MaxLoads + 1);
  const sim::Addr Log1 = Dev.alloc(CP.MaxLoads + 1);
  GPUWMM_CHECK(Vars == CP.Vars && Log0 == CP.Log0 && Log1 == CP.Log1,
               "allocation layout diverged from the compiled plan");

  std::unique_ptr<sim::CongestionSource> Stress;
  if (Stressed) {
    Rng EnvRng = R.fork(1);
    Stress = stress::applyEnvironment(
        {stress::StressKind::Sys, true}, Dev,
        stress::TunedStressParams::paperDefaults(Chip), EnvRng);
  }

  sim::SchedulerConfig Cfg;
  Cfg.RandomiseThreads = Stressed; // applyEnvironment's sys-str+ setting.
  std::vector<sim::Word> &Regs = Ctx.batchScratch().Regs;
  Regs.assign(CP.BP.NumSlots, 0);
  const sim::RunResult Result =
      sim::runProgram(CP.BP, Ctx, Chip, Regs.data(), Cfg);
  GPUWMM_CHECK(Result.completed(), "fuzz execution must terminate");

  Outcome O;
  for (unsigned T = 0; T != 2; ++T) {
    const sim::Addr Log = T == 0 ? CP.Log0 : CP.Log1;
    for (unsigned I = 0; I != CP.NumLoads[T]; ++I)
      O.push_back(Dev.read(Log + I) - 1);
  }
  for (unsigned V = 0; V != CP.NumVars; ++V)
    O.push_back(Dev.read(CP.Vars + V * Chip.PatchSizeWords));
  return O;
}

FuzzResult fuzz::fuzzProgram(const litmus::Program &P,
                             const sim::ChipProfile &Chip, unsigned Runs,
                             uint64_t Seed, bool Stressed) {
  FuzzResult Result;
  Result.Runs = Runs;
  const std::set<Outcome> Sc = enumerateScOutcomes(P);
  Result.ScSetSize = Sc.size();
  std::set<Outcome> WeakSeen, ScSeen;
  Rng Master(Seed);
  sim::ContextLease Ctx; // One recycled engine across all runs.
  const CompiledProgram CP = compileProgram(P, Chip); // Once per program.
  for (unsigned I = 0; I != Runs; ++I) {
    const Outcome O = runOnWeakMachine(Ctx.get(), CP, Chip,
                                       Master.fork(I).next(), Stressed);
    if (Sc.count(O)) {
      ScSeen.insert(O);
      continue;
    }
    if (Result.WeakOutcomes == 0)
      Result.FirstWeak = O;
    ++Result.WeakOutcomes;
    WeakSeen.insert(O);
  }
  Result.DistinctWeak = static_cast<unsigned>(WeakSeen.size());
  Result.DistinctScSeen = static_cast<unsigned>(ScSeen.size());
  return Result;
}

std::vector<BatchEntry> fuzz::fuzzBatch(const sim::ChipProfile &Chip,
                                        const BatchConfig &Cfg,
                                        uint64_t Seed, ThreadPool *Pool) {
  std::vector<BatchEntry> Batch(Cfg.Programs);
  parallelFor(Pool, Cfg.Programs, [&](size_t I) {
    BatchEntry &Entry = Batch[I];
    Rng Gen(Rng::deriveStream(Seed, 2 * static_cast<uint64_t>(I)));
    Entry.P = generateProgram(Gen, Cfg.NumVars, Cfg.OpsPerThread,
                              Cfg.WithFences);
    Entry.R = fuzzProgram(Entry.P, Chip, Cfg.RunsPerProgram,
                          Rng::deriveStream(Seed, 2 * static_cast<uint64_t>(I) + 1),
                          Cfg.Stressed);
  });
  return Batch;
}
