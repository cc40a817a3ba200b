//===- fuzz/ProgramFuzzer.cpp - Random-program differential fuzzing ----------===//

#include "fuzz/ProgramFuzzer.h"

#include "sim/Device.h"
#include "stress/Environment.h"
#include "support/Check.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <sstream>

using namespace gpuwmm;
using namespace gpuwmm::fuzz;
using sim::Word;

//===----------------------------------------------------------------------===//
// Program generation
//===----------------------------------------------------------------------===//

Program Program::generate(Rng &R, unsigned NumVars, unsigned OpsPerThread,
                          bool WithFences) {
  assert(NumVars > 0 && "need at least one variable");
  Program P;
  P.NumVars = NumVars;
  Word NextValue = 1;
  for (unsigned T = 0; T != 2; ++T) {
    for (unsigned I = 0; I != OpsPerThread; ++I) {
      Op O;
      const unsigned Kinds = WithFences ? 4 : 3;
      switch (R.below(Kinds)) {
      case 0:
        O.K = Op::Kind::Store;
        O.Var = static_cast<unsigned>(R.below(NumVars));
        O.Value = NextValue++;
        break;
      case 1:
        O.K = Op::Kind::Load;
        O.Var = static_cast<unsigned>(R.below(NumVars));
        break;
      case 2:
        O.K = Op::Kind::AtomicAdd;
        O.Var = static_cast<unsigned>(R.below(NumVars));
        O.Value = NextValue++;
        break;
      default:
        O.K = Op::Kind::Fence;
        break;
      }
      P.Thread[T].push_back(O);
    }
  }
  return P;
}

Program Program::fullyFenced() const {
  Program F;
  F.NumVars = NumVars;
  for (unsigned T = 0; T != 2; ++T) {
    for (const Op &O : Thread[T]) {
      F.Thread[T].push_back(O);
      if (O.K != Op::Kind::Fence)
        F.Thread[T].push_back({Op::Kind::Fence, 0, 0});
    }
  }
  return F;
}

std::string Program::str() const {
  std::ostringstream OS;
  for (unsigned T = 0; T != 2; ++T) {
    OS << "T" << T << ":";
    for (const Op &O : Thread[T]) {
      switch (O.K) {
      case Op::Kind::Store:
        OS << " st(v" << O.Var << "," << O.Value << ")";
        break;
      case Op::Kind::Load:
        OS << " ld(v" << O.Var << ")";
        break;
      case Op::Kind::AtomicAdd:
        OS << " add(v" << O.Var << "," << O.Value << ")";
        break;
      case Op::Kind::Fence:
        OS << " fence";
        break;
      }
    }
    OS << "\n";
  }
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Exhaustive SC reference
//===----------------------------------------------------------------------===//

std::set<Outcome> fuzz::enumerateScOutcomes(const Program &P) {
  std::set<Outcome> Outcomes;
  std::vector<Word> Mem(P.NumVars, 0);
  std::vector<Word> Loads[2];

  // DFS over interleavings: at each step run the next op of thread 0 or 1.
  std::function<void(size_t, size_t)> Step = [&](size_t I0, size_t I1) {
    if (I0 == P.Thread[0].size() && I1 == P.Thread[1].size()) {
      Outcome O = Loads[0];
      O.insert(O.end(), Loads[1].begin(), Loads[1].end());
      O.insert(O.end(), Mem.begin(), Mem.end());
      Outcomes.insert(std::move(O));
      return;
    }
    for (unsigned T = 0; T != 2; ++T) {
      const size_t I = T == 0 ? I0 : I1;
      if (I == P.Thread[T].size())
        continue;
      const Op &O = P.Thread[T][I];
      // Apply, recurse, undo.
      Word SavedMem = 0;
      bool Loaded = false;
      switch (O.K) {
      case Op::Kind::Store:
        SavedMem = Mem[O.Var];
        Mem[O.Var] = O.Value;
        break;
      case Op::Kind::AtomicAdd:
        SavedMem = Mem[O.Var];
        Mem[O.Var] = SavedMem + O.Value;
        break;
      case Op::Kind::Load:
        Loads[T].push_back(Mem[O.Var]);
        Loaded = true;
        break;
      case Op::Kind::Fence:
        break; // SC: fences are no-ops.
      }
      Step(T == 0 ? I0 + 1 : I0, T == 1 ? I1 + 1 : I1);
      switch (O.K) {
      case Op::Kind::Store:
      case Op::Kind::AtomicAdd:
        Mem[O.Var] = SavedMem;
        break;
      case Op::Kind::Load:
        if (Loaded)
          Loads[T].pop_back();
        break;
      case Op::Kind::Fence:
        break;
      }
    }
  };
  Step(0, 0);
  return Outcomes;
}

//===----------------------------------------------------------------------===//
// Weak-machine execution
//===----------------------------------------------------------------------===//

CompiledProgram fuzz::compileProgram(const Program &P,
                                     const sim::ChipProfile &Chip) {
  CompiledProgram CP;
  CP.NumVars = P.NumVars;
  // The logs are sized by ops per thread (an upper bound on loads), not by
  // loads: this keeps the historical allocation layout, and with it the
  // stress scratchpad's placement that the fuzz goldens pin.
  CP.MaxLoads = static_cast<unsigned>(
      std::max(P.Thread[0].size(), P.Thread[1].size()));

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
    for (const Op &O : P.Thread[T]) {
      const sim::Addr A = CP.Vars + O.Var * Patch;
      switch (O.K) {
      case Op::Kind::Store:
        BP.Ops.push_back({Code::Store, 0, 0, A, O.Value});
        break;
      case Op::Kind::Load:
        // Each load is logged right after it completes; the +1 bias
        // distinguishes a logged 0 from "unset".
        BP.Ops.push_back({Code::Load, NextSlot, 0, A, 0});
        BP.Ops.push_back({Code::WbStore, NextSlot, 0, Log + LoadIdx++, 1});
        ++NextSlot;
        break;
      case Op::Kind::AtomicAdd:
        BP.Ops.push_back({Code::AtomicAdd, 0, 0, A, O.Value});
        break;
      case Op::Kind::Fence:
        BP.Ops.push_back({Code::FenceDevice, 0, 0, 0, 0});
        break;
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

  sim::BatchRunConfig Cfg;
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

FuzzResult fuzz::fuzzProgram(const Program &P,
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
    Entry.P = Program::generate(Gen, Cfg.NumVars, Cfg.OpsPerThread,
                                Cfg.WithFences);
    Entry.R = fuzzProgram(Entry.P, Chip, Cfg.RunsPerProgram,
                          Rng::deriveStream(Seed, 2 * static_cast<uint64_t>(I) + 1),
                          Cfg.Stressed);
  });
  return Batch;
}
