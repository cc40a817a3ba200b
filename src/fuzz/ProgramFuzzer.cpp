//===- fuzz/ProgramFuzzer.cpp - Random-program differential fuzzing ----------===//

#include "fuzz/ProgramFuzzer.h"

#include "sim/Device.h"
#include "sim/ThreadContext.h"
#include "stress/Environment.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <sstream>

using namespace gpuwmm;
using namespace gpuwmm::fuzz;
using sim::Addr;
using sim::Kernel;
using sim::ThreadContext;
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

namespace {

Kernel interpretThread(ThreadContext &Ctx, const std::vector<Op> *Ops,
                       Addr Vars, Addr LoadLog) {
  co_await Ctx.yield(1 + static_cast<unsigned>(Ctx.rand(8)));
  unsigned LoadIdx = 0;
  for (const Op &O : *Ops) {
    switch (O.K) {
    case Op::Kind::Store:
      co_await Ctx.st(Vars + O.Var, O.Value);
      break;
    case Op::Kind::Load: {
      const Word V = co_await Ctx.ld(Vars + O.Var);
      co_await Ctx.st(LoadLog + LoadIdx++, V + 1); // +1: log 0 = "unset".
      break;
    }
    case Op::Kind::AtomicAdd:
      co_await Ctx.atomicAdd(Vars + O.Var, O.Value);
      break;
    case Op::Kind::Fence:
      co_await Ctx.fence();
      break;
    }
  }
}

} // namespace

Outcome fuzz::runOnWeakMachine(sim::ExecutionContext &Ctx, const Program &P,
                               const sim::ChipProfile &Chip, uint64_t Seed,
                               bool Stressed) {
  Rng R(Seed);
  sim::Device Dev(Ctx, Chip, R.next());

  // Spread variables over distinct patches so cross-bank reordering can
  // occur between any pair, as between distinct allocations in real
  // applications.
  std::vector<Addr> VarAddr(P.NumVars);
  const Addr Vars = Dev.alloc(P.NumVars * Chip.PatchSizeWords);
  for (unsigned V = 0; V != P.NumVars; ++V)
    VarAddr[V] = Vars + V * Chip.PatchSizeWords;
  const unsigned MaxLoads = static_cast<unsigned>(
      std::max(P.Thread[0].size(), P.Thread[1].size()));
  const Addr Log0 = Dev.alloc(MaxLoads + 1);
  const Addr Log1 = Dev.alloc(MaxLoads + 1);

  std::unique_ptr<sim::CongestionSource> Stress;
  if (Stressed) {
    Rng EnvRng = R.fork(1);
    Stress = stress::applyEnvironment(
        {stress::StressKind::Sys, true}, Dev,
        stress::TunedStressParams::paperDefaults(Chip), EnvRng);
  }

  // Translate variable indices into patch-spread word offsets for the
  // interpreter (the translated vectors outlive the synchronous run).
  std::vector<Op> Translated[2];
  for (unsigned T = 0; T != 2; ++T) {
    Translated[T] = P.Thread[T];
    for (Op &O : Translated[T])
      O.Var *= Chip.PatchSizeWords;
  }

  const std::vector<Op> *T0 = &Translated[0];
  const std::vector<Op> *T1 = &Translated[1];
  const Addr VarsBase = Vars;
  Dev.run({2, 1}, [=](ThreadContext &Ctx) -> Kernel {
    return interpretThread(Ctx, Ctx.blockIdx() == 0 ? T0 : T1, VarsBase,
                           Ctx.blockIdx() == 0 ? Log0 : Log1);
  });

  Outcome O;
  for (unsigned T = 0; T != 2; ++T) {
    const Addr Log = T == 0 ? Log0 : Log1;
    unsigned LoadIdx = 0;
    for (const Op &Op_ : P.Thread[T])
      if (Op_.K == Op::Kind::Load)
        O.push_back(Dev.read(Log + LoadIdx++) - 1);
  }
  for (unsigned V = 0; V != P.NumVars; ++V)
    O.push_back(Dev.read(VarAddr[V]));
  return O;
}

Outcome fuzz::runOnWeakMachine(const Program &P,
                               const sim::ChipProfile &Chip, uint64_t Seed,
                               bool Stressed) {
  sim::ContextLease Ctx;
  return runOnWeakMachine(Ctx.get(), P, Chip, Seed, Stressed);
}

//===----------------------------------------------------------------------===//
// Batched weak-machine execution
//===----------------------------------------------------------------------===//

CompiledProgram fuzz::compileProgram(const Program &P,
                                     const sim::ChipProfile &Chip) {
  CompiledProgram CP;
  CP.NumVars = P.NumVars;
  // Scalar parity: the logs are sized by ops per thread (a safe upper
  // bound on loads), so the allocation layout matches runOnWeakMachine.
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
    BP.Ops.push_back({Code::Jitter, 0, 0, 0, 8}); // yield(1 + rand(8)).
    const sim::Addr Log = T == 0 ? CP.Log0 : CP.Log1;
    unsigned LoadIdx = 0;
    for (const Op &O : P.Thread[T]) {
      const sim::Addr A = CP.Vars + O.Var * Patch;
      switch (O.K) {
      case Op::Kind::Store:
        BP.Ops.push_back({Code::Store, 0, 0, A, O.Value});
        break;
      case Op::Kind::Load:
        // The interpreter logs each load right after it completes; the
        // +1 bias distinguishes a logged 0 from "unset".
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

Outcome fuzz::runCompiledOnWeakMachine(sim::ExecutionContext &Ctx,
                                       const CompiledProgram &CP,
                                       const sim::ChipProfile &Chip,
                                       uint64_t Seed, bool Stressed) {
  // Draw-for-draw replica of runOnWeakMachine: same device seeding, same
  // allocation order, same environment draws — only the kernel launch is
  // replaced by the batched executor.
  Rng R(Seed);
  sim::Device Dev(Ctx, Chip, R.next());

  const sim::Addr Vars = Dev.alloc(CP.NumVars * Chip.PatchSizeWords);
  const sim::Addr Log0 = Dev.alloc(CP.MaxLoads + 1);
  const sim::Addr Log1 = Dev.alloc(CP.MaxLoads + 1);
  assert(Vars == CP.Vars && Log0 == CP.Log0 && Log1 == CP.Log1 &&
         "allocation layout diverged from the compiled plan");
  (void)Vars;
  (void)Log0;
  (void)Log1;

  std::unique_ptr<sim::CongestionSource> Stress;
  if (Stressed) {
    Rng EnvRng = R.fork(1);
    Stress = stress::applyEnvironment(
        {stress::StressKind::Sys, true}, Dev,
        stress::TunedStressParams::paperDefaults(Chip), EnvRng);
  }

  sim::BatchRunConfig Cfg;
  Cfg.RandomiseThreads = Stressed; // applyEnvironment's sys-str+ setting.
  sim::BatchScratch &BS = Ctx.batchScratch();
  BS.Regs.assign(CP.BP.NumSlots, 0);
  const sim::RunResult Result = sim::runBatchProgram(
      CP.BP, Chip, Dev.memory(), Dev.rng(), BS, BS.Regs.data(), Cfg);
  assert(Result.completed() && "fuzz execution must terminate");
  (void)Result;

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
  // Compile once, execute every run on the batched engine — bit-identical
  // to the scalar interpreter at the same derived seeds (the property
  // FuzzTests pins), at a fraction of the per-run cost. --engine=scalar
  // forces the interpreter for A/B debugging.
  if (sim::engineMode() == sim::EngineMode::Scalar) {
    for (unsigned I = 0; I != Runs; ++I) {
      const Outcome O =
          runOnWeakMachine(Ctx.get(), P, Chip, Master.fork(I).next(),
                           Stressed);
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
  const CompiledProgram CP = compileProgram(P, Chip);
  for (unsigned I = 0; I != Runs; ++I) {
    const Outcome O =
        runCompiledOnWeakMachine(Ctx.get(), CP, Chip, Master.fork(I).next(),
                                 Stressed);
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
