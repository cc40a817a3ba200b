//===- litmus/Litmus.cpp - Litmus program runner ------------------------------===//
//
// Executes litmus::Program tests on the simulated GPU. Every program is
// compiled to one flat op stream per (program, distance, fencing), run by
// sim::runProgram: on the compiled engine by default, stepped by the
// reference engine (the Scheduler) under --engine=scalar. The stream
// reproduces the op shape of the original hand-written Fig. 2 kernels
// exactly — start-phase jitter, ops in order, then register writeback in
// first-load order — so catalog programs for MP/LB/SB/R/S/2+2W execute
// bit-identically to the historical hand-written kernels (pinned by
// LitmusTests' golden weak counts).
//
//===----------------------------------------------------------------------===//

#include "litmus/Litmus.h"

#include "stress/Environment.h"
#include "stress/StressSources.h"
#include "support/Check.h"

#include <cassert>

using namespace gpuwmm;
using namespace gpuwmm::litmus;
using sim::Addr;
using sim::Word;

namespace {

/// The scratchpad size \p S needs: its furthest offset plus one patch.
unsigned scratchWords(const sim::ChipProfile &Chip,
                      const LitmusRunner::MicroStress &S) {
  unsigned MaxOff = 0;
  for (unsigned Off : S.ScratchOffsets)
    MaxOff = std::max(MaxOff, Off);
  return MaxOff + Chip.PatchSizeWords;
}

/// Draws the run's stressing population — a random 50-100% (by default)
/// of the chip's concurrent threads — from \p RunRng into \p Stress.
void drawPopulation(stress::SysStress &Stress, const sim::ChipProfile &Chip,
                    const LitmusRunner::MicroStress &S, Rng &RunRng) {
  const unsigned StressThreads = static_cast<unsigned>(
      RunRng.realIn(S.OccupancyLo, S.OccupancyHi) *
      static_cast<double>(Chip.maxConcurrentThreads()));
  Stress.setUnits(stress::threadUnits(Chip, StressThreads));
}

} // namespace

LitmusRunner::MicroStress
LitmusRunner::MicroStress::tuned(const sim::ChipProfile &Chip,
                                 unsigned Region) {
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  return at(Tuned.Seq, (Region % Chip.NumBanks) * Tuned.PatchWords);
}

bool LitmusRunner::runOnce(const Program &P, unsigned Distance,
                           const MicroStress &S, const RunOpts &Opts) {
  return countWeak(P, Distance, S, 1, Opts) != 0;
}

unsigned LitmusRunner::countWeak(const Program &P, unsigned Distance,
                                 const MicroStress &S, unsigned C,
                                 const RunOpts &Opts,
                                 std::vector<uint8_t> *PerRun) {
  if (PerRun)
    PerRun->clear();
  if (C == 0)
    return 0;
  const CompiledPlan &B = compiledPlan(P, Distance, Opts.WithFences);
  if (S.Enabled) {
    // The source over this plan's scratchpad, with no population yet:
    // each run draws its own (drawPopulation).
    GPUWMM_CHECK(!S.ScratchOffsets.empty(), "stress without locations");
    Stress.retarget(S.Seq, B.ScratchBase, S.ScratchOffsets, 0.0);
  }
  unsigned Weak = 0;
  for (unsigned I = 0; I != C; ++I) {
    const bool IsWeak = runCompiled(B, S, Opts);
    Weak += IsWeak;
    if (PerRun)
      PerRun->push_back(IsWeak);
  }
  return Weak;
}

void LitmusRunner::noteLayout(const Program &P, Addr Base, unsigned Delta,
                              Addr Results) {
  LastProgram = &P;
  const unsigned NumLocs = static_cast<unsigned>(P.Locations.size());
  LocAddr.resize(NumLocs);
  for (unsigned L = 0; L != NumLocs; ++L)
    LocAddr[L] = Base + L * Delta;
  ResultsBase = Results;
}

std::string LitmusRunner::addrName(sim::Addr A) const {
  // Built without operator+ to dodge GCC 12's -Wrestrict false positive.
  std::string S;
  if (const Program *P = LastProgram) {
    for (size_t L = 0; L != LocAddr.size(); ++L)
      if (LocAddr[L] == A)
        return P->Locations[L];
    if (A >= ResultsBase && A < ResultsBase + P->Registers.size()) {
      S = "wb(";
      S += P->Registers[A - ResultsBase];
      S += ")";
      return S;
    }
  }
  S = "a";
  S += std::to_string(A);
  return S;
}

const LitmusRunner::CompiledPlan &
LitmusRunner::compiledPlan(const Program &P, unsigned Distance, bool Fenced) {
  CompiledPlan &B = Compiled;
  if (B.P == &P && B.Distance == Distance && B.Fenced == Fenced)
    return B;
  GPUWMM_CHECK(P.validate().empty(), "program must be well-formed");
  B.P = &P;
  B.Distance = Distance;
  B.Fenced = Fenced;
  B.Delta = Distance == 0 ? 1 : Distance;
  B.NumLocs = static_cast<unsigned>(P.Locations.size());
  B.NumRegs = static_cast<unsigned>(P.Registers.size());

  // Bake the address layout: a freshly reset context allocates with a
  // deterministic patch-aligned bump from zero, in runCompiled's order
  // (locations, writebacks, then the stress scratchpad).
  const unsigned Patch = Chip.PatchSizeWords;
  const auto AlignUp = [Patch](unsigned X) {
    return (X + Patch - 1) / Patch * Patch;
  };
  B.Base = 0;
  B.Results = AlignUp((B.NumLocs - 1) * B.Delta + 1);
  B.ScratchBase = AlignUp(B.Results + std::max(B.NumRegs, 1u));
  B.InitWrites.clear();
  for (unsigned L = 0; L != B.NumLocs; ++L)
    if (P.Init[L] != 0)
      B.InitWrites.emplace_back(B.Base + L * B.Delta, P.Init[L]);

  // Compile the flat op stream: per program thread, the start-phase
  // jitter, the ops with addresses and register slots pre-resolved (an
  // OptFence is baked in or dropped by the plan's fencing), and the
  // register writebacks in first-load order.
  sim::BatchProgram &BP = B.BP;
  BP.Ops.clear();
  BP.GridDim = P.numBlocks();
  BP.BlockDim = P.maxBlockThreads();
  BP.NumSlots = std::max(B.NumRegs, 1u);
  const unsigned NumThreads = static_cast<unsigned>(P.Threads.size());
  std::vector<sim::BatchLane> ThreadRange(NumThreads);
  for (unsigned TI = 0; TI != NumThreads; ++TI) {
    const auto Begin = static_cast<uint32_t>(BP.Ops.size());
    using Code = sim::BatchOp::Code;
    BP.Ops.push_back({Code::Jitter, 0, 0, 0, P.PhaseJitter});
    for (const ProgOp &O : P.Threads[TI].Ops) {
      const sim::Addr A = B.Base + O.Loc * B.Delta;
      const auto Slot = static_cast<uint16_t>(O.Reg);
      switch (O.K) {
      case ProgOp::Kind::Store:
        BP.Ops.push_back({Code::Store, 0, 0, A, O.Value});
        break;
      case ProgOp::Kind::Load:
        BP.Ops.push_back({Code::Load, Slot, 0, A, 0});
        break;
      case ProgOp::Kind::AsyncLoad:
        BP.Ops.push_back({Code::AsyncLoad, Slot, 0, A, 0});
        break;
      case ProgOp::Kind::AwaitLoad:
        BP.Ops.push_back({Code::AwaitLoad, Slot, 0, 0, 0});
        break;
      case ProgOp::Kind::AtomicAdd:
        BP.Ops.push_back({Code::AtomicAdd, 0, 0, A, O.Value});
        break;
      case ProgOp::Kind::Fence:
        BP.Ops.push_back({Code::FenceDevice, 0, 0, 0, 0});
        break;
      case ProgOp::Kind::OptFence:
        if (Fenced)
          BP.Ops.push_back({Code::FenceDevice, 0, 0, 0, 0});
        break;
      }
    }
    for (const ProgOp &O : P.Threads[TI].Ops)
      if (O.K == ProgOp::Kind::Load || O.K == ProgOp::Kind::AsyncLoad)
        BP.Ops.push_back({Code::WbStore, static_cast<uint16_t>(O.Reg), 0,
                          B.Results + O.Reg, 0});
    ThreadRange[TI] = {Begin, static_cast<uint32_t>(BP.Ops.size())};
  }

  // The lane table; unassigned lanes stay empty (idle filler threads).
  BP.Lanes.assign(static_cast<size_t>(BP.GridDim) * BP.BlockDim, {});
  std::vector<unsigned> NextLane(BP.GridDim, 0);
  for (unsigned TI = 0; TI != NumThreads; ++TI) {
    const unsigned Blk = P.Threads[TI].Block;
    BP.Lanes[static_cast<size_t>(Blk) * BP.BlockDim + NextLane[Blk]++] =
        ThreadRange[TI];
  }
  return B;
}

bool LitmusRunner::runCompiled(const CompiledPlan &B, const MicroStress &S,
                               const RunOpts &Opts) {
  // Per-run draw order: fork the run stream, seed the context, then (when
  // stressed) draw the occupancy.
  Rng RunRng = Master.fork(Execs);
  ++Execs;
  sim::ExecutionContext &EC = Ctx.get();
  EC.requestTracing(Opts.Trace);
  EC.requestStreaming(Opts.Sink);
  EC.reset(Chip, RunRng.next());
  sim::MemorySystem &Mem = EC.memory();
  Mem.setSequentialMode(Opts.Sequential);

  // All locations live in one allocation, delta words apart (T_d): the
  // location list's order is the memory layout.
  const Addr Base = Mem.alloc((B.NumLocs - 1) * B.Delta + 1);
  const Addr Results = Mem.alloc(std::max(B.NumRegs, 1u));
  GPUWMM_CHECK(Base == B.Base && Results == B.Results,
               "allocation layout diverged from the compiled plan");
  noteLayout(*B.P, Base, B.Delta, Results);
  for (const auto &[A, V] : B.InitWrites)
    Mem.hostWrite(A, V);
  if (S.Enabled) {
    // The scratchpad is a real allocation, so stressed locations occupy
    // genuine banks downstream of the test locations (the paper cannot
    // control this distance either and designs the stress not to depend
    // on it).
    const Addr Scratch = Mem.alloc(scratchWords(Chip, S));
    GPUWMM_CHECK(Scratch == B.ScratchBase,
                 "scratch layout diverged from the compiled plan");
    drawPopulation(Stress, Chip, S, RunRng);
    Mem.setCongestionSource(&Stress);
  }

  // Program::validate guarantees every register slot is written — by its
  // load or async ticket — before any op reads it.
  std::vector<Word> &Regs = EC.batchScratch().Regs;
  Regs.assign(B.BP.NumSlots, 0);
  sim::SchedulerConfig Cfg;
  Cfg.RandomiseThreads = Opts.Randomise;
  const sim::RunResult Result =
      sim::runProgram(B.BP, EC, Chip, Regs.data(), Cfg);
  GPUWMM_CHECK(Result.completed(), "litmus execution must terminate");

  FinalRegs.resize(B.NumRegs);
  for (unsigned R = 0; R != B.NumRegs; ++R)
    FinalRegs[R] = Mem.hostRead(B.Results + R);
  FinalMem.resize(B.NumLocs);
  for (unsigned L = 0; L != B.NumLocs; ++L)
    FinalMem[L] = Mem.hostRead(LocAddr[L]);
  return B.P->evalForbidden(FinalRegs, FinalMem);
}
