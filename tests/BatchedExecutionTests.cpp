//===- tests/BatchedExecutionTests.cpp - batched-vs-scalar identity ----------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// The compiled litmus engine's determinism contract (DESIGN.md Sec. 17):
// LitmusRunner::countWeak on the compiled engine must be bit-identical,
// run for run, to a runOnce loop on the reference engine
// (--engine=scalar) at the same derived seed streams — for every option
// combination, fresh and reused contexts, and under host-level
// parallelism. These property tests pin that contract over the full
// built-in catalog and a population of random fuzz programs.
//
//===----------------------------------------------------------------------===//

#include "EngineModeGuard.h"

#include "fuzz/ProgramFuzzer.h"
#include "litmus/Format.h"
#include "litmus/Litmus.h"
#include "support/ThreadPool.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <string>
#include <vector>

using namespace gpuwmm;
using namespace gpuwmm::litmus;

namespace {

const sim::ChipProfile &titan() { return *sim::ChipProfile::lookup("titan"); }

stress::AccessSequence tunedSeq() {
  return stress::AccessSequence::parse("ld st2 ld");
}

LitmusRunner::MicroStress tunedStress() {
  return LitmusRunner::MicroStress::at(tunedSeq(),
                                       2 * titan().PatchSizeWords);
}

/// One named option combination for the identity sweep.
struct OptCase {
  const char *Name;
  LitmusRunner::RunOpts Opts;
  bool Stressed;
};

std::vector<OptCase> optCases() {
  std::vector<OptCase> Cases;
  LitmusRunner::RunOpts O;
  Cases.push_back({"plain", O, false});
  O = {};
  O.WithFences = true;
  Cases.push_back({"fenced", O, false});
  O = {};
  O.Sequential = true;
  Cases.push_back({"sc", O, false});
  O = {};
  O.Randomise = true;
  Cases.push_back({"randomise", O, false});
  O = {};
  Cases.push_back({"stressed", O, true});
  O = {};
  O.Randomise = true;
  Cases.push_back({"stressed-randomise", O, true});
  return Cases;
}

/// The scalar reference: a runOnce loop on a fresh runner under
/// --engine=scalar, collecting the per-run weak verdicts.
std::vector<uint8_t> scalarVerdicts(const Program &P, unsigned Distance,
                                    const LitmusRunner::MicroStress &S,
                                    unsigned Runs,
                                    const LitmusRunner::RunOpts &Opts,
                                    uint64_t Seed) {
  EngineModeGuard Scalar(sim::EngineMode::Scalar);
  LitmusRunner Runner(titan(), Seed);
  std::vector<uint8_t> V;
  V.reserve(Runs);
  for (unsigned I = 0; I != Runs; ++I)
    V.push_back(Runner.runOnce(P, Distance, S, Opts));
  return V;
}

/// One compiled countWeak call on a fresh runner.
std::vector<uint8_t> batchedVerdicts(const Program &P, unsigned Distance,
                                     const LitmusRunner::MicroStress &S,
                                     unsigned Runs,
                                     const LitmusRunner::RunOpts &Opts,
                                     uint64_t Seed) {
  LitmusRunner Runner(titan(), Seed);
  std::vector<uint8_t> V;
  const unsigned Weak = Runner.countWeak(P, Distance, S, Runs, Opts, &V);
  EXPECT_EQ(Weak, static_cast<unsigned>(
                      std::count(V.begin(), V.end(), uint8_t(1))));
  EXPECT_EQ(Runner.executions(), Runs);
  return V;
}

} // namespace

//===----------------------------------------------------------------------===//
// Full-catalog identity, all option combinations
//===----------------------------------------------------------------------===//

class CatalogIdentity : public ::testing::TestWithParam<unsigned> {};

TEST_P(CatalogIdentity, BatchedMatchesScalarBitForBit) {
  const Program &P = catalog()[GetParam()];
  const unsigned Distance = 128;
  const unsigned Runs = 120;
  for (const OptCase &C : optCases()) {
    const auto S = C.Stressed ? tunedStress() : LitmusRunner::MicroStress::none();
    const uint64_t Seed = 9000 + GetParam();
    const auto Scalar = scalarVerdicts(P, Distance, S, Runs, C.Opts, Seed);
    const auto Batched = batchedVerdicts(P, Distance, S, Runs, C.Opts, Seed);
    EXPECT_EQ(Scalar, Batched) << P.Name << " under " << C.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    FullCatalog, CatalogIdentity,
    ::testing::Range(0u, static_cast<unsigned>(catalog().size())),
    [](const ::testing::TestParamInfo<unsigned> &Info) {
      std::string N = catalog()[Info.param].Name;
      for (char &C : N)
        if (!isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return N;
    });

//===----------------------------------------------------------------------===//
// Context reuse: plan switches and mixed scalar/batched streams
//===----------------------------------------------------------------------===//

TEST(ContextReuse, AlternatingInstancesMatchScalarSequence) {
  // One runner alternating programs/distances compiled must replay the
  // exact verdict sequence of one scalar runner doing the same sequence:
  // plan rebuilds and scratch reuse never leak state between instances.
  const Program &A = *findCatalogProgram("MP");
  const Program &B = *findCatalogProgram("SB");
  const auto S = tunedStress();
  const LitmusRunner::RunOpts Opts;

  LitmusRunner Scalar(titan(), 77);
  std::vector<uint8_t> Ref;
  {
    EngineModeGuard Guard(sim::EngineMode::Scalar);
    for (unsigned Leg = 0; Leg != 4; ++Leg) {
      const Program &P = Leg % 2 ? B : A;
      const unsigned D = Leg % 2 ? 64 : 128;
      for (unsigned I = 0; I != 40; ++I)
        Ref.push_back(Scalar.runOnce(P, D, S, Opts));
    }
  }

  LitmusRunner Batched(titan(), 77);
  std::vector<uint8_t> Got, Leg;
  for (unsigned L = 0; L != 4; ++L) {
    Batched.countWeak(L % 2 ? B : A, L % 2 ? 64 : 128, S, 40, Opts, &Leg);
    Got.insert(Got.end(), Leg.begin(), Leg.end());
  }
  EXPECT_EQ(Ref, Got);
  EXPECT_EQ(Scalar.executions(), Batched.executions());
}

TEST(ContextReuse, TracedRunsInterleaveWithBatchedRuns) {
  // Traced runs take the compiled engine like any other; the seed stream
  // must stay continuous across traced and untraced calls so `litmus
  // --explain` replays are unaffected by the runs around them.
  const Program &P = *findCatalogProgram("MP");
  const auto S = tunedStress();
  LitmusRunner::RunOpts Plain, Traced;
  Traced.Trace = true;

  std::vector<uint8_t> Want;
  {
    EngineModeGuard Guard(sim::EngineMode::Scalar);
    LitmusRunner Ref(titan(), 5);
    for (unsigned I = 0; I != 100; ++I)
      Want.push_back(Ref.runOnce(P, 128, S, Plain));
  }

  LitmusRunner Mixed(titan(), 5);
  std::vector<uint8_t> Got;
  for (unsigned I = 0; I != 3; ++I) {
    Got.push_back(Mixed.countWeak(P, 128, S, 1, Traced) != 0);
    EXPECT_FALSE(Mixed.trace().empty());
  }
  std::vector<uint8_t> Tail;
  Mixed.countWeak(P, 128, S, 97, Plain, &Tail);
  Got.insert(Got.end(), Tail.begin(), Tail.end());
  EXPECT_EQ(Want, Got);
  EXPECT_EQ(Mixed.executions(), 100u);
}

TEST(ContextReuse, CountWeakDelegatesToBatchedPath) {
  // countWeak's compiled loop (one stress source per call) and a runOnce
  // loop (one source per run) agree run for run.
  const Program &P = *findCatalogProgram("LB");
  const auto S = tunedStress();
  LitmusRunner A(titan(), 11), B(titan(), 11);
  std::vector<uint8_t> PerRun, Loop;
  const unsigned Weak = A.countWeak(P, 128, S, 200, {}, &PerRun);
  for (unsigned I = 0; I != 200; ++I)
    Loop.push_back(B.runOnce(P, 128, S));
  EXPECT_EQ(PerRun, Loop);
  EXPECT_EQ(Weak, static_cast<unsigned>(
                      std::count(Loop.begin(), Loop.end(), uint8_t(1))));
}

//===----------------------------------------------------------------------===//
// Host-level parallelism: pool vs serial
//===----------------------------------------------------------------------===//

TEST(PoolDeterminism, BatchedRunnersAreBitIdenticalUnderThreadPool) {
  // Each index runs a compiled sweep on its own runner with a derived
  // seed; a 4-job pool must reproduce the serial results exactly (the
  // compiled engine keeps all state in the per-thread leased context).
  const auto S = tunedStress();
  const auto RunIndex = [&](size_t I) {
    const Program &P = catalog()[I % catalog().size()];
    LitmusRunner Runner(titan(), 1234 + I);
    std::vector<uint8_t> V;
    Runner.countWeak(P, 96, S, 80, {}, &V);
    return V;
  };

  constexpr size_t N = 12;
  std::vector<std::vector<uint8_t>> Serial(N), Pooled(N);
  for (size_t I = 0; I != N; ++I)
    Serial[I] = RunIndex(I);
  ThreadPool Pool(4);
  Pool.parallelFor(N, [&](size_t I) { Pooled[I] = RunIndex(I); });
  EXPECT_EQ(Serial, Pooled);
}

//===----------------------------------------------------------------------===//
// Random-program population: fuzz cases through the batched litmus path
//===----------------------------------------------------------------------===//

TEST(FuzzPrograms, FiftyRandomProgramsMatchScalarBitForBit) {
  // Fuzz-generated programs exercise op mixes (atomics, fences, repeated
  // loads of one variable) the hand-written catalog does not.
  Rng Gen(0xfeedu);
  unsigned Checked = 0;
  for (unsigned I = 0; I != 50; ++I) {
    Rng R = Gen.fork(I);
    const Program P = fuzz::generateProgram(R, 3, 5, I % 4 == 0);
    ASSERT_TRUE(P.validate().empty()) << P.validate();
    LitmusRunner::RunOpts Opts;
    Opts.Randomise = I % 2 == 0;
    const auto S = I % 3 == 0 ? LitmusRunner::MicroStress::none()
                              : tunedStress();
    const auto Scalar = scalarVerdicts(P, 32, S, 30, Opts, 5000 + I);
    const auto Batched = batchedVerdicts(P, 32, S, 30, Opts, 5000 + I);
    ASSERT_EQ(Scalar, Batched) << printLitmus(P);
    ++Checked;
  }
  EXPECT_EQ(Checked, 50u);
}

//===----------------------------------------------------------------------===//
// Op semantics: the app-lowering ISA (DESIGN.md Sec. 19) exercised directly
// through sim::runProgram on both engines, independent of any application
// lowering. Every program runs on the compiled engine and on its reference
// interpretation; the two must agree on status, ticks, memory statistics,
// the trace event stream and final memory, and the tests then check the
// op semantics on that common result.
//===----------------------------------------------------------------------===//

namespace {

/// One traced run of a hand-assembled program on one engine.
struct RawRun {
  sim::RunResult Result;
  std::vector<sim::TraceEvent> Events;
  std::vector<sim::Word> Memory; ///< Every allocated word after the run.
  std::vector<sim::Word> Regs;   ///< The run's final registers.
};

RawRun runOn(sim::EngineMode Mode, const sim::BatchProgram &BP,
             unsigned Words, uint64_t Seed) {
  EngineModeGuard Guard(Mode);
  sim::ExecutionContext Ctx;
  Ctx.requestTracing(true);
  Ctx.reset(titan(), Seed);
  if (Words != 0)
    (void)Ctx.memory().alloc(Words);
  sim::SchedulerConfig Cfg;
  Cfg.MaxTicks = 100000;
  RawRun R;
  R.Regs.assign(std::max(1u, BP.NumSlots), 0);
  R.Result = sim::runProgram(BP, Ctx, titan(), R.Regs.data(), Cfg);
  R.Events = Ctx.trace().events();
  for (sim::Addr A = 0; A != Words; ++A)
    R.Memory.push_back(Ctx.memory().hostRead(A));
  return R;
}

/// Runs \p BP once on each engine from a fresh context at \p Seed whose
/// first \p Words words are allocated (the layout a test built on a
/// scratch context with the same chip), expects the runs to agree, and
/// returns the compiled engine's. Registers of a completed run agree too;
/// a run cut short may leave its last load's register unwritten on the
/// reference engine, which assigns loaded values at the next resume.
RawRun runRaw(const sim::BatchProgram &BP, unsigned Words, uint64_t Seed) {
  const RawRun Ref = runOn(sim::EngineMode::Scalar, BP, Words, Seed);
  const RawRun R = runOn(sim::EngineMode::Auto, BP, Words, Seed);
  EXPECT_EQ(R.Result.Status, Ref.Result.Status);
  EXPECT_EQ(R.Result.Ticks, Ref.Result.Ticks);
  EXPECT_EQ(R.Result.Mem.Loads, Ref.Result.Mem.Loads);
  EXPECT_EQ(R.Result.Mem.Stores, Ref.Result.Mem.Stores);
  EXPECT_EQ(R.Result.Mem.Atomics, Ref.Result.Mem.Atomics);
  EXPECT_EQ(R.Result.Mem.DeviceFences, Ref.Result.Mem.DeviceFences);
  EXPECT_EQ(R.Result.Mem.BlockFences, Ref.Result.Mem.BlockFences);
  EXPECT_TRUE(R.Events == Ref.Events) << "event streams differ";
  EXPECT_EQ(R.Memory, Ref.Memory);
  if (R.Result.completed()) {
    EXPECT_EQ(R.Regs, Ref.Regs);
  }
  return R;
}

} // namespace

TEST(BatchOpSemantics, FreeOpLoopWithBackwardBranch) {
  // r0 = sum(0..4) computed entirely in free ops (MovImm/AddRR/AddImm/BrLt
  // form a register loop), then written back. The whole loop must execute
  // in the prefix of the single WbStore resume: exactly one suspending op
  // means the run completes in a handful of ticks, never a timeout.
  using sim::BatchOp;
  using Code = sim::BatchOp::Code;
  sim::ExecutionContext Ctx;
  Ctx.reset(titan(), 7);
  const sim::Addr Out = Ctx.memory().alloc(1);

  sim::BatchProgram BP;
  BP.GridDim = 1;
  BP.BlockDim = 1;
  BP.NumSlots = 2;
  BP.Ops.push_back({Code::MovImm, 0, 0, 0, 0}); // r0 = 0
  BP.Ops.push_back({Code::MovImm, 1, 0, 0, 0}); // r1 = 0
  BP.Ops.push_back({Code::AddRR, 0, 0, 1, 0});  // loop: r0 = r0 + r1
  BP.Ops.push_back({Code::AddImm, 1, 1, 0, 1}); // r1 += 1
  BP.Ops.push_back({Code::BrLt, 1, 0, 2, 5});   // if (r1 < 5) goto loop
  BP.Ops.push_back({Code::WbStore, 0, 0, Out, 0});
  BP.Lanes.push_back({0, static_cast<uint32_t>(BP.Ops.size())});

  const RawRun R = runRaw(BP, Ctx.memory().allocatedWords(), 7);
  EXPECT_EQ(R.Result.Status, sim::RunStatus::Completed);
  EXPECT_EQ(R.Memory[Out], 10u);
  EXPECT_EQ(R.Regs[0], 10u);
  EXPECT_EQ(R.Regs[1], 5u);
}

TEST(BatchOpSemantics, IndexedAddressingRoundTrip) {
  // MulImm/ModImm compute a bucket index; StoreIdx writes through it and
  // LoadIdx reads it back — the cbe-ht addressing shape in isolation.
  using Code = sim::BatchOp::Code;
  sim::ExecutionContext Ctx;
  Ctx.reset(titan(), 11);
  const sim::Addr Table = Ctx.memory().alloc(8);
  const sim::Addr Out = Ctx.memory().alloc(1);

  sim::BatchProgram BP;
  BP.GridDim = 1;
  BP.BlockDim = 1;
  BP.NumSlots = 3;
  BP.Ops.push_back({Code::MovImm, 0, 0, 0, 7});       // r0 = 7
  BP.Ops.push_back({Code::MulImm, 1, 0, 0, 3});       // r1 = 21
  BP.Ops.push_back({Code::ModImm, 1, 1, 0, 8});       // r1 = 5
  BP.Ops.push_back({Code::StoreIdx, 0, 1, Table, 9}); // Table[5] = 9
  BP.Ops.push_back({Code::LoadIdx, 2, 1, Table, 0});  // r2 = Table[5]
  BP.Ops.push_back({Code::WbStore, 2, 0, Out, 0});
  BP.Lanes.push_back({0, static_cast<uint32_t>(BP.Ops.size())});

  const RawRun R = runRaw(BP, Ctx.memory().allocatedWords(), 11);
  EXPECT_EQ(R.Result.Status, sim::RunStatus::Completed);
  EXPECT_EQ(R.Memory[Table + 5], 9u);
  EXPECT_EQ(R.Memory[Out], 9u);
}

TEST(BatchOpSemantics, AtomicReturnValueOps) {
  // AtomicCas compares with its register, swaps in the immediate and
  // leaves the old word in the register; AtomicAddReg returns the pre-add
  // value (a ticket draw); AtomicExch is fire-and-forget. Single lane, so
  // the sequence is fully determined.
  using Code = sim::BatchOp::Code;
  sim::ExecutionContext Ctx;
  Ctx.reset(titan(), 13);
  const sim::Addr M = Ctx.memory().alloc(1);
  const sim::Addr Out = Ctx.memory().alloc(4);

  sim::BatchProgram BP;
  BP.GridDim = 1;
  BP.BlockDim = 1;
  BP.NumSlots = 4;
  // CAS(M, compare 0, value 1): succeeds, old value 0.
  BP.Ops.push_back({Code::MovImm, 0, 0, 0, 0});
  BP.Ops.push_back({Code::AtomicCas, 0, 0, M, 1});
  // CAS(M, compare 0, value 7): fails (M == 1), old value 1.
  BP.Ops.push_back({Code::MovImm, 1, 0, 0, 0});
  BP.Ops.push_back({Code::AtomicCas, 1, 0, M, 7});
  // Exch(M, 0xfffffffe); a full-width compare then swaps in 5.
  BP.Ops.push_back({Code::AtomicExch, 0, 0, M, 0xfffffffeu});
  BP.Ops.push_back({Code::MovImm, 3, 0, 0, 0xfffffffeu});
  BP.Ops.push_back({Code::AtomicCas, 3, 0, M, 5});
  // AtomicAddReg returns the pre-add 5 and leaves 11.
  BP.Ops.push_back({Code::AtomicAddReg, 2, 0, M, 6});
  for (uint16_t R = 0; R != 4; ++R)
    BP.Ops.push_back({Code::WbStore, R, 0, Out + R, 0});
  BP.Lanes.push_back({0, static_cast<uint32_t>(BP.Ops.size())});

  const RawRun R = runRaw(BP, Ctx.memory().allocatedWords(), 13);
  EXPECT_EQ(R.Result.Status, sim::RunStatus::Completed);
  EXPECT_EQ(R.Memory[Out + 0], 0u);
  EXPECT_EQ(R.Memory[Out + 1], 1u);
  EXPECT_EQ(R.Memory[Out + 2], 5u);
  EXPECT_EQ(R.Memory[Out + 3], 0xfffffffeu);
  EXPECT_EQ(R.Memory[M], 11u);
}

namespace {

/// Step functions for StepCallsItsTableEntryOnTheWindow: a signed
/// 64-bit quotient, and a push onto a stack held in the window.
void signedQuotient(sim::Word *W) {
  const int64_t D = static_cast<int64_t>(W[0]) - W[1];
  W[2] = static_cast<sim::Word>((D << 12) / 3);
}
void pushOnWindowStack(sim::Word *W) { W[3 + W[2] % 4] = W[0]; }

} // namespace

TEST(BatchOpSemantics, StepCallsItsTableEntryOnTheWindow) {
  // A Step op calls Steps[Imm] on the window starting at its slot, in the
  // prefix of the next suspending op's resume, on both engines: slots
  // below the window stay untouched.
  using Code = sim::BatchOp::Code;
  sim::ExecutionContext Ctx;
  Ctx.reset(titan(), 31);
  const sim::Addr Out = Ctx.memory().alloc(2);

  sim::BatchProgram BP;
  BP.GridDim = 1;
  BP.BlockDim = 1;
  BP.NumSlots = 8;
  BP.Steps = {signedQuotient, pushOnWindowStack};
  BP.Ops.push_back({Code::MovImm, 0, 0, 0, 99});   // Outside the window.
  BP.Ops.push_back({Code::MovImm, 1, 0, 0, 5});    // W[0] = 5
  BP.Ops.push_back({Code::MovImm, 2, 0, 0, 8});    // W[1] = 8
  BP.Ops.push_back({Code::Step, 1, 7, 0, 0});      // W[2] = (-3 << 12) / 3
  BP.Ops.push_back({Code::WbStore, 3, 0, Out, 0});
  BP.Ops.push_back({Code::Step, 1, 7, 0, 1});      // W[3 + W[2] % 4] = 5
  BP.Ops.push_back({Code::WbStore, 0, 0, Out + 1, 0});
  BP.Lanes.push_back({0, static_cast<uint32_t>(BP.Ops.size())});

  const RawRun R = runRaw(BP, Ctx.memory().allocatedWords(), 31);
  EXPECT_EQ(R.Result.Status, sim::RunStatus::Completed);
  const sim::Word Quotient = static_cast<sim::Word>(-4096);
  EXPECT_EQ(R.Memory[Out], Quotient);
  EXPECT_EQ(R.Memory[Out + 1], 99u);
  EXPECT_EQ(R.Regs[4 + Quotient % 4], 5u);
}

TEST(BatchOpSemantics, BarrierSynchronisesBlockStores) {
  // Producer stores then barriers; consumer barriers then loads. The
  // release fences every parked lane's store buffer (block scope), so the
  // consumer must observe the store — the sdk-red partial-sum handoff in
  // miniature.
  using Code = sim::BatchOp::Code;
  sim::ExecutionContext Ctx;
  Ctx.reset(titan(), 17);
  const sim::Addr A = Ctx.memory().alloc(1);
  const sim::Addr Out = Ctx.memory().alloc(1);

  sim::BatchProgram BP;
  BP.GridDim = 1;
  BP.BlockDim = 2;
  BP.NumSlots = 1;
  const uint32_t P0 = static_cast<uint32_t>(BP.Ops.size());
  BP.Ops.push_back({Code::Store, 0, 0, A, 1});
  BP.Ops.push_back({Code::Barrier, 0, 0, 0, 0});
  const uint32_t P1 = static_cast<uint32_t>(BP.Ops.size());
  BP.Ops.push_back({Code::Barrier, 0, 0, 0, 0});
  BP.Ops.push_back({Code::Load, 0, 0, A, 0});
  BP.Ops.push_back({Code::WbStore, 0, 0, Out, 0});
  const uint32_t End = static_cast<uint32_t>(BP.Ops.size());
  BP.Lanes.push_back({P0, P1});
  BP.Lanes.push_back({P1, End});

  const RawRun R = runRaw(BP, Ctx.memory().allocatedWords(), 17);
  EXPECT_EQ(R.Result.Status, sim::RunStatus::Completed);
  EXPECT_EQ(R.Memory[Out], 1u);
}

TEST(BatchOpSemantics, BarrierDivergenceIsDetected) {
  // One lane parks at a barrier its sibling never reaches (the sibling
  // sleeps and completes). CUDA calls this UB; the engine classifies it
  // as BarrierDivergence exactly as the reference engine does.
  using Code = sim::BatchOp::Code;
  sim::ExecutionContext Ctx;
  Ctx.reset(titan(), 19);

  sim::BatchProgram BP;
  BP.GridDim = 1;
  BP.BlockDim = 2;
  BP.NumSlots = 1;
  const uint32_t P0 = static_cast<uint32_t>(BP.Ops.size());
  BP.Ops.push_back({Code::Barrier, 0, 0, 0, 0});
  const uint32_t P1 = static_cast<uint32_t>(BP.Ops.size());
  BP.Ops.push_back({Code::Sleep, 0, 0, 0, 5});
  const uint32_t End = static_cast<uint32_t>(BP.Ops.size());
  BP.Lanes.push_back({P0, P1});
  BP.Lanes.push_back({P1, End});

  const RawRun R = runRaw(BP, Ctx.memory().allocatedWords(), 19);
  EXPECT_EQ(R.Result.Status, sim::RunStatus::BarrierDivergence);
}

TEST(BatchOpSemantics, TaskQueueOps) {
  // The tpo-tm lowering's ops: AndImm masks a packed descriptor, BrLtRR
  // compares two registers, AtomicAddIdx counts through an index register
  // and WbStoreIdx writes a register plus a bias through one.
  using Code = sim::BatchOp::Code;
  sim::ExecutionContext Ctx;
  Ctx.reset(titan(), 23);
  const sim::Addr Counts = Ctx.memory().alloc(8);
  const sim::Addr Buf = Ctx.memory().alloc(8);
  const sim::Addr Out = Ctx.memory().alloc(2);

  sim::BatchProgram BP;
  BP.GridDim = 1;
  BP.BlockDim = 1;
  BP.NumSlots = 3;
  BP.Ops.push_back({Code::MovImm, 0, 0, 0, 0x10003});  // r0 = packed task
  BP.Ops.push_back({Code::AndImm, 1, 0, 0, 0xffff});   // r1 = 3
  BP.Ops.push_back({Code::AtomicAddIdx, 0, 1, Counts, 5}); // Counts[3] += 5
  BP.Ops.push_back({Code::WbStoreIdx, 1, 1, Buf, 10}); // Buf[3] = 3 + 10
  BP.Ops.push_back({Code::MovImm, 2, 0, 0, 4});        // r2 = 4
  BP.Ops.push_back({Code::BrLtRR, 1, 2, 8, 0});        // 3 < 4: taken
  BP.Ops.push_back({Code::Store, 0, 0, Out, 1});       // skipped
  BP.Ops.push_back({Code::Jump, 0, 0, 9, 0});          // skipped
  BP.Ops.push_back({Code::BrLtRR, 2, 1, 10, 0});       // 4 < 3: not taken
  BP.Ops.push_back({Code::Store, 0, 0, Out + 1, 1});   // runs
  BP.Lanes.push_back({0, static_cast<uint32_t>(BP.Ops.size())});

  const RawRun R = runRaw(BP, Ctx.memory().allocatedWords(), 23);
  EXPECT_EQ(R.Result.Status, sim::RunStatus::Completed);
  EXPECT_EQ(R.Regs[1], 3u);
  EXPECT_EQ(R.Memory[Counts + 3], 5u);
  EXPECT_EQ(R.Memory[Buf + 3], 13u);
  EXPECT_EQ(R.Memory[Out], 0u);
  EXPECT_EQ(R.Memory[Out + 1], 1u);
}

TEST(BatchOpSemantics, FusedLoadsBackoffAndIndexedAtomics) {
  // The remaining codes: start jitter, LoadAcc/LoadAccIdx/LoadMulAcc
  // accumulate, AtomicCasIdx/AtomicExchIdx address through a register,
  // SleepRand draws its backoff, BrEq/BrNe steer, AtomicAdd and
  // FenceDevice publish, and a split-phase AsyncLoad/AwaitLoad pair reads
  // back the published In[2].
  using Code = sim::BatchOp::Code;
  sim::ExecutionContext Ctx;
  Ctx.reset(titan(), 29);
  const sim::Addr In = Ctx.memory().alloc(4);
  const sim::Addr Locks = Ctx.memory().alloc(4);
  const sim::Addr Out = Ctx.memory().alloc(4);

  sim::BatchProgram BP;
  BP.GridDim = 1;
  BP.BlockDim = 2;
  BP.NumSlots = 5;
  // Lane 0 seeds In[0..2] = 2, 3, 4, publishes with a fence and an
  // atomic, and takes lock 2 by CAS.
  BP.Ops.push_back({Code::Jitter, 0, 0, 0, 4});
  BP.Ops.push_back({Code::Store, 0, 0, In + 0, 2});
  BP.Ops.push_back({Code::Store, 0, 0, In + 1, 3});
  BP.Ops.push_back({Code::Store, 0, 0, In + 2, 4});
  BP.Ops.push_back({Code::FenceDevice, 0, 0, 0, 0});
  BP.Ops.push_back({Code::AtomicAdd, 0, 0, In + 3, 1});
  BP.Ops.push_back({Code::MovImm, 0, 0, 0, 2});              // r0 = 2
  BP.Ops.push_back({Code::MovImm, 1, 0, 0, 0});              // compare 0
  BP.Ops.push_back({Code::AtomicCasIdx, 1, 0, Locks, 1});    // r1 = 0
  const uint32_t L1 = static_cast<uint32_t>(BP.Ops.size());
  // Lane 1 waits for the atomic flag, then accumulates
  // r2 = In[0] + In[2] + 3 * In[1] = 15 and releases lock 2 by exchange.
  BP.Ops.push_back({Code::Load, 2, 0, In + 3, 0});           // poll:
  BP.Ops.push_back({Code::BrNe, 2, 0, L1 + 4, 0});           // flag set?
  BP.Ops.push_back({Code::SleepRand, 0, 0, 1, 3});           // backoff
  BP.Ops.push_back({Code::Jump, 0, 0, L1, 0});
  BP.Ops.push_back({Code::MovImm, 2, 0, 0, 0});              // r2 = 0
  BP.Ops.push_back({Code::LoadAcc, 2, 0, In + 0, 0});        // r2 += 2
  BP.Ops.push_back({Code::MovImm, 3, 0, 0, 2});              // r3 = 2
  BP.Ops.push_back({Code::LoadAccIdx, 2, 3, In, 0});         // r2 += 4
  BP.Ops.push_back({Code::MovImm, 4, 0, 0, 3});              // r4 = 3
  BP.Ops.push_back({Code::LoadMulAcc, 2, 4, In + 1, 0});     // r2 += 9
  BP.Ops.push_back({Code::BrEq, 2, 0, L1 + 12, 15});         // r2 == 15
  BP.Ops.push_back({Code::Store, 0, 0, Out + 3, 1});         // skipped
  BP.Ops.push_back({Code::WbStore, 2, 0, Out + 0, 0});
  BP.Ops.push_back({Code::AtomicExchIdx, 0, 3, Locks, 9});   // Locks[2] = 9
  BP.Ops.push_back({Code::AsyncLoad, 4, 0, In + 2, 0});
  BP.Ops.push_back({Code::AwaitLoad, 4, 0, 0, 0});
  BP.Ops.push_back({Code::WbStore, 4, 0, Out + 1, 1});
  const uint32_t End = static_cast<uint32_t>(BP.Ops.size());
  BP.Lanes.push_back({0, L1});
  BP.Lanes.push_back({L1, End});

  const RawRun R = runRaw(BP, Ctx.memory().allocatedWords(), 29);
  EXPECT_EQ(R.Result.Status, sim::RunStatus::Completed);
  EXPECT_EQ(R.Regs[1], 0u);
  EXPECT_EQ(R.Memory[Locks + 2], 9u);
  EXPECT_EQ(R.Memory[Out + 0], 15u);
  EXPECT_EQ(R.Memory[Out + 1], 5u);
  EXPECT_EQ(R.Memory[Out + 3], 0u);
}

//===----------------------------------------------------------------------===//
// Provable timeouts (DESIGN.md Sec. 19): an untraced run stops once no lane
// can ever finish, reporting exactly what the full simulation reports.
//===----------------------------------------------------------------------===//

namespace {

using ProofCode = sim::BatchOp::Code;

constexpr uint64_t ProofBudget = 5 * sim::TimeoutBackstopInterval;

struct ProofRun {
  sim::RunResult Result;
  size_t Events = 0; ///< Trace events recorded (0 untraced).
};

/// One run of \p BP on a fresh context whose memory holds \p Words zeroed
/// words (address 0 is the flag every case spins on), traced or not.
ProofRun runProofCase(const sim::BatchProgram &BP, unsigned Words,
                      bool Traced) {
  sim::ExecutionContext Ctx;
  Ctx.requestTracing(Traced);
  Ctx.reset(titan(), 29);
  (void)Ctx.memory().alloc(Words);
  sim::SchedulerConfig Cfg;
  Cfg.MaxTicks = ProofBudget;
  std::vector<sim::Word> Regs(std::max(1u, BP.NumSlots), 0);
  ProofRun R;
  R.Result = sim::runBatchProgram(BP, titan(), Ctx.memory(), Ctx.rng(),
                                  Ctx.batchScratch(), Regs.data(), Cfg);
  R.Events = Ctx.trace().size();
  return R;
}

/// Appends "spin: r = ld(flag); if (r == 0) goto spin" as the next lane.
void spinLane(sim::BatchProgram &BP, uint16_t Slot) {
  const uint32_t Begin = static_cast<uint32_t>(BP.Ops.size());
  BP.Ops.push_back({ProofCode::Load, Slot, 0, 0, 0});
  BP.Ops.push_back({ProofCode::BrEq, Slot, 0, Begin, 0});
  BP.Lanes.push_back({Begin, static_cast<uint32_t>(BP.Ops.size())});
}

/// Appends "sleep(SleepTicks); st(flag, 1); spin on the flag".
void flagSetterLane(sim::BatchProgram &BP, uint16_t Slot,
                    uint64_t SleepTicks) {
  const uint32_t Begin = static_cast<uint32_t>(BP.Ops.size());
  BP.Ops.push_back(
      {ProofCode::Sleep, 0, 0, 0, static_cast<sim::Word>(SleepTicks)});
  BP.Ops.push_back({ProofCode::Store, 0, 0, 0, 1});
  BP.Ops.push_back({ProofCode::Load, Slot, 0, 0, 0});
  BP.Ops.push_back({ProofCode::BrEq, Slot, 0, Begin + 2, 0});
  BP.Lanes.push_back({Begin, static_cast<uint32_t>(BP.Ops.size())});
}

/// An empty one-block program of \p Lanes lanes, flagged as looping.
sim::BatchProgram loopingProgram(unsigned Lanes) {
  sim::BatchProgram BP;
  BP.GridDim = 1;
  BP.BlockDim = Lanes;
  BP.NumSlots = 2;
  BP.HasBackwardBranch = true;
  return BP;
}

/// Expects the run neither stopped early nor changed: the untraced run's
/// memory statistics equal the traced (never cut) run's.
void expectUncut(const sim::BatchProgram &BP, unsigned Words,
                 sim::RunStatus Status) {
  const ProofRun Plain = runProofCase(BP, Words, false);
  const ProofRun Traced = runProofCase(BP, Words, true);
  EXPECT_EQ(Plain.Result.Status, Status);
  EXPECT_EQ(Traced.Result.Status, Status);
  EXPECT_EQ(Plain.Result.Ticks, Traced.Result.Ticks);
  EXPECT_EQ(Plain.Result.Mem.Loads, Traced.Result.Mem.Loads);
  EXPECT_EQ(Plain.Result.Mem.Stores, Traced.Result.Mem.Stores);
  EXPECT_EQ(Plain.Result.Mem.Atomics, Traced.Result.Mem.Atomics);
}

} // namespace

TEST(ProvableTimeout, SpinOnUnwrittenFlagStopsEarly) {
  // Two lanes spin on a flag no op writes, storing nothing: the proof
  // holds at the first quiet checkpoint, and the run reports the full
  // simulation's Timeout at MaxTicks + 1 after a fraction of its loads
  // (one per lane per tick up to that checkpoint).
  sim::BatchProgram BP = loopingProgram(2);
  spinLane(BP, 0);
  spinLane(BP, 1);
  const ProofRun Plain = runProofCase(BP, 1, false);
  EXPECT_EQ(Plain.Result.Status, sim::RunStatus::Timeout);
  EXPECT_EQ(Plain.Result.Ticks, ProofBudget + 1);
  EXPECT_LT(Plain.Result.Mem.Loads, 2 * 2 * sim::TimeoutCheckInterval);
  EXPECT_LE(Plain.Result.Mem.Loads, 2 * sim::TimeoutCheckInterval);

  // Traced, the same run is never cut: every load of the full budget is
  // in the event stream.
  const ProofRun Traced = runProofCase(BP, 1, true);
  EXPECT_EQ(Traced.Result.Status, sim::RunStatus::Timeout);
  EXPECT_EQ(Traced.Result.Ticks, ProofBudget + 1);
  EXPECT_GE(Traced.Result.Mem.Loads, 2 * ProofBudget - 2);
  EXPECT_GE(Traced.Events, Traced.Result.Mem.Loads);
}

TEST(ProvableTimeout, FlagSetLaterByAnotherLaneCompletes) {
  // Lane 1 sleeps past the first backstop attempt, then stores the flag
  // and spins on it too. Its pending Store puts the flag in the may-write
  // set, so both spinners' exits are reachable and the run completes.
  sim::BatchProgram BP = loopingProgram(2);
  spinLane(BP, 0);
  flagSetterLane(BP, 1, 2 * sim::TimeoutBackstopInterval);
  expectUncut(BP, 1, sim::RunStatus::Completed);
}

TEST(ProvableTimeout, BufferedFlagStoreBlocksTheProof) {
  // Lane 1 stores the flag in the very tick of the first backstop attempt
  // (the store makes that tick's checkpoint skip). Global memory still
  // holds 0 and no op left to explore writes the flag, so only the
  // quiescence precondition keeps the proof from cutting a run that
  // completes.
  sim::BatchProgram BP = loopingProgram(2);
  spinLane(BP, 0);
  flagSetterLane(BP, 1, sim::TimeoutBackstopInterval - 1);
  expectUncut(BP, 1, sim::RunStatus::Completed);
}

TEST(ProvableTimeout, UnknownStoreAddressBlocksTheProof) {
  // The spin loop holds an indexed store through the result of an atomic:
  // never executed (the atomic always returns 0), but its address is
  // unknown to the proof, so the run goes to the full budget.
  sim::BatchProgram BP = loopingProgram(1);
  BP.Ops.push_back({ProofCode::Load, 0, 0, 0, 0});
  BP.Ops.push_back({ProofCode::AtomicAddReg, 1, 0, 1, 0});
  BP.Ops.push_back({ProofCode::BrEq, 1, 0, 4, 0});
  BP.Ops.push_back({ProofCode::StoreIdx, 0, 1, 2, 1});
  BP.Ops.push_back({ProofCode::BrEq, 0, 0, 0, 0});
  BP.Lanes.push_back({0, static_cast<uint32_t>(BP.Ops.size())});
  expectUncut(BP, 4, sim::RunStatus::Timeout);
}

TEST(ProvableTimeout, StepWindowIsUnknownToTheProof) {
  // The spin condition passes through a Step op. The proof does not look
  // into step functions: the whole window becomes unknown, so the exit
  // arm stays reachable and the run goes to the full budget.
  sim::BatchProgram BP = loopingProgram(1);
  BP.Steps = {[](sim::Word *W) { W[1] = W[0]; }};
  BP.Ops.push_back({ProofCode::Load, 0, 0, 0, 0});
  BP.Ops.push_back({ProofCode::Step, 0, 2, 0, 0});
  BP.Ops.push_back({ProofCode::BrEq, 1, 0, 0, 0});
  BP.Lanes.push_back({0, static_cast<uint32_t>(BP.Ops.size())});
  expectUncut(BP, 1, sim::RunStatus::Timeout);
}

TEST(ProvableTimeout, BarrierInSpinLoopBlocksTheProof) {
  // Both lanes spin through a block barrier: a barrier is never proven
  // unreachable, so the run goes to the full budget.
  sim::BatchProgram BP = loopingProgram(2);
  for (uint16_t Slot = 0; Slot != 2; ++Slot) {
    const uint32_t Begin = static_cast<uint32_t>(BP.Ops.size());
    BP.Ops.push_back({ProofCode::Load, Slot, 0, 0, 0});
    BP.Ops.push_back({ProofCode::Barrier, 0, 0, 0, 0});
    BP.Ops.push_back({ProofCode::BrEq, Slot, 0, Begin, 0});
    BP.Lanes.push_back({Begin, static_cast<uint32_t>(BP.Ops.size())});
  }
  expectUncut(BP, 1, sim::RunStatus::Timeout);
}

TEST(ProvableTimeout, LastLaneFinishingOnAnAttemptTickCompletes) {
  // The only lane completes in the very tick of the first (quiet)
  // checkpoint: with no live lane left the proof must not be tried (it
  // would hold vacuously and turn a completed run into a timeout).
  sim::BatchProgram BP = loopingProgram(1);
  BP.Ops.push_back({ProofCode::MovImm, 0, 0, 0, 0});
  BP.Ops.push_back({ProofCode::AddImm, 0, 0, 0, 1});
  BP.Ops.push_back({ProofCode::BrLt, 0, 0, 1, 3});
  BP.Ops.push_back({ProofCode::Sleep, 0, 0, 0,
                    static_cast<sim::Word>(sim::TimeoutCheckInterval - 1)});
  BP.Lanes.push_back({0, static_cast<uint32_t>(BP.Ops.size())});
  const ProofRun Plain = runProofCase(BP, 1, false);
  EXPECT_EQ(Plain.Result.Status, sim::RunStatus::Completed);
  EXPECT_EQ(Plain.Result.Ticks, sim::TimeoutCheckInterval);
}

TEST(ProvableTimeout, StoringLivelockIsCutByTheBackstop) {
  // One lane loops forever: store word 1, sleep, poll the flag (word 0,
  // never written). A store every 201 ticks leaves no quiet checkpoint
  // window, so only the unconditional backstop tries the proof; it holds
  // there (the store's address is known and is not the flag) and the
  // run is cut at the first backstop, after 21 of its stores.
  constexpr uint64_t Period = 201;
  sim::BatchProgram BP = loopingProgram(1);
  BP.Ops.push_back({ProofCode::Store, 0, 0, 1, 1});
  BP.Ops.push_back(
      {ProofCode::Sleep, 0, 0, 0, static_cast<sim::Word>(Period - 2)});
  BP.Ops.push_back({ProofCode::Load, 0, 0, 0, 0});
  BP.Ops.push_back({ProofCode::BrEq, 0, 0, 0, 0});
  BP.Lanes.push_back({0, static_cast<uint32_t>(BP.Ops.size())});
  const ProofRun Plain = runProofCase(BP, 2, false);
  EXPECT_EQ(Plain.Result.Status, sim::RunStatus::Timeout);
  EXPECT_EQ(Plain.Result.Ticks, ProofBudget + 1);
  EXPECT_EQ(Plain.Result.Mem.Stores,
            (sim::TimeoutBackstopInterval - 1) / Period + 1);
  const ProofRun Traced = runProofCase(BP, 2, true);
  EXPECT_EQ(Traced.Result.Ticks, ProofBudget + 1);
  EXPECT_EQ(Traced.Result.Mem.Stores, (ProofBudget - 1) / Period + 1);
}

TEST(ProvableTimeout, RunCompletingAfterQuietWindowsIsNeverCut) {
  // Lane 1 sleeps through five quiet checkpoints before it stores the
  // flag lane 0 spins on. Every checkpoint tries the proof, which fails
  // because the pending Store reaches the flag, so the run completes with
  // the same work as the traced (never cut) run.
  sim::BatchProgram BP = loopingProgram(2);
  spinLane(BP, 0);
  flagSetterLane(BP, 1, 5 * sim::TimeoutCheckInterval + 17);
  expectUncut(BP, 1, sim::RunStatus::Completed);
}
