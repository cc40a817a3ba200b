//===- sim/BatchExec.h - Batched flat op-stream executor --------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one program form and its compiled execution engine. Litmus and
/// fuzz programs and all ten application kernels are \ref BatchProgram
/// op streams (DESIGN.md Secs. 17, 19); two engines run them.
///
/// The reference engine (--engine=scalar, sim/Scheduler.h) steps every
/// lane's ops with a program counter, tick by tick over every SM of the
/// chip, with launch-time residency construction per run. Every tuning
/// sweep, campaign cell and fuzz round executes the same small program
/// thousands of times at different seeds, and most of that per-run work
/// is identical across runs: most SMs are empty for a 2-4 block litmus
/// grid, and the residency layout repeats.
///
/// The compiled engine, \ref runBatchProgram, is a tight table-walking
/// replica of the reference engine's run loop that touches only resident
/// SMs and fast-forwards idle tick spans. A BatchProgram is compiled once
/// per (program, distance): addresses, register slots and writeback
/// targets pre-resolved. Per-run state lives in structure-of-arrays lane
/// state owned by the ExecutionContext's \ref BatchScratch, so resets stay
/// O(touched).
///
/// Determinism contract (absolute): runBatchProgram consumes exactly the
/// same RNG draws in exactly the same order as the reference engine and
/// produces bit-identical memory states and trace event streams, under
/// both scheduling modes. The idle fast-forward is draw-free by
/// construction: a tick in which no lane is eligible, no store is buffered
/// and no async load is pending draws nothing in the reference engine
/// either — it only advances the clock and the SM rotors, which the
/// fast-forward replays in closed form. The engine emits every
/// scheduler-level trace event itself (the barrier release); all other
/// events come from the shared MemorySystem. EngineIdentityTests pins the
/// equivalence event for event against the reference engine, for litmus,
/// fuzz and application programs alike. The two engines share only
/// \ref runFreeOp.
///
/// Provable timeouts: an untraced run of a program with a backward branch
/// stops as soon as a check proves that no lane can ever finish, and
/// reports what the full simulation would (RunStatus::Timeout, Ticks =
/// MaxTicks + 1). Only its MemStats totals and the RNG's final draw
/// position differ from the full run (DESIGN.md Sec. 19).
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_SIM_BATCHEXEC_H
#define GPUWMM_SIM_BATCHEXEC_H

#include "sim/Types.h"
#include "support/Check.h"

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace gpuwmm {

class Rng;

namespace sim {

class ExecutionContext;
class MemorySystem;
struct ChipProfile;

/// One pre-resolved instruction of a batched program, walked linearly per
/// lane. Op codes split into two groups:
///
///  * Suspending ops (everything before MovImm) are the simulated
///    instructions: a resume executes exactly one of them and sleeps.
///  * Free ops (MovImm and later) are the computation between two
///    instructions: register moves, arithmetic and control flow. They
///    execute — any number of them — at the start of the resume that then
///    issues the next suspending op (or completes the lane).
struct BatchOp {
  enum class Code : uint8_t {
    // --- Suspending ops (one resume each). ---
    Jitter,      ///< sleep(1 + rng.below(Imm)); start-phase jitter.
    Store,       ///< Mem.store(A, Imm); sleep 1.
    Load,        ///< Regs[Slot] = Mem.load(A); sleep 1.
    AsyncLoad,   ///< Regs[Slot] = ticket of Mem.issueAsyncLoad(A); sleep 1.
    AwaitLoad,   ///< Complete the async load ticketed in Regs[Slot].
    AtomicAdd,   ///< Mem.atomicAdd(A, Imm); sleep AtomicLatency.
    FenceDevice, ///< sleep(Mem.fenceDevice()).
    WbStore,     ///< Mem.store(A, Regs[Slot] + Imm); sleep 1 (writeback /
                 ///< load log; Imm is the log bias).
    Sleep,       ///< sleep(max(1, Imm)): yield(Imm), a disabled built-in
                 ///< fence (Imm = 1), or a policy fence's base-latency
                 ///< stage (Imm = FenceBaseLatency).
    SleepRand,   ///< sleep(max(1, A + rng.below(Imm))): backoff
                 ///< yield(A + rand(Imm)); draw and sleep share one
                 ///< resume.
    Barrier,     ///< __syncthreads(): park until every live lane of the
                 ///< block arrives; the release block-fences each one.
    LoadAcc,     ///< Regs[Slot] += Mem.load(A); sleep 1.
    LoadIdx,     ///< Regs[Slot] = Mem.load(A + Regs[Slot2]); sleep 1.
    LoadAccIdx,  ///< Regs[Slot] += Mem.load(A + Regs[Slot2]); sleep 1.
    LoadMulAcc,  ///< Regs[Slot] += Regs[Slot2] * Mem.load(A); sleep 1.
    StoreIdx,    ///< Mem.store(A + Regs[Slot2], Imm); sleep 1.
    AtomicAddReg, ///< Regs[Slot] = Mem.atomicAdd(A, Imm); sleep
                  ///< AtomicLatency (old value, e.g. a ticket draw).
    AtomicCas,    ///< Regs[Slot] = Mem.atomicCAS(A, Regs[Slot], Imm):
                  ///< compare with the register, swap in the immediate,
                  ///< keep the old word; sleep AtomicLatency.
    AtomicCasIdx, ///< As AtomicCas at address A + Regs[Slot2].
    AtomicExch,   ///< Mem.atomicExch(A, Imm); sleep AtomicLatency.
    AtomicExchIdx, ///< Mem.atomicExch(A + Regs[Slot2], Imm); sleep
                   ///< AtomicLatency.
    AtomicAddIdx,  ///< Mem.atomicAdd(A + Regs[Slot2], Imm); sleep
                   ///< AtomicLatency.
    WbStoreIdx,    ///< Mem.store(A + Regs[Slot2], Regs[Slot] + Imm); sleep 1.
    // --- Free ops (no suspension; run before the resume's suspending
    // --- op). Everything from MovImm on must stay free: the executor
    // --- tests `C >= Code::MovImm`.
    MovImm, ///< Regs[Slot] = Imm.
    AddImm, ///< Regs[Slot] = Regs[Slot2] + Imm (unsigned wraparound;
            ///< Imm = 0xffffffff decrements).
    MulImm, ///< Regs[Slot] = Regs[Slot2] * Imm (unsigned wraparound).
    AndImm, ///< Regs[Slot] = Regs[Slot2] & Imm.
    ModImm, ///< Regs[Slot] = Regs[Slot2] % Imm (Imm != 0).
    AddRR,  ///< Regs[Slot] = Regs[Slot2] + Regs[A] (A names a third slot).
    Step,   ///< Steps[Imm](&Regs[Slot]): a pure step function of the
            ///< program's table reads and writes the register window
            ///< [Slot, Slot + Slot2) and nothing else.
    // --- Control flow: Jump through BrLtRR, kept last and contiguous.
    Jump,   ///< PC = A.
    BrEq,   ///< if (Regs[Slot] == Imm) PC = A; else fall through.
    BrNe,   ///< if (Regs[Slot] != Imm) PC = A; else fall through.
    BrLt,   ///< if (Regs[Slot] < Imm) PC = A; else fall through.
    BrLtRR  ///< if (Regs[Slot] < Regs[Slot2]) PC = A; else fall through.
  };
  Code C = Code::Jitter;
  uint16_t Slot = 0;  ///< Destination/source register slot.
  uint16_t Slot2 = 0; ///< Second register slot (indexed ops, arithmetic).
  Addr A = 0;         ///< Pre-resolved absolute address / branch target.
  Word Imm = 0;       ///< Immediate: store value / bound / operand.
};

/// A step function (BatchOp::Code::Step): pure computation over a window
/// of one lane's registers that would take many free ops to spell out
/// (signed 64-bit arithmetic, a register-indexed stack). It may touch only
/// its window.
using StepFn = void (*)(Word *Window);

/// Executes free op \p F at \p PC on \p Regs, with \p Steps the
/// program's step table, and returns the next PC. Both engines run free
/// ops through this one definition; it is inlined into runBatchProgram's
/// resume loop, the compiled engine's hot path.
[[gnu::always_inline]] inline uint32_t runFreeOp(const BatchOp &F, Word *Regs,
                                                  const StepFn *Steps,
                                                  uint32_t PC) {
  switch (F.C) {
  case BatchOp::Code::MovImm:
    Regs[F.Slot] = F.Imm;
    return PC + 1;
  case BatchOp::Code::AddImm:
    Regs[F.Slot] = Regs[F.Slot2] + F.Imm;
    return PC + 1;
  case BatchOp::Code::MulImm:
    Regs[F.Slot] = Regs[F.Slot2] * F.Imm;
    return PC + 1;
  case BatchOp::Code::ModImm:
    Regs[F.Slot] = Regs[F.Slot2] % F.Imm;
    return PC + 1;
  case BatchOp::Code::AndImm:
    Regs[F.Slot] = Regs[F.Slot2] & F.Imm;
    return PC + 1;
  case BatchOp::Code::AddRR:
    Regs[F.Slot] = Regs[F.Slot2] + Regs[F.A];
    return PC + 1;
  case BatchOp::Code::Step:
    Steps[F.Imm](Regs + F.Slot);
    return PC + 1;
  case BatchOp::Code::Jump:
    return F.A;
  case BatchOp::Code::BrEq:
    return Regs[F.Slot] == F.Imm ? F.A : PC + 1;
  case BatchOp::Code::BrNe:
    return Regs[F.Slot] != F.Imm ? F.A : PC + 1;
  case BatchOp::Code::BrLt:
    return Regs[F.Slot] < F.Imm ? F.A : PC + 1;
  case BatchOp::Code::BrLtRR:
    return Regs[F.Slot] < Regs[F.Slot2] ? F.A : PC + 1;
  default:
    GPUWMM_CHECK(false, "suspending op in free-op dispatch");
    return PC;
  }
}

/// The op range [Begin, End) of one launched lane; Begin == End is an idle
/// lane (a block's filler thread), which completes at its first resume.
struct BatchLane {
  uint32_t Begin = 0;
  uint32_t End = 0;
};

/// A program compiled to the batched executor: one contiguous op stream
/// plus a per-lane (Tid = block * BlockDim + lane) range table. Immutable
/// once built; reused across every run of the program.
struct BatchProgram {
  std::vector<BatchOp> Ops;
  std::vector<BatchLane> Lanes; ///< Indexed by Tid; size GridDim*BlockDim.
  std::vector<StepFn> Steps;    ///< The Step ops' functions, by Imm.
  unsigned GridDim = 0;
  unsigned BlockDim = 0;
  unsigned NumSlots = 0; ///< Register slots one run needs.
  /// Some branch or jump targets an earlier op, so a lane may loop
  /// forever. Set by the builder; only such programs try the provable
  /// timeout (runBatchProgram), so straight-line litmus and fuzz
  /// programs never pay for it. A false flag on a looping program only
  /// disables the early stop.
  bool HasBackwardBranch = false;
};

/// runBatchProgram's provable-timeout schedule (DESIGN.md Sec. 19):
/// constants, not options. Every TimeoutCheckInterval ticks a checkpoint
/// tries the proof if no plain store was issued since the previous
/// checkpoint (a livelock spins on loads and atomics); every
/// TimeoutBackstopInterval ticks the proof is tried unconditionally, so a
/// livelock that keeps storing is still cut.
inline constexpr uint64_t TimeoutCheckInterval = 256;
inline constexpr uint64_t TimeoutBackstopInterval = 4096;

/// Recyclable batched-executor state, owned by an ExecutionContext
/// alongside the scheduler scratch. Lane state is structure-of-arrays and
/// sized O(lanes); the register vector keeps its capacity, so per-run
/// reset is a fill, not an allocation. Residency (warp placement per SM)
/// is cached across runs of the same geometry under deterministic
/// scheduling, where launch draws nothing and the layout is a pure
/// function of (grid, block, SMs).
struct BatchScratch {
  struct Warp {
    unsigned FirstTid = 0;
    unsigned NumThreads = 0;
    unsigned Block = 0;   ///< Owning block (warps never straddle blocks).
    unsigned LiveIdx = 0; ///< This warp's WarpLive list.
  };

  // Per-lane execution state (SoA; capacity reused across runs).
  std::vector<uint8_t> State;
  std::vector<uint64_t> WakeTick;
  std::vector<uint32_t> PC;
  std::vector<unsigned> TicketWaiters;
  /// Per-block barrier bookkeeping, mirroring the reference engine's
  /// BlockState: lanes still live in the block and lanes currently parked
  /// at its barrier. A lane completing while its block has parked lanes
  /// raises barrier divergence, as the reference engine does.
  std::vector<unsigned> BlockLive;
  std::vector<unsigned> BlockAtBarrier;
  /// Per-warp live-lane lists (Tids in lane order): completed lanes drop
  /// out, so steady-state ticks scan only the program's real threads, not
  /// a block's idle filler lanes. Removal preserves order, keeping the
  /// resume sequence identical to the reference engine's full-warp walk
  /// (done lanes fail its eligibility test and resume nothing).
  std::vector<std::vector<uint32_t>> WarpLive;

  // Residency: warps resident per SM, the round-robin rotors, and the
  // non-empty-SM index list the hot loop walks.
  std::vector<std::vector<Warp>> SMWarps;
  std::vector<unsigned> SMRotor;
  std::vector<unsigned> ActiveSMs;
  std::vector<unsigned> BlockToSM;
  /// Cache key for the deterministic residency build (invalid under
  /// randomised scheduling, which redraws placement per run).
  unsigned CachedGrid = ~0u, CachedBlock = ~0u, CachedSMs = ~0u;

  /// One run's registers (BatchProgram::NumSlots words), filled by the
  /// caller before each run.
  std::vector<Word> Regs;

  /// The provable-timeout proof's buffers, recycled so that an attempt
  /// allocates nothing once warm.
  struct ProofBuffers {
    /// One register in the proof: a concrete value, or unknown.
    struct AbsReg {
      Word V = 0;
      bool Known = false;
    };
    std::vector<Addr> Writes;    ///< The may-write set (sorted).
    std::vector<Addr> NewWrites; ///< Writes found by the current round.
    /// Slot -> index into the lane's Slots; all NoSlot between lanes.
    std::vector<uint32_t> SlotIdx;
    std::vector<uint32_t> Slots; ///< The current lane's tracked slots.
    std::vector<AbsReg> At;      ///< Joined state per op (one per slot).
    std::vector<uint8_t> Seen;   ///< Op reached at all.
    std::vector<AbsReg> Cur;     ///< The state being stepped.
    std::vector<uint32_t> Work;  ///< Ops whose state changed.
  };
  ProofBuffers Proof;

  /// Drops the deterministic residency cache (tests / chip changes).
  void invalidateResidency() { CachedGrid = CachedBlock = CachedSMs = ~0u; }
};

/// The process-wide engine selection (--engine).
///
///  * Auto (the default): every program (litmus, fuzz and application
///    plans) runs on the compiled engine, traced, sink-attached and
///    sequential runs included.
///  * Scalar: run the same programs on the reference engine, the
///    Scheduler (A/B debugging, bisection of compiled-vs-reference
///    divergence).
///
/// Engine choice never affects results, only throughput: both engines are
/// draw-for-draw identical per run.
enum class EngineMode : uint8_t { Auto, Scalar };

/// The process-wide engine mode: the one last installed by
/// \ref setEngineMode (the CLI's --engine), else Auto.
EngineMode engineMode();

/// Installs the CLI-selected engine mode.
void setEngineMode(EngineMode M);

/// "auto" / "scalar".
const char *engineModeName(EngineMode M);

/// Parses an engineModeName; returns nullopt for anything else.
std::optional<EngineMode> parseEngineMode(std::string_view Name);

/// Executes one run of \p BP to completion on \p Mem, drawing from \p R —
/// a draw-for-draw replica of Scheduler::launch + Scheduler::run, trace
/// events included. Without a trace sink, a run of a program with
/// HasBackwardBranch set ends early once its timeout is provable: at
/// each attempt of the schedule above, when memory is quiescent
/// and no lane waits at a barrier or on a ticket, it explores each live
/// lane's reachable ops and stops if none can complete, reach a barrier
/// or an async load, or write an unknown address. The result is then
/// Timeout at MaxTicks + 1, as the full run's; only Mem's statistics and
/// \p R's position reflect the skipped ticks. \p Regs is the run's
/// register vector (NumSlots words). The caller owns per-run setup exactly
/// as with the reference engine: context reset, allocations, initial-value
/// writes and the congestion source all happen before the call.
RunResult runBatchProgram(const BatchProgram &BP, const ChipProfile &Chip,
                          MemorySystem &Mem, Rng &R, BatchScratch &S,
                          Word *Regs, const SchedulerConfig &Cfg);

/// Executes one run of a compiled program (litmus, fuzz and application
/// lowerings) on \p Ctx's memory system and RNG: runBatchProgram by
/// default; under --engine=scalar, a Scheduler launch of \p BP on the
/// context's scheduler scratch. Per-run setup is the caller's, as for
/// runBatchProgram.
RunResult runProgram(const BatchProgram &BP, ExecutionContext &Ctx,
                     const ChipProfile &Chip, Word *Regs,
                     const SchedulerConfig &Cfg);

} // namespace sim
} // namespace gpuwmm

#endif // GPUWMM_SIM_BATCHEXEC_H
