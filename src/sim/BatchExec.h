//===- sim/BatchExec.h - Batched flat op-stream executor --------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiled execution engine behind every lowerable program: litmus
/// and fuzz programs and the regular application kernels (DESIGN.md
/// Secs. 17, 19).
///
/// Every tuning sweep, campaign cell and fuzz round executes the same small
/// program thousands of times at different seeds. The coroutine-based
/// scheduler pays per run for work that is identical across those runs:
/// coroutine frames, kernel std::function dispatch, launch-time residency
/// construction, and a per-tick walk over every SM of the chip (most of
/// them empty for a 2-4 block litmus grid).
///
/// This engine splits that cost: a \ref BatchProgram is a flat, branch-light
/// op stream compiled once per (program, distance) — addresses, register
/// slots and writeback targets pre-resolved — and \ref runBatchProgram is a
/// tight table-walking replica of Scheduler::run that touches only resident
/// SMs and fast-forwards idle tick spans. Per-run state lives in
/// structure-of-arrays lane state owned by the ExecutionContext's
/// \ref BatchScratch, so resets stay O(touched).
///
/// Determinism contract (absolute): for the op shapes a BatchProgram can
/// express (start-phase jitter, loads, stores, atomics, device fences,
/// split-phase load pairs, register writebacks, block barriers, structured
/// loops/branches over registers, indexed addressing and pre-compiled
/// fence-policy sequences), runBatchProgram consumes exactly the same RNG
/// draws in exactly the same order as the coroutine scheduler and produces
/// bit-identical memory states and trace event streams, under both
/// scheduling modes. The idle fast-forward is draw-free by construction: a
/// tick in which no lane is eligible, no store is buffered and no async
/// load is pending draws nothing in the scalar engine either — it only
/// advances the clock and the SM rotors, which the fast-forward replays in
/// closed form. The engine emits every scheduler-level trace event itself (the
/// barrier release); all other events come from the shared MemorySystem.
/// EngineIdentityTests pins the equivalence event for event against the
/// coroutine engine (--engine=scalar): for litmus and fuzz programs that is
/// \ref runProgram's interpretation of the same op stream on the
/// scheduler, for applications their hand-written coroutine bodies.
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
///  * Suspending ops (everything before MovImm) are the batched analogue
///    of one co_await: a resume executes exactly one of them and sleeps.
///  * Free ops (MovImm and later) are the batched analogue of the free
///    computation between two co_awaits: register moves, arithmetic and
///    control flow. They execute — any number of them — at the start of
///    the resume that then issues the next suspending op (or completes
///    the lane), exactly where the coroutine body evaluates them.
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
                 ///< resume, as the coroutine's rand-then-yield does.
    Barrier,     ///< Block barrier: replicates opBarrier/releaseBarrier.
    LoadAcc,     ///< Regs[Slot] += Mem.load(A); sleep 1.
    LoadIdx,     ///< Regs[Slot] = Mem.load(A + Regs[Slot2]); sleep 1.
    LoadAccIdx,  ///< Regs[Slot] += Mem.load(A + Regs[Slot2]); sleep 1.
    LoadMulAcc,  ///< Regs[Slot] += Regs[Slot2] * Mem.load(A); sleep 1.
    StoreIdx,    ///< Mem.store(A + Regs[Slot2], Imm); sleep 1.
    AtomicAddReg, ///< Regs[Slot] = Mem.atomicAdd(A, Imm); sleep
                  ///< AtomicLatency (old value, e.g. a ticket draw).
    AtomicCas,    ///< Regs[Slot] = Mem.atomicCAS(A, Imm & 0xffff,
                  ///< Imm >> 16); sleep AtomicLatency.
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

/// Mirrors the SchedulerConfig fields the batched shapes use.
struct BatchRunConfig {
  bool RandomiseThreads = false; ///< Paper Sec. 3.5 scheduling noise.
  unsigned IssueWidthPerSM = 2;
  uint64_t MaxTicks = 400000;
};

/// Ticks between two attempts at runBatchProgram's provable-timeout
/// check: a constant, not an option.
inline constexpr uint64_t TimeoutProofInterval = 4096;

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
  /// Per-block barrier bookkeeping, mirroring the scalar BarrierState:
  /// lanes still live in the block and lanes currently parked at its
  /// barrier. A lane completing while its block has parked lanes raises
  /// barrier divergence, as the coroutine scheduler does.
  std::vector<unsigned> BlockLive;
  std::vector<unsigned> BlockAtBarrier;
  /// Per-warp live-lane lists (Tids in lane order): completed lanes drop
  /// out, so steady-state ticks scan only the program's real threads, not
  /// a block's idle filler lanes. Removal preserves order, keeping the
  /// resume sequence identical to the scalar engine's full-warp walk
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

  /// Drops the deterministic residency cache (tests / chip changes).
  void invalidateResidency() { CachedGrid = CachedBlock = CachedSMs = ~0u; }
};

/// The process-wide engine selection (--engine).
///
///  * Auto (the default): every program that lowers (litmus/fuzz
///    programs, lowerable app kernels) runs on the compiled engine, traced,
///    sink-attached and sequential runs included; only the unlowerable
///    apps take the coroutine engine.
///  * Scalar: force the coroutine engine everywhere (A/B debugging,
///    bisection of batched-vs-scalar divergence).
///  * Batched: as Auto, but consumers that cannot batch a request the
///    user explicitly made (an app kernel with no lowering) must fail
///    loudly instead of silently falling back — enforced at the CLI.
///
/// Engine choice never affects results, only throughput: both engines are
/// draw-for-draw identical per run.
enum class EngineMode : uint8_t { Auto, Scalar, Batched };

/// The process-wide engine mode: the one last installed by
/// \ref setEngineMode (the CLI's --engine), else Auto.
EngineMode engineMode();

/// Installs the CLI-selected engine mode.
void setEngineMode(EngineMode M);

/// "auto" / "scalar" / "batched".
const char *engineModeName(EngineMode M);

/// Parses an engineModeName; returns nullopt for anything else.
std::optional<EngineMode> parseEngineMode(std::string_view Name);

/// Executes one run of \p BP to completion on \p Mem, drawing from \p R —
/// a draw-for-draw replica of Scheduler::launch + Scheduler::run for the
/// batched op shapes, trace events included. Without a trace sink, a run
/// of a program with HasBackwardBranch set ends early once its timeout is
/// provable: every TimeoutProofInterval ticks, when memory is quiescent
/// and no lane waits at a barrier or on a ticket, it explores each live
/// lane's reachable ops and stops if none can complete, reach a barrier
/// or an async load, or write an unknown address. The result is then
/// Timeout at MaxTicks + 1, as the full run's; only Mem's statistics and
/// \p R's position reflect the skipped ticks. \p Regs is the run's
/// register vector (NumSlots words). The caller owns per-run setup exactly
/// as with the scalar engine: context reset, allocations, initial-value
/// writes and the congestion source all happen before the call.
RunResult runBatchProgram(const BatchProgram &BP, const ChipProfile &Chip,
                          MemorySystem &Mem, Rng &R, BatchScratch &S,
                          Word *Regs, const BatchRunConfig &Cfg);

/// Executes one run of a compiled straight-line program (litmus and fuzz
/// lowerings) on \p Ctx's memory system and RNG: runBatchProgram by
/// default; under --engine=scalar, the reference interpretation — a
/// Scheduler launch whose kernel coroutine walks each lane's op range
/// through ThreadContext, one co_await per suspending op. Only the op
/// codes those lowerings emit (Jitter, Store, Load, AsyncLoad, AwaitLoad,
/// AtomicAdd, FenceDevice, WbStore) are interpretable; any other fails a
/// GPUWMM_CHECK. Per-run setup is the caller's, as for runBatchProgram.
RunResult runProgram(const BatchProgram &BP, ExecutionContext &Ctx,
                     const ChipProfile &Chip, Word *Regs,
                     const BatchRunConfig &Cfg);

} // namespace sim
} // namespace gpuwmm

#endif // GPUWMM_SIM_BATCHEXEC_H
