//===- fuzz/Shrink.cpp - Delta-debugging reduction of weak cases -------------===//

#include "fuzz/Shrink.h"

#include "litmus/Format.h"
#include "litmus/Litmus.h"
#include "model/ConsistencyChecker.h"
#include "model/Enumerate.h"
#include "model/StreamingChecker.h"
#include "support/Rng.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <vector>

using namespace gpuwmm;
using namespace gpuwmm::fuzz;
using litmus::CondAtom;
using litmus::ProgOp;
using litmus::Program;

namespace {

unsigned countOps(const Program &P) {
  unsigned N = 0;
  for (const litmus::ProgThread &T : P.Threads)
    N += static_cast<unsigned>(T.Ops.size());
  return N;
}

/// One removable unit: a whole thread (every op, plus the registers its
/// loads define), or op positions within one thread that must go together
/// — a single op, or a split-phase issue plus its await.
struct Unit {
  enum class Kind { Ops, Thread };
  Kind K = Kind::Ops;
  unsigned Thread = 0;
  std::vector<size_t> Ops; ///< Ascending positions (Kind::Ops only).
};

/// Registers pinned by the forbidden clause: their loads define the
/// outcome being reproduced and must survive.
std::vector<bool> pinnedRegisters(const Program &P) {
  std::vector<bool> Pinned(P.Registers.size(), false);
  for (const CondAtom &A : P.Forbidden)
    if (A.IsReg)
      Pinned[A.Index] = true;
  return Pinned;
}

/// Renumbers block placements by first appearance in thread order (block
/// of thread 0 becomes 0, the next distinct placement 1, ...). Keeps a
/// thread removal from leaving holes in the launch grid and is the block
/// normalisation step of the canonical form.
void renumberBlocks(Program &P) {
  std::vector<int> Map;
  unsigned Next = 0;
  for (litmus::ProgThread &T : P.Threads) {
    if (T.Block >= Map.size())
      Map.resize(T.Block + 1, -1);
    if (Map[T.Block] < 0)
      Map[T.Block] = static_cast<int>(Next++);
    T.Block = static_cast<unsigned>(Map[T.Block]);
  }
}

/// Deletes register \p R: erases its name and shifts every higher
/// register index (ops and forbidden atoms) down by one.
void eraseRegister(Program &P, unsigned R) {
  P.Registers.erase(P.Registers.begin() + R);
  for (litmus::ProgThread &T : P.Threads)
    for (ProgOp &O : T.Ops) {
      const bool HasReg = O.K == ProgOp::Kind::Load ||
                          O.K == ProgOp::Kind::AsyncLoad ||
                          O.K == ProgOp::Kind::AwaitLoad;
      if (HasReg && O.Reg > R)
        --O.Reg;
    }
  for (CondAtom &A : P.Forbidden)
    if (A.IsReg && A.Index > R)
      --A.Index;
}

std::vector<Unit> removableUnits(const Program &P) {
  const std::vector<bool> Pinned = pinnedRegisters(P);
  std::vector<Unit> Units;
  // Whole threads first (the most aggressive reduction): removable when
  // no register the thread defines is pinned by the forbidden clause and
  // at least one other thread remains.
  if (P.Threads.size() > 1)
    for (unsigned TI = 0; TI != P.Threads.size(); ++TI) {
      bool Removable = true;
      for (const ProgOp &O : P.Threads[TI].Ops)
        if ((O.K == ProgOp::Kind::Load || O.K == ProgOp::Kind::AsyncLoad) &&
            Pinned[O.Reg])
          Removable = false;
      if (Removable) {
        Unit U;
        U.K = Unit::Kind::Thread;
        U.Thread = TI;
        Units.push_back(std::move(U));
      }
    }
  for (unsigned TI = 0; TI != P.Threads.size(); ++TI) {
    const auto &Ops = P.Threads[TI].Ops;
    for (size_t I = 0; I != Ops.size(); ++I) {
      const ProgOp &O = Ops[I];
      switch (O.K) {
      case ProgOp::Kind::Store:
      case ProgOp::Kind::AtomicAdd:
      case ProgOp::Kind::Fence:
      case ProgOp::Kind::OptFence:
        Units.push_back({Unit::Kind::Ops, TI, {I}});
        break;
      case ProgOp::Kind::Load:
        if (!Pinned[O.Reg])
          Units.push_back({Unit::Kind::Ops, TI, {I}});
        break;
      case ProgOp::Kind::AsyncLoad: {
        if (Pinned[O.Reg])
          break;
        // The matching await (validate() guarantees exactly one, later).
        for (size_t J = I + 1; J != Ops.size(); ++J)
          if (Ops[J].K == ProgOp::Kind::AwaitLoad && Ops[J].Reg == O.Reg) {
            Units.push_back({Unit::Kind::Ops, TI, {I, J}});
            break;
          }
        break;
      }
      case ProgOp::Kind::AwaitLoad:
        break; // Removed with its issue.
      }
    }
  }
  return Units;
}

/// \p P minus \p U, with the registers of removed loads deleted and every
/// higher register index (ops and forbidden atoms) shifted down.
Program removeUnit(const Program &P, const Unit &U) {
  Program Q = P;
  if (U.K == Unit::Kind::Thread) {
    // Collect the registers the thread defines (each loaded exactly once,
    // so they are unique), erase the thread, then the registers
    // descending so lower indices stay valid.
    std::vector<unsigned> Regs;
    for (const ProgOp &O : Q.Threads[U.Thread].Ops)
      if (O.K == ProgOp::Kind::Load || O.K == ProgOp::Kind::AsyncLoad)
        Regs.push_back(O.Reg);
    std::sort(Regs.rbegin(), Regs.rend());
    Q.Threads.erase(Q.Threads.begin() + U.Thread);
    for (unsigned R : Regs)
      eraseRegister(Q, R);
    renumberBlocks(Q);
    return Q;
  }
  int RemovedReg = -1;
  for (auto It = U.Ops.rbegin(); It != U.Ops.rend(); ++It) {
    const ProgOp &O = Q.Threads[U.Thread].Ops[*It];
    if (O.K == ProgOp::Kind::Load || O.K == ProgOp::Kind::AsyncLoad)
      RemovedReg = static_cast<int>(O.Reg);
    Q.Threads[U.Thread].Ops.erase(Q.Threads[U.Thread].Ops.begin() +
                                  static_cast<ptrdiff_t>(*It));
  }
  if (RemovedReg >= 0)
    eraseRegister(Q, static_cast<unsigned>(RemovedReg));
  return Q;
}

/// Shared oracle state of one reduction: both checkers, recycled across
/// candidates, plus the run and cross-check accounting.
struct ShrinkOracle {
  model::StreamingChecker Streaming;
  model::ConsistencyChecker PostHoc;
  uint64_t LitmusRuns = 0;
  uint64_t CrossChecks = 0;
  std::string Error; ///< First disagreement (sticky).
};

enum class Repro { No, Yes, Disagree };

/// Whether \p P provokes its forbidden outcome as a checker-confirmed weak
/// behaviour within the attempt budget. Every consulted run is traced and
/// judged by BOTH the streaming and the post-hoc checker; a verdict
/// disagreement is a hard failure (Repro::Disagree), not a data point.
/// \p AttemptIdx seeds the attempt (one stream per candidate, so the
/// search is deterministic); \p PreferRegion is tried first (the stress
/// location that last worked).
Repro reproducesWeak(const Program &P, const sim::ChipProfile &Chip,
                     const ShrinkOptions &Opts, uint64_t AttemptIdx,
                     unsigned &PreferRegion, ShrinkOracle &Oracle) {
  litmus::LitmusRunner Runner(Chip, Rng::deriveStream(Opts.Seed, AttemptIdx));
  litmus::LitmusRunner::RunOpts RunOpts;
  // Trace (rather than sink-stream) so the same recorded events feed both
  // checkers. Tracing and sinking are equally pure observation on either
  // engine, so verdicts and run outcomes match the historical
  // sink-attached behaviour bit for bit.
  RunOpts.Trace = true;

  // Stress locations to try, most-recently-successful region first (the
  // effective region rarely changes between close candidates).
  using MicroStress = litmus::LitmusRunner::MicroStress;
  std::vector<std::pair<unsigned, MicroStress>> Configs;
  if (Opts.Stressed) {
    const unsigned First = PreferRegion % Chip.NumBanks;
    Configs.emplace_back(First, MicroStress::tuned(Chip, First));
    for (unsigned Region = 0; Region != Chip.NumBanks; ++Region)
      if (Region != First)
        Configs.emplace_back(Region, MicroStress::tuned(Chip, Region));
  } else {
    Configs.emplace_back(0, MicroStress::none());
  }

  for (const auto &[Region, Stress] : Configs) {
    for (unsigned Run = 0; Run != Opts.RunsPerAttempt; ++Run) {
      const bool Forbidden = Runner.runOnce(P, Opts.Distance, Stress,
                                            RunOpts);
      ++Oracle.LitmusRuns;
      if (!Forbidden)
        continue;
      // The forbidden outcome was observed; only a checker-confirmed
      // non-SC execution counts (a reduction that makes the outcome
      // sequentially reachable shrank the weakness away) — and both
      // oracles must say so about the same trace.
      const sim::EventTrace &Trace = Runner.trace();
      const model::StreamVerdict &SV = Oracle.Streaming.checkAll(Trace);
      const model::CheckResult CR = Oracle.PostHoc.check(Trace);
      ++Oracle.CrossChecks;
      if (SV.AxiomsOk != CR.AxiomsOk || SV.weak() != CR.weak()) {
        Oracle.Error =
            "streaming and post-hoc checkers disagree on a "
            "forbidden-outcome run of '" +
            P.Name + "' (streaming: axioms " +
            (SV.AxiomsOk ? "ok" : ("violated [" + SV.AxiomViolation + "]")) +
            (SV.weak() ? ", weak" : ", not weak") + "; post-hoc: axioms " +
            (CR.AxiomsOk ? "ok" : ("violated [" + CR.AxiomViolation + "]")) +
            (CR.weak() ? ", weak" : ", not weak") + ")";
        return Repro::Disagree;
      }
      if (SV.weak()) {
        PreferRegion = Region;
        return Repro::Yes;
      }
    }
  }
  return Repro::No;
}

/// The shrinker's acceptance test for one candidate: programs the
/// enumerator proves cannot show their forbidden outcome non-SC are
/// rejected without a run (no simulated run of them can be judged weak,
/// model/Enumerate.h); the rest are simulated. A ruled-out candidate
/// still consumes its attempt index and leaves \p PreferRegion alone, so
/// every later candidate runs on the stream and region it would have had
/// without the filter.
Repro acceptsCandidate(const Program &P, const sim::ChipProfile &Chip,
                       const ShrinkOptions &Opts, uint64_t AttemptIdx,
                       unsigned &PreferRegion, ShrinkOracle &Oracle,
                       ShrinkResult &Result) {
  if (model::enumerateForbidden(P).rulesOutWeak()) {
    ++Result.RuledOut;
    return Repro::No;
  }
  return reproducesWeak(P, Chip, Opts, AttemptIdx, PreferRegion, Oracle);
}

} // namespace

ShrinkResult fuzz::shrinkWeakProgram(const Program &P,
                                     const sim::ChipProfile &Chip,
                                     const ShrinkOptions &Opts) {
  ShrinkResult Result;
  Result.Reduced = P;
  Result.OriginalOps = countOps(P);
  Result.ReducedOps = Result.OriginalOps;

  ShrinkOracle Oracle;
  unsigned PreferRegion = 0;
  uint64_t AttemptIdx = 0;
  const Repro First = acceptsCandidate(P, Chip, Opts, AttemptIdx++,
                                       PreferRegion, Oracle, Result);
  Result.LitmusRuns = Oracle.LitmusRuns;
  Result.CrossChecks = Oracle.CrossChecks;
  Result.OracleError = Oracle.Error;
  if (First != Repro::Yes)
    return Result; // Nothing to shrink against (or oracle divergence).
  Result.Reproduced = true;
  Result.ProvokingRegion = PreferRegion;

  bool Improved = true;
  while (Improved) {
    Improved = false;
    for (Program &Candidate : shrinkCandidates(Result.Reduced)) {
      ++Result.Candidates;
      const Repro R = acceptsCandidate(Candidate, Chip, Opts, AttemptIdx++,
                                       PreferRegion, Oracle, Result);
      if (R == Repro::Disagree) {
        Result.LitmusRuns = Oracle.LitmusRuns;
        Result.CrossChecks = Oracle.CrossChecks;
        Result.OracleError = Oracle.Error;
        return Result; // Hard failure: stop reducing immediately.
      }
      if (R == Repro::Yes) {
        Result.Reduced = std::move(Candidate);
        Result.ProvokingRegion = PreferRegion;
        if (Opts.RecordSteps)
          Result.Steps.push_back(Result.Reduced);
        ++Result.Accepted;
        Improved = true;
        break; // Unit positions shifted; rebuild the unit list.
      }
    }
  }
  Result.ReducedOps = countOps(Result.Reduced);
  Result.LitmusRuns = Oracle.LitmusRuns;
  Result.CrossChecks = Oracle.CrossChecks;
  return Result;
}

std::vector<Program> fuzz::shrinkCandidates(const Program &P) {
  std::vector<Program> Candidates;
  for (const Unit &U : removableUnits(P)) {
    Program Candidate = removeUnit(P, U);
    if (Candidate.validate().empty())
      Candidates.push_back(std::move(Candidate));
  }
  return Candidates;
}

bool fuzz::reproducesWeakProgram(const Program &P,
                                 const sim::ChipProfile &Chip,
                                 const ShrinkOptions &Opts,
                                 std::string *OracleError) {
  ShrinkOracle Oracle;
  unsigned PreferRegion = 0;
  const Repro R = reproducesWeak(P, Chip, Opts, /*AttemptIdx=*/0,
                                 PreferRegion, Oracle);
  if (OracleError)
    *OracleError = Oracle.Error;
  return R == Repro::Yes;
}

//===----------------------------------------------------------------------===//
// Canonical form
//===----------------------------------------------------------------------===//

namespace {

bool opUsesLoc(const ProgOp &O) {
  return O.K == ProgOp::Kind::Store || O.K == ProgOp::Kind::Load ||
         O.K == ProgOp::Kind::AsyncLoad || O.K == ProgOp::Kind::AtomicAdd;
}

/// The location index whose value map governs forbidden atom \p A: the
/// location itself for a memory atom, the defining load's location for a
/// register atom (-1 when the register has no defining load — impossible
/// for validated programs).
int atomLocation(const Program &P, const CondAtom &A) {
  if (!A.IsReg)
    return static_cast<int>(A.Index);
  for (const litmus::ProgThread &T : P.Threads)
    for (const ProgOp &O : T.Ops)
      if ((O.K == ProgOp::Kind::Load || O.K == ProgOp::Kind::AsyncLoad) &&
          O.Reg == A.Index)
        return static_cast<int>(O.Loc);
  return -1;
}

} // namespace

Program fuzz::canonicalizeProgram(const Program &P) {
  Program Q = P;
  renumberBlocks(Q);

  // --- Locations: rename/reorder to v0.. by first use in op scan order,
  // then forbidden-only locations in clause order; locations nothing
  // references are dropped (their init values are unobservable).
  {
    std::vector<int> Map(Q.Locations.size(), -1);
    std::vector<unsigned> Order;
    const auto Touch = [&](unsigned L) {
      if (Map[L] < 0) {
        Map[L] = static_cast<int>(Order.size());
        Order.push_back(L);
      }
    };
    for (const litmus::ProgThread &T : Q.Threads)
      for (const ProgOp &O : T.Ops)
        if (opUsesLoc(O))
          Touch(O.Loc);
    for (const CondAtom &A : Q.Forbidden)
      if (!A.IsReg)
        Touch(A.Index);

    std::vector<std::string> Locs(Order.size());
    std::vector<sim::Word> Init(Order.size(), 0);
    for (size_t I = 0; I != Order.size(); ++I) {
      // Built without operator+ to dodge GCC 12's -Wrestrict false positive.
      std::string Loc = "v";
      Loc += std::to_string(I);
      Locs[I] = std::move(Loc);
      Init[I] = Q.Init[Order[I]];
    }
    Q.Locations = std::move(Locs);
    Q.Init = std::move(Init);
    for (litmus::ProgThread &T : Q.Threads)
      for (ProgOp &O : T.Ops)
        if (opUsesLoc(O))
          O.Loc = static_cast<unsigned>(Map[O.Loc]);
    for (CondAtom &A : Q.Forbidden)
      if (!A.IsReg)
        A.Index = static_cast<unsigned>(Map[A.Index]);
  }

  // --- Registers: rename/reorder to r0.. by definition scan order (each
  // register is loaded exactly once in a validated program).
  {
    std::vector<int> Map(Q.Registers.size(), -1);
    unsigned Next = 0;
    for (const litmus::ProgThread &T : Q.Threads)
      for (const ProgOp &O : T.Ops)
        if ((O.K == ProgOp::Kind::Load || O.K == ProgOp::Kind::AsyncLoad) &&
            Map[O.Reg] < 0)
          Map[O.Reg] = static_cast<int>(Next++);
    std::vector<std::string> Regs(Next);
    for (unsigned I = 0; I != Next; ++I) {
      // Built without operator+ to dodge GCC 12's -Wrestrict false positive.
      std::string Reg = "r";
      Reg += std::to_string(I);
      Regs[I] = std::move(Reg);
    }
    Q.Registers = std::move(Regs);
    for (litmus::ProgThread &T : Q.Threads)
      for (ProgOp &O : T.Ops)
        if (O.K == ProgOp::Kind::Load || O.K == ProgOp::Kind::AsyncLoad ||
            O.K == ProgOp::Kind::AwaitLoad)
          O.Reg = static_cast<unsigned>(Map[O.Reg]);
    for (CondAtom &A : Q.Forbidden)
      if (A.IsReg)
        A.Index = static_cast<unsigned>(Map[A.Index]);
  }

  // --- Data values, per location: values are pure payload in a litmus
  // program (no data-dependent control flow), so any per-location
  // injective renaming is a behaviour isomorphism. Normalise to
  // 0 (the implicit default), 1 (a non-zero init), then store values in
  // scan order from 2 — EXCEPT for locations an AtomicAdd touches
  // (values accumulate) or whose forbidden atoms reference a value the
  // map does not cover (renaming could break the pinned outcome).
  for (unsigned L = 0; L != Q.Locations.size(); ++L) {
    bool Skip = false;
    std::map<sim::Word, sim::Word> M;
    M[0] = 0;
    if (Q.Init[L] != 0)
      M.emplace(Q.Init[L], 1);
    sim::Word NextValue = 2;
    for (const litmus::ProgThread &T : Q.Threads)
      for (const ProgOp &O : T.Ops) {
        if (O.K == ProgOp::Kind::AtomicAdd && O.Loc == L)
          Skip = true;
        if (O.K == ProgOp::Kind::Store && O.Loc == L &&
            M.emplace(O.Value, NextValue).second)
          ++NextValue;
      }
    for (const CondAtom &A : Q.Forbidden)
      if (atomLocation(Q, A) == static_cast<int>(L) && !M.count(A.Value))
        Skip = true;
    if (Skip)
      continue;
    Q.Init[L] = M[Q.Init[L]];
    for (litmus::ProgThread &T : Q.Threads)
      for (ProgOp &O : T.Ops)
        if (O.K == ProgOp::Kind::Store && O.Loc == L)
          O.Value = M[O.Value];
    for (CondAtom &A : Q.Forbidden)
      if (atomLocation(Q, A) == static_cast<int>(L))
        A.Value = M[A.Value];
  }

  // --- Forbidden clause: a conjunction, so order and duplicates carry no
  // meaning — sort (registers first) and deduplicate.
  std::sort(Q.Forbidden.begin(), Q.Forbidden.end(),
            [](const CondAtom &A, const CondAtom &B) {
              return std::make_tuple(!A.IsReg, A.Index, A.Negated, A.Value) <
                     std::make_tuple(!B.IsReg, B.Index, B.Negated, B.Value);
            });
  Q.Forbidden.erase(std::unique(Q.Forbidden.begin(), Q.Forbidden.end()),
                    Q.Forbidden.end());
  return Q;
}

std::string fuzz::canonicalKey(const Program &P) {
  Program Q = canonicalizeProgram(P);
  Q.Name = "canonical";
  Q.Doc.clear();
  return litmus::printLitmus(Q);
}
