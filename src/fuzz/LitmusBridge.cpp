//===- fuzz/LitmusBridge.cpp - Fuzz programs as .litmus tests ----------------===//

#include "fuzz/LitmusBridge.h"

#include "support/Check.h"

using namespace gpuwmm;
using namespace gpuwmm::fuzz;

litmus::Program fuzz::toLitmusProgram(const Program &P,
                                      const std::string &Name,
                                      const Outcome *Weak) {
  litmus::Program L;
  L.Name = Name;
  L.Doc = "exported fuzz case";
  L.PhaseJitter = StartJitter;
  for (unsigned V = 0; V != P.NumVars; ++V) {
    // Built without operator+ to dodge GCC 12's -Wrestrict false positive.
    std::string Loc = "v";
    Loc += std::to_string(V);
    L.Locations.push_back(std::move(Loc));
  }
  L.Init.assign(P.NumVars, 0);

  unsigned NextReg = 0;
  for (unsigned T = 0; T != 2; ++T) {
    litmus::ProgThread LT;
    LT.Block = T;
    for (const Op &O : P.Thread[T]) {
      switch (O.K) {
      case Op::Kind::Store:
        LT.Ops.push_back(litmus::ProgOp::store(O.Var, O.Value));
        break;
      case Op::Kind::Load: {
        std::string Reg = "r";
        Reg += std::to_string(NextReg);
        L.Registers.push_back(std::move(Reg));
        LT.Ops.push_back(litmus::ProgOp::load(NextReg++, O.Var));
        break;
      }
      case Op::Kind::AtomicAdd:
        LT.Ops.push_back(litmus::ProgOp::atomicAdd(O.Var, O.Value));
        break;
      case Op::Kind::Fence:
        LT.Ops.push_back(litmus::ProgOp::fence());
        break;
      }
    }
    L.Threads.push_back(std::move(LT));
  }

  if (Weak) {
    // Outcome layout: thread 0's loads, thread 1's loads, then the final
    // memory value of every variable (see fuzz::Outcome).
    GPUWMM_CHECK(Weak->size() == L.Registers.size() + P.NumVars,
                 "outcome does not match the program");
    for (unsigned R = 0; R != L.Registers.size(); ++R)
      L.Forbidden.push_back({/*IsReg=*/true, R, /*Negated=*/false,
                             (*Weak)[R]});
    for (unsigned V = 0; V != P.NumVars; ++V)
      L.Forbidden.push_back({/*IsReg=*/false, V, /*Negated=*/false,
                             (*Weak)[L.Registers.size() + V]});
  }
  GPUWMM_CHECK(L.validate().empty(),
               "conversion must produce a valid program");
  return L;
}

std::optional<Program> fuzz::fromLitmusProgram(const litmus::Program &P,
                                               std::string *Why) {
  const auto Fail = [&](const std::string &Reason) {
    if (Why)
      *Why = Reason;
    return std::nullopt;
  };
  if (!P.validate().empty())
    return Fail("program is not well-formed: " + P.validate());
  if (P.Threads.size() != 2)
    return Fail("fuzzing needs exactly two threads, got " +
                std::to_string(P.Threads.size()));
  if (P.Threads[0].Block == P.Threads[1].Block)
    return Fail("fuzzing runs its threads in distinct blocks");
  for (sim::Word V : P.Init)
    if (V != 0)
      return Fail("fuzzing assumes an all-zero initial state");

  Program F;
  F.NumVars = static_cast<unsigned>(P.Locations.size());
  for (unsigned T = 0; T != 2; ++T) {
    for (const litmus::ProgOp &O : P.Threads[T].Ops) {
      switch (O.K) {
      case litmus::ProgOp::Kind::Store:
        F.Thread[T].push_back({Op::Kind::Store, O.Loc, O.Value});
        break;
      case litmus::ProgOp::Kind::Load:
        F.Thread[T].push_back({Op::Kind::Load, O.Loc, 0});
        break;
      case litmus::ProgOp::Kind::AtomicAdd:
        F.Thread[T].push_back({Op::Kind::AtomicAdd, O.Loc, O.Value});
        break;
      case litmus::ProgOp::Kind::Fence:
        F.Thread[T].push_back({Op::Kind::Fence, 0, 0});
        break;
      case litmus::ProgOp::Kind::AsyncLoad:
      case litmus::ProgOp::Kind::AwaitLoad:
        return Fail("split-phase loads have no fuzz equivalent");
      case litmus::ProgOp::Kind::OptFence:
        return Fail("conditional fences have no fuzz equivalent");
      }
    }
  }
  return F;
}
