//===- fuzz/LitmusBridge.cpp - Fuzz cases as .litmus tests ------------------===//

#include "fuzz/LitmusBridge.h"

#include "support/Check.h"

using namespace gpuwmm;
using namespace gpuwmm::fuzz;

litmus::Program fuzz::toLitmusProgram(const litmus::Program &P,
                                      const std::string &Name,
                                      const Outcome *Weak) {
  litmus::Program L = P;
  L.Name = Name;
  L.Doc = "exported fuzz case";
  L.Forbidden.clear();
  if (Weak) {
    // Outcome layout: thread 0's loads, thread 1's loads, then the final
    // memory value of every location (see fuzz::Outcome).
    GPUWMM_CHECK(Weak->size() == L.Registers.size() + L.Locations.size(),
                 "outcome does not match the program");
    size_t Next = 0;
    for (const litmus::ProgThread &T : L.Threads)
      for (const litmus::ProgOp &O : T.Ops)
        if (O.K == litmus::ProgOp::Kind::Load)
          L.Forbidden.push_back({/*IsReg=*/true, O.Reg, /*Negated=*/false,
                                 (*Weak)[Next++]});
    for (unsigned V = 0; V != L.Locations.size(); ++V)
      L.Forbidden.push_back({/*IsReg=*/false, V, /*Negated=*/false,
                             (*Weak)[Next++]});
  }
  GPUWMM_CHECK(L.validate().empty(), "export must produce a valid program");
  return L;
}

std::string fuzz::fuzzabilityError(const litmus::Program &P) {
  if (const std::string Why = P.validate(); !Why.empty())
    return "program is not well-formed: " + Why;
  if (P.Threads.size() != 2)
    return "fuzzing needs exactly two threads, got " +
           std::to_string(P.Threads.size());
  if (P.Threads[0].Block == P.Threads[1].Block)
    return "fuzzing runs its threads in distinct blocks";
  for (sim::Word V : P.Init)
    if (V != 0)
      return "fuzzing assumes an all-zero initial state";
  for (const litmus::ProgThread &T : P.Threads)
    for (const litmus::ProgOp &O : T.Ops)
      switch (O.K) {
      case litmus::ProgOp::Kind::AsyncLoad:
      case litmus::ProgOp::Kind::AwaitLoad:
        return "split-phase loads have no fuzz equivalent";
      case litmus::ProgOp::Kind::OptFence:
        return "conditional fences have no fuzz equivalent";
      default:
        break;
      }
  return "";
}
