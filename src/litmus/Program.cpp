//===- litmus/Program.cpp - Litmus test IR and built-in catalog --------------===//

#include "litmus/Program.h"

#include "support/Check.h"

#include <algorithm>
#include <sstream>

using namespace gpuwmm;
using namespace gpuwmm::litmus;
using sim::Word;

//===----------------------------------------------------------------------===//
// Program queries
//===----------------------------------------------------------------------===//

unsigned Program::numBlocks() const {
  unsigned Max = 0;
  for (const ProgThread &T : Threads)
    Max = std::max(Max, T.Block + 1);
  return Max;
}

unsigned Program::maxBlockThreads() const {
  std::vector<unsigned> Count(numBlocks(), 0);
  unsigned Max = 0;
  for (const ProgThread &T : Threads)
    Max = std::max(Max, ++Count[T.Block]);
  return Max;
}

int Program::findLocation(std::string_view N) const {
  for (size_t I = 0; I != Locations.size(); ++I)
    if (Locations[I] == N)
      return static_cast<int>(I);
  return -1;
}

int Program::findRegister(std::string_view N) const {
  for (size_t I = 0; I != Registers.size(); ++I)
    if (Registers[I] == N)
      return static_cast<int>(I);
  return -1;
}

bool Program::evalForbidden(const std::vector<Word> &Regs,
                            const std::vector<Word> &Mem) const {
  if (Forbidden.empty())
    return false;
  for (const CondAtom &A : Forbidden) {
    const Word V = A.IsReg ? Regs[A.Index] : Mem[A.Index];
    if ((V == A.Value) == A.Negated)
      return false;
  }
  return true;
}

std::string Program::validate() const {
  std::ostringstream Err;
  if (Name.empty())
    return "program has no name";
  if (Locations.empty())
    return "program declares no locations";
  if (Threads.empty())
    return "program has no threads";
  if (Init.size() != Locations.size())
    return "init vector size does not match the location count";

  // Unique, disjoint names: the forbidden clause resolves a bare name
  // against registers first, so a collision would shadow a location.
  for (size_t I = 0; I != Locations.size(); ++I)
    for (size_t J = I + 1; J != Locations.size(); ++J)
      if (Locations[I] == Locations[J]) {
        Err << "duplicate location '" << Locations[I] << "'";
        return Err.str();
      }
  for (size_t I = 0; I != Registers.size(); ++I) {
    for (size_t J = I + 1; J != Registers.size(); ++J)
      if (Registers[I] == Registers[J]) {
        Err << "duplicate register '" << Registers[I] << "'";
        return Err.str();
      }
    if (findLocation(Registers[I]) >= 0) {
      Err << "name '" << Registers[I]
          << "' is both a register and a location";
      return Err.str();
    }
  }

  // Each register is the destination of exactly one load, so its final
  // value is well-defined for the writeback and the forbidden clause.
  std::vector<unsigned> LoadsInto(Registers.size(), 0);
  for (size_t TI = 0; TI != Threads.size(); ++TI) {
    const ProgThread &T = Threads[TI];
    if (T.Ops.empty()) {
      Err << "thread " << TI << " has no ops";
      return Err.str();
    }
    // Registers with a pending split-phase load in this thread.
    std::vector<unsigned> Pending;
    for (const ProgOp &O : T.Ops) {
      const bool HasLoc = O.K == ProgOp::Kind::Store ||
                          O.K == ProgOp::Kind::Load ||
                          O.K == ProgOp::Kind::AsyncLoad ||
                          O.K == ProgOp::Kind::AtomicAdd;
      if (HasLoc && O.Loc >= Locations.size()) {
        Err << "thread " << TI << " references location index " << O.Loc
            << " out of range";
        return Err.str();
      }
      const bool HasReg = O.K == ProgOp::Kind::Load ||
                          O.K == ProgOp::Kind::AsyncLoad ||
                          O.K == ProgOp::Kind::AwaitLoad;
      if (HasReg && O.Reg >= Registers.size()) {
        Err << "thread " << TI << " references register index " << O.Reg
            << " out of range";
        return Err.str();
      }
      switch (O.K) {
      case ProgOp::Kind::Load:
        ++LoadsInto[O.Reg];
        break;
      case ProgOp::Kind::AsyncLoad:
        ++LoadsInto[O.Reg];
        Pending.push_back(O.Reg);
        break;
      case ProgOp::Kind::AwaitLoad: {
        const auto It = std::find(Pending.begin(), Pending.end(), O.Reg);
        if (It == Pending.end()) {
          Err << "thread " << TI << " awaits register '"
              << Registers[O.Reg] << "' with no pending split-phase load";
          return Err.str();
        }
        Pending.erase(It);
        break;
      }
      default:
        break;
      }
    }
    if (!Pending.empty()) {
      Err << "thread " << TI << " leaves split-phase load into '"
          << Registers[Pending.front()] << "' unawaited";
      return Err.str();
    }
  }
  for (size_t R = 0; R != Registers.size(); ++R)
    if (LoadsInto[R] != 1) {
      Err << "register '" << Registers[R] << "' is the destination of "
          << LoadsInto[R] << " loads (need exactly 1)";
      return Err.str();
    }

  for (const CondAtom &A : Forbidden) {
    const size_t Bound = A.IsReg ? Registers.size() : Locations.size();
    if (A.Index >= Bound) {
      Err << "forbidden clause references "
          << (A.IsReg ? "register" : "location") << " index " << A.Index
          << " out of range";
      return Err.str();
    }
  }
  if (PhaseJitter == 0)
    return "phase jitter must be positive";
  return "";
}

//===----------------------------------------------------------------------===//
// Built-in catalog
//===----------------------------------------------------------------------===//

namespace {

/// Incremental Program builder used only for the catalog definitions
/// below; declared names are resolved eagerly so the definitions read
/// like litmus listings.
class Builder {
public:
  Builder(std::string Name, std::string Doc,
          std::initializer_list<const char *> Locs) {
    P.Name = std::move(Name);
    P.Doc = std::move(Doc);
    for (const char *L : Locs)
      P.Locations.push_back(L);
    P.Init.assign(P.Locations.size(), 0);
  }

  Builder &thread(unsigned Block) {
    P.Threads.push_back({Block, {}});
    return *this;
  }

  Builder &st(const char *Loc, Word V) {
    ops().push_back(ProgOp::store(loc(Loc), V));
    return *this;
  }
  Builder &ld(const char *Reg, const char *Loc) {
    ops().push_back(ProgOp::load(reg(Reg), loc(Loc)));
    return *this;
  }
  Builder &ldAsync(const char *Reg, const char *Loc) {
    ops().push_back(ProgOp::asyncLoad(reg(Reg), loc(Loc)));
    return *this;
  }
  Builder &await(const char *Reg) {
    ops().push_back(ProgOp::awaitLoad(reg(Reg)));
    return *this;
  }
  Builder &optFence() {
    ops().push_back(ProgOp::optFence());
    return *this;
  }

  /// Forbidden conjunct over a register or location name.
  Builder &forbid(const char *N, Word V) {
    CondAtom A;
    const int R = P.findRegister(N);
    A.IsReg = R >= 0;
    A.Index = R >= 0 ? static_cast<unsigned>(R)
                     : static_cast<unsigned>(loc(N));
    A.Value = V;
    P.Forbidden.push_back(A);
    return *this;
  }

  Program build() { return std::move(P); }

private:
  std::vector<ProgOp> &ops() { return P.Threads.back().Ops; }

  unsigned loc(const char *N) {
    const int I = P.findLocation(N);
    GPUWMM_CHECK(I >= 0,
                 "catalog entry references an undeclared location");
    return static_cast<unsigned>(I);
  }
  unsigned reg(const char *N) {
    const int I = P.findRegister(N);
    if (I >= 0)
      return static_cast<unsigned>(I);
    P.Registers.push_back(N);
    return static_cast<unsigned>(P.Registers.size() - 1);
  }

  Program P;
};

std::vector<Program> buildCatalog() {
  std::vector<Program> C;

  // The paper's Fig. 2 tuning set. Op shapes, block placement and the
  // forbidden outcomes mirror the original hand-written kernels exactly,
  // so the runner's op streams reproduce their executions bit-for-bit.
  C.push_back(Builder("MP", "message passing (Fig. 2)", {"x", "y"})
                  .thread(0).st("x", 1).optFence().st("y", 1)
                  .thread(1).ld("r0", "y").optFence().ld("r1", "x")
                  .forbid("r0", 1).forbid("r1", 0)
                  .build());
  C.push_back(Builder("LB", "load buffering (Fig. 2)", {"x", "y"})
                  .thread(0).ldAsync("r0", "x").optFence().st("y", 1)
                  .await("r0")
                  .thread(1).ldAsync("r1", "y").optFence().st("x", 1)
                  .await("r1")
                  .forbid("r0", 1).forbid("r1", 1)
                  .build());
  C.push_back(Builder("SB", "store buffering (Fig. 2)", {"x", "y"})
                  .thread(0).st("x", 1).optFence().ld("r0", "y")
                  .thread(1).st("y", 1).optFence().ld("r1", "x")
                  .forbid("r0", 0).forbid("r1", 0)
                  .build());

  // Further two-location shapes (Sec. 3.1's "new buggy idioms" axis). The
  // weak outcomes of S and 2+2W hinge on write-write reordering observed
  // through final memory states; the simulator's issue-ordered
  // per-location coherence forbids them (docs/litmus-format.md).
  C.push_back(Builder("R", "coherence-winning write vs. missed read",
                      {"x", "y"})
                  .thread(0).st("x", 1).optFence().st("y", 1)
                  .thread(1).st("y", 2).optFence().ld("r0", "x")
                  .forbid("y", 2).forbid("r0", 0)
                  .build());
  C.push_back(Builder("S", "write-write vs. read (model-forbidden)",
                      {"x", "y"})
                  .thread(0).st("x", 2).optFence().st("y", 1)
                  .thread(1).ld("r0", "y").optFence().st("x", 1)
                  .forbid("r0", 1).forbid("x", 2)
                  .build());
  C.push_back(Builder("2+2W", "double write-write (model-forbidden)",
                      {"x", "y"})
                  .thread(0).st("x", 1).optFence().st("y", 2)
                  .thread(1).st("y", 1).optFence().st("x", 2)
                  .forbid("x", 1).forbid("y", 1)
                  .build());

  // Classic multi-thread idioms. IRIW and WRC ride on split-phase loads
  // (the LB mechanism): the reader issues its first load asynchronously
  // and completes it after its second, so the two reads can be satisfied
  // against program order. ISA2, RWC and W+RWC are provokable with plain
  // in-order loads via delayed store-buffer drains, like MP and SB.
  C.push_back(Builder("IRIW", "independent reads of independent writes",
                      {"x", "y"})
                  .thread(0).st("x", 1)
                  .thread(1).st("y", 1)
                  .thread(2).ldAsync("r0", "x").optFence().ld("r1", "y")
                  .await("r0")
                  .thread(3).ldAsync("r2", "y").optFence().ld("r3", "x")
                  .await("r2")
                  .forbid("r0", 1).forbid("r1", 0).forbid("r2", 1)
                  .forbid("r3", 0)
                  .build());
  C.push_back(Builder("WRC", "write-to-read causality", {"x", "y"})
                  .thread(0).st("x", 1)
                  .thread(1).ld("r0", "x").optFence().st("y", 1)
                  .thread(2).ldAsync("r1", "y").optFence().ld("r2", "x")
                  .await("r1")
                  .forbid("r0", 1).forbid("r1", 1).forbid("r2", 0)
                  .build());
  C.push_back(Builder("ISA2", "three-thread message-passing chain",
                      {"x", "y", "z"})
                  .thread(0).st("x", 1).optFence().st("y", 1)
                  .thread(1).ld("r0", "y").optFence().st("z", 1)
                  .thread(2).ld("r1", "z").optFence().ld("r2", "x")
                  .forbid("r0", 1).forbid("r1", 1).forbid("r2", 0)
                  .build());
  C.push_back(Builder("RWC", "read-to-write causality", {"x", "y"})
                  .thread(0).st("x", 1)
                  .thread(1).ld("r0", "x").optFence().ld("r1", "y")
                  .thread(2).st("y", 1).optFence().ld("r2", "x")
                  .forbid("r0", 1).forbid("r1", 0).forbid("r2", 0)
                  .build());
  C.push_back(Builder("W+RWC", "write chain into read-to-write causality",
                      {"x", "y", "z"})
                  .thread(0).st("x", 1).optFence().st("z", 1)
                  .thread(1).ld("r0", "z").optFence().ld("r1", "y")
                  .thread(2).st("y", 1).optFence().ld("r2", "x")
                  .forbid("r0", 1).forbid("r1", 0).forbid("r2", 0)
                  .build());
  return C;
}

} // namespace

const std::vector<Program> &litmus::catalog() {
  static const std::vector<Program> C = buildCatalog();
  return C;
}

const Program *litmus::findCatalogProgram(std::string_view Name) {
  for (const Program &P : catalog())
    if (P.Name == Name)
      return &P;
  return nullptr;
}

std::vector<std::string> litmus::catalogNames() {
  std::vector<std::string> Names;
  for (const Program &P : catalog())
    Names.push_back(P.Name);
  return Names;
}

std::array<const Program *, 3> litmus::tuningPrograms() {
  return {findCatalogProgram("MP"), findCatalogProgram("LB"),
          findCatalogProgram("SB")};
}
