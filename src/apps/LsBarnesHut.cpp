//===- apps/LsBarnesHut.cpp - Lonestar Barnes-Hut N-body ----------------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// The Barnes-Hut N-body simulation from the Lonestar GPU benchmarks [12],
// reduced to two dimensions and integer (fixed-point) arithmetic so that
// results compare exactly against a reference. Four kernels, as in the
// original: (1) concurrent lock-free quadtree build, (2) centre-of-mass
// summarisation, (3) force computation by tree traversal with the
// Barnes-Hut opening criterion, (4) position integration.
//
// Weak-memory defects live in the tree build: a thread that splits a leaf
// allocates a fresh internal node, initialises its child slots and places
// the displaced body with plain stores, and then publishes the node by
// storing its index into the parent's child slot. On a weak machine the
// publish can become visible while the initialisation stores are still
// buffered, so concurrent inserters descend into garbage.
//
// The original ls-bh contains fences, but the paper found them
// insufficient (errors in both ls-bh and ls-bh-nf; Tab. 5, Sec. 4.3). We
// model that faithfully: the built-in fence covers the child-slot
// initialisation but NOT the displaced-body placement, so even the fenced
// variant can lose a body. Empirical fence insertion on ls-bh-nf finds a
// superset of the provided fences, as in the paper (Sec. 5.2).
//
// The post-condition compares final positions against a sequentially
// consistent reference execution, the analogue of the paper's use of a
// conservatively fenced run as reference for ls-bh.
//
//===----------------------------------------------------------------------===//

#include "apps/AppsInternal.h"

#include "sim/ThreadContext.h"

#include <algorithm>
#include <vector>

using namespace gpuwmm;
using namespace gpuwmm::apps;
using sim::Addr;
using sim::Kernel;
using sim::ThreadContext;
using sim::Word;

namespace {

enum Site : int {
  SiteChildLd = 0, ///< build: load of a child slot during descent.
  SiteInsCAS,      ///< build: CAS inserting a body into an empty slot.
  SiteLockCAS,     ///< build: CAS locking a body slot for splitting.
  SiteNewChildSt,  ///< build: store initialising a new node's child slot.
  SiteOldBodySt,   ///< build: store placing the displaced body (the bug
                   ///< the provided fences miss).
  SitePublishSt,   ///< build: store publishing the new node.
  SiteGeomLd,      ///< build: loads of node geometry during descent.
  SiteComSt,       ///< summarise: stores of mass/centre-of-mass.
  SiteSumLd,       ///< summarise: loads of children/positions.
  SiteForceLd,     ///< force: loads during traversal.
  SiteAccSt,       ///< force: store of the computed acceleration.
  SitePosSt,       ///< integrate: position stores.
  NumSites
};

const char *const SiteNames[NumSites] = {
    "build: load child slot",
    "build: CAS body into empty slot",
    "build: CAS lock body slot",
    "build: store new-node child slot",
    "build: store displaced body",
    "build: store publish new node",
    "build: load node geometry",
    "summarise: store COM fields",
    "summarise: loads",
    "force: traversal loads",
    "force: store acceleration",
    "integrate: store position",
};

constexpr unsigned NumBodies = 32;
constexpr unsigned GridDim = 2;
constexpr unsigned BlockDim = 16;
constexpr unsigned MaxNodes = 128;
constexpr unsigned CoordBits = 14; ///< Space is [0, 2^14)^2 fixed-point.
constexpr Word RootHalf = 1u << (CoordBits - 1);

// Child-slot encodings.
constexpr Word SlotEmpty = 0xffffffffu;
constexpr Word SlotLock = 0xfffffffeu;
constexpr Word BodyTagBit = 0x80000000u;

bool slotIsBody(Word S) { return (S & BodyTagBit) != 0 && S != SlotEmpty &&
                                 S != SlotLock; }
Word bodyTag(unsigned BodyIdx) { return BodyTagBit | BodyIdx; }
unsigned bodyOf(Word S) { return S & ~BodyTagBit; }

/// Node layout in the Nodes arrays (struct-of-arrays).
struct TreeAddrs {
  Addr Children;  ///< 4 slots per node.
  Addr CenterX;   ///< Cell centre.
  Addr CenterY;
  Addr Half;      ///< Cell half-width.
  Addr Mass;      ///< Filled by the summarise kernel.
  Addr ComX;
  Addr ComY;
  Addr NodeCount; ///< Allocation bump counter.
};

unsigned quadrantOf(Word X, Word Y, Word Cx, Word Cy) {
  return (X >= Cx ? 1u : 0u) | (Y >= Cy ? 2u : 0u);
}

/// Child cell centre for quadrant \p Q of a cell centred at (Cx, Cy).
void childCenter(unsigned Q, Word Cx, Word Cy, Word Half, Word &Ox,
                 Word &Oy) {
  const Word H2 = Half / 2;
  Ox = (Q & 1) ? Cx + H2 : Cx - H2;
  Oy = (Q & 2) ? Cy + H2 : Cy - H2;
}

//===----------------------------------------------------------------------===//
// Kernel 1: concurrent tree build
//===----------------------------------------------------------------------===//

Kernel buildKernel(ThreadContext &Ctx, TreeAddrs T, Addr PosX, Addr PosY,
                   Addr ErrorFlag) {
  for (unsigned Body = Ctx.globalId(); Body < NumBodies;
       Body += Ctx.blockDim() * Ctx.gridDim()) {
    const Word X = co_await Ctx.ld(PosX + Body);
    const Word Y = co_await Ctx.ld(PosY + Body);

    unsigned Cur = 0; // Root.
    unsigned Guard = 0;
    bool Done = false;
    while (!Done) {
      if (++Guard > 512) {
        // Corrupt descent (e.g. through a half-initialised node).
        co_await Ctx.st(ErrorFlag, 1);
        break;
      }
      const Word Cx = co_await Ctx.ld(T.CenterX + Cur, SiteGeomLd);
      const Word Cy = co_await Ctx.ld(T.CenterY + Cur, SiteGeomLd);
      const Word Half = co_await Ctx.ld(T.Half + Cur, SiteGeomLd);
      const unsigned Q = quadrantOf(X, Y, Cx, Cy);
      const Addr Slot = T.Children + Cur * 4 + Q;

      const Word C = co_await Ctx.ld(Slot, SiteChildLd);
      if (C == SlotLock) {
        co_await Ctx.yield(2 + static_cast<unsigned>(Ctx.rand(3)));
        continue;
      }
      if (C == SlotEmpty) {
        const Word Prev = co_await Ctx.atomicCAS(
            Slot, SlotEmpty, bodyTag(Body), SiteInsCAS);
        if (Prev == SlotEmpty)
          Done = true;
        continue; // Raced: re-examine the slot.
      }
      if (!slotIsBody(C)) {
        // Internal node: descend.
        if (C >= MaxNodes) {
          co_await Ctx.st(ErrorFlag, 1); // Garbage pointer.
          break;
        }
        Cur = static_cast<unsigned>(C);
        continue;
      }

      // Occupied by a body: split. Lock the slot first.
      const Word LockPrev =
          co_await Ctx.atomicCAS(Slot, C, SlotLock, SiteLockCAS);
      if (LockPrev != C)
        continue; // Raced: re-examine.

      const unsigned NewNode = static_cast<unsigned>(
          co_await Ctx.atomicAdd(T.NodeCount, 1));
      if (NewNode >= MaxNodes) {
        co_await Ctx.st(ErrorFlag, 1);
        break;
      }
      Word NCx, NCy;
      childCenter(Q, Cx, Cy, Half, NCx, NCy);

      // Initialise the fresh node.
      co_await Ctx.st(T.CenterX + NewNode, NCx, SiteNewChildSt);
      co_await Ctx.st(T.CenterY + NewNode, NCy, SiteNewChildSt);
      co_await Ctx.st(T.Half + NewNode, Half / 2, SiteNewChildSt);
      for (unsigned I = 0; I != 4; ++I)
        co_await Ctx.st(T.Children + NewNode * 4 + I, SlotEmpty,
                        SiteNewChildSt);

      // The original code fences here — covering the initialisation
      // stores but NOT the displaced-body placement below, which is why
      // ls-bh's provided fences are insufficient (paper Sec. 4.3).
      co_await Ctx.builtinFence();

      // Re-seat the displaced body in the new node.
      const unsigned OldBody = bodyOf(C);
      const Word OX = co_await Ctx.ld(PosX + OldBody);
      const Word OY = co_await Ctx.ld(PosY + OldBody);
      const unsigned OQ = quadrantOf(OX, OY, NCx, NCy);
      co_await Ctx.st(T.Children + NewNode * 4 + OQ, C, SiteOldBodySt);

      // Publish the new node (unlocks the slot). A plain store: the
      // release ordering is exactly what weak memory breaks.
      co_await Ctx.st(Slot, NewNode, SitePublishSt);
      // Loop: re-descend to place our own body (now into NewNode).
    }
  }
}

//===----------------------------------------------------------------------===//
// Kernel 2: centre-of-mass summarisation (single leader thread; the
// kernel boundary has already synchronised the tree).
//===----------------------------------------------------------------------===//

Kernel summariseKernel(ThreadContext &Ctx, TreeAddrs T, Addr PosX,
                       Addr PosY) {
  if (Ctx.globalId() != 0)
    co_return;
  // A failed build can leave NodeCount past the node arrays (every
  // inserter that overflows still bumps it) and garbage in child slots,
  // so the walk is bounded like the force kernel's: at most MaxNodes
  // nodes, child nodes below MaxNodes, bodies below NumBodies.
  const unsigned Count =
      std::min<Word>(co_await Ctx.ld(T.NodeCount), MaxNodes);
  // Children always have higher indices than their parents, so one
  // reverse pass computes all centres of mass bottom-up. Exact coordinate
  // SUMS are stored (division happens at use in the force kernel), so the
  // results are independent of the racy-but-unique tree construction
  // order: a PR quadtree's shape, and hence every node's body set,
  // depends only on the body positions.
  for (unsigned I = Count; I-- != 0;) {
    Word Mass = 0, Sx = 0, Sy = 0;
    for (unsigned Q = 0; Q != 4; ++Q) {
      const Word C = co_await Ctx.ld(T.Children + I * 4 + Q, SiteSumLd);
      if (C == SlotEmpty || C == SlotLock)
        continue;
      if (slotIsBody(C)) {
        const unsigned B = bodyOf(C);
        if (B >= NumBodies)
          continue;
        Mass += 1;
        Sx += co_await Ctx.ld(PosX + B, SiteSumLd);
        Sy += co_await Ctx.ld(PosY + B, SiteSumLd);
        continue;
      }
      if (C >= MaxNodes)
        continue;
      Mass += co_await Ctx.ld(T.Mass + C, SiteSumLd);
      Sx += co_await Ctx.ld(T.ComX + C, SiteSumLd);
      Sy += co_await Ctx.ld(T.ComY + C, SiteSumLd);
    }
    co_await Ctx.st(T.Mass + I, Mass, SiteComSt);
    co_await Ctx.st(T.ComX + I, Sx, SiteComSt); // Coordinate sums.
    co_await Ctx.st(T.ComY + I, Sy, SiteComSt);
  }
}

//===----------------------------------------------------------------------===//
// Kernel 3: force computation (read-only traversal)
//===----------------------------------------------------------------------===//

Kernel forceKernel(ThreadContext &Ctx, TreeAddrs T, Addr PosX, Addr PosY,
                   Addr AccX, Addr AccY, Addr ErrorFlag) {
  for (unsigned Body = Ctx.globalId(); Body < NumBodies;
       Body += Ctx.blockDim() * Ctx.gridDim()) {
    const Word X = co_await Ctx.ld(PosX + Body);
    const Word Y = co_await Ctx.ld(PosY + Body);

    // Explicit-stack traversal with the s/d < theta opening criterion.
    Word Ax = 0, Ay = 0;
    unsigned Stack[64];
    unsigned Top = 0;
    Stack[Top++] = 0;
    unsigned Guard = 0;
    while (Top != 0) {
      if (++Guard > 4096 || Top >= 60) {
        co_await Ctx.st(ErrorFlag, 1);
        break;
      }
      const unsigned Node = Stack[--Top];
      const Word Mass = co_await Ctx.ld(T.Mass + Node, SiteForceLd);
      if (Mass == 0)
        continue;
      // COM fields hold exact coordinate sums; divide at use.
      const Word Cmx =
          (co_await Ctx.ld(T.ComX + Node, SiteForceLd)) / Mass;
      const Word Cmy =
          (co_await Ctx.ld(T.ComY + Node, SiteForceLd)) / Mass;
      const Word Half = co_await Ctx.ld(T.Half + Node, SiteForceLd);
      const int64_t Dx = static_cast<int64_t>(Cmx) - X;
      const int64_t Dy = static_cast<int64_t>(Cmy) - Y;
      const int64_t Dist2 = Dx * Dx + Dy * Dy + 1;
      const int64_t Size2 = 4 * static_cast<int64_t>(Half) * Half;
      // Open the cell when (s/d)^2 >= theta^2 with theta = 1/2.
      if (Size2 * 4 >= Dist2) {
        for (unsigned Q = 0; Q != 4; ++Q) {
          const Word C =
              co_await Ctx.ld(T.Children + Node * 4 + Q, SiteForceLd);
          if (C == SlotEmpty || C == SlotLock)
            continue;
          if (slotIsBody(C)) {
            const unsigned B = bodyOf(C);
            if (B == Body)
              continue;
            const Word Bx = co_await Ctx.ld(PosX + B, SiteForceLd);
            const Word By = co_await Ctx.ld(PosY + B, SiteForceLd);
            const int64_t Ddx = static_cast<int64_t>(Bx) - X;
            const int64_t Ddy = static_cast<int64_t>(By) - Y;
            const int64_t D2 = Ddx * Ddx + Ddy * Ddy + 1;
            Ax = static_cast<Word>(Ax + ((Ddx << 12) / D2));
            Ay = static_cast<Word>(Ay + ((Ddy << 12) / D2));
          } else if (C < MaxNodes) {
            Stack[Top++] = static_cast<unsigned>(C);
          }
        }
        continue;
      }
      // Approximate by the cell's centre of mass.
      Ax = static_cast<Word>(Ax + Mass * ((Dx << 12) / Dist2));
      Ay = static_cast<Word>(Ay + Mass * ((Dy << 12) / Dist2));
    }
    co_await Ctx.st(AccX + Body, Ax, SiteAccSt);
    co_await Ctx.st(AccY + Body, Ay, SiteAccSt);
  }
}

//===----------------------------------------------------------------------===//
// Kernel 4: integration
//===----------------------------------------------------------------------===//

Kernel integrateKernel(ThreadContext &Ctx, Addr PosX, Addr PosY, Addr AccX,
                       Addr AccY) {
  for (unsigned Body = Ctx.globalId(); Body < NumBodies;
       Body += Ctx.blockDim() * Ctx.gridDim()) {
    const Word X = co_await Ctx.ld(PosX + Body);
    const Word Y = co_await Ctx.ld(PosY + Body);
    const Word Ax = co_await Ctx.ld(AccX + Body);
    const Word Ay = co_await Ctx.ld(AccY + Body);
    co_await Ctx.st(PosX + Body, (X + (Ax >> 6)) & ((1u << CoordBits) - 1),
                    SitePosSt);
    co_await Ctx.st(PosY + Body, (Y + (Ay >> 6)) & ((1u << CoordBits) - 1),
                    SitePosSt);
  }
}

//===----------------------------------------------------------------------===//
// The application
//===----------------------------------------------------------------------===//

class LsBarnesHut final : public Application {
public:
  const char *name() const override { return "ls-bh"; }
  unsigned numSites() const override { return NumSites; }
  const char *siteName(unsigned Site) const override {
    return SiteNames[Site];
  }
  uint64_t maxTicks() const override { return 120000; }

  void setup(sim::Device &Dev, Rng &R) override {
    PosX = Dev.alloc(NumBodies);
    PosY = Dev.alloc(NumBodies);
    AccX = Dev.alloc(NumBodies);
    AccY = Dev.alloc(NumBodies);
    T.Children = Dev.alloc(MaxNodes * 4);
    T.CenterX = Dev.alloc(MaxNodes);
    T.CenterY = Dev.alloc(MaxNodes);
    T.Half = Dev.alloc(MaxNodes);
    T.Mass = Dev.alloc(MaxNodes);
    T.ComX = Dev.alloc(MaxNodes);
    T.ComY = Dev.alloc(MaxNodes);
    T.NodeCount = Dev.alloc(1);
    ErrorFlag = Dev.alloc(1);

    InitialX.resize(NumBodies);
    InitialY.resize(NumBodies);
    for (unsigned I = 0; I != NumBodies; ++I) {
      InitialX[I] = static_cast<Word>(R.below(1u << CoordBits));
      InitialY[I] = static_cast<Word>(R.below(1u << CoordBits));
    }
    initialiseDevice(Dev);

    // Reference positions from a sequentially consistent execution (the
    // analogue of the paper's conservatively fenced reference run).
    computeReference(Dev.chip());
  }

  bool run(sim::Device &Dev) override { return runKernels(Dev); }

  bool checkPostCondition(const sim::Device &Dev) const override {
    if (Dev.read(ErrorFlag) != 0)
      return false;
    for (unsigned I = 0; I != NumBodies; ++I)
      if (Dev.read(PosX + I) != RefX[I] || Dev.read(PosY + I) != RefY[I])
        return false;
    return true;
  }

private:
  void initialiseDevice(sim::Device &Dev) {
    for (unsigned I = 0; I != NumBodies; ++I) {
      Dev.write(PosX + I, InitialX[I]);
      Dev.write(PosY + I, InitialY[I]);
    }
    for (unsigned I = 0; I != MaxNodes * 4; ++I)
      Dev.write(T.Children + I, SlotEmpty);
    // Root cell covers the whole space.
    Dev.write(T.CenterX, RootHalf);
    Dev.write(T.CenterY, RootHalf);
    Dev.write(T.Half, RootHalf);
    Dev.write(T.NodeCount, 1);
  }

  bool runKernels(sim::Device &Dev) {
    const TreeAddrs TV = T;
    const Addr PX = PosX, PY = PosY, AX = AccX, AY = AccY,
               Err = ErrorFlag;
    if (!Dev.run({GridDim, BlockDim}, [=](ThreadContext &Ctx) -> Kernel {
          return buildKernel(Ctx, TV, PX, PY, Err);
        }).completed())
      return false;
    if (!Dev.run({1, 1}, [=](ThreadContext &Ctx) -> Kernel {
          return summariseKernel(Ctx, TV, PX, PY);
        }).completed())
      return false;
    if (!Dev.run({GridDim, BlockDim}, [=](ThreadContext &Ctx) -> Kernel {
          return forceKernel(Ctx, TV, PX, PY, AX, AY, Err);
        }).completed())
      return false;
    return Dev
        .run({GridDim, BlockDim},
             [=](ThreadContext &Ctx) -> Kernel {
               return integrateKernel(Ctx, PX, PY, AX, AY);
             })
        .completed();
  }

  /// Runs the whole pipeline on a private SC device to obtain the
  /// reference positions.
  void computeReference(const sim::ChipProfile &Chip) {
    sim::Device Ref(Chip, /*Seed=*/1);
    Ref.setSequentialMode(true);
    // Mirror the allocation order exactly.
    LsBarnesHut Shadow;
    Shadow.PosX = Ref.alloc(NumBodies);
    Shadow.PosY = Ref.alloc(NumBodies);
    Shadow.AccX = Ref.alloc(NumBodies);
    Shadow.AccY = Ref.alloc(NumBodies);
    Shadow.T.Children = Ref.alloc(MaxNodes * 4);
    Shadow.T.CenterX = Ref.alloc(MaxNodes);
    Shadow.T.CenterY = Ref.alloc(MaxNodes);
    Shadow.T.Half = Ref.alloc(MaxNodes);
    Shadow.T.Mass = Ref.alloc(MaxNodes);
    Shadow.T.ComX = Ref.alloc(MaxNodes);
    Shadow.T.ComY = Ref.alloc(MaxNodes);
    Shadow.T.NodeCount = Ref.alloc(1);
    Shadow.ErrorFlag = Ref.alloc(1);
    Shadow.InitialX = InitialX;
    Shadow.InitialY = InitialY;
    Shadow.initialiseDevice(Ref);
    const bool Ok = Shadow.runKernels(Ref);
    (void)Ok;
    RefX.resize(NumBodies);
    RefY.resize(NumBodies);
    for (unsigned I = 0; I != NumBodies; ++I) {
      RefX[I] = Ref.read(Shadow.PosX + I);
      RefY[I] = Ref.read(Shadow.PosY + I);
    }
  }

  TreeAddrs T{};
  Addr PosX = 0, PosY = 0, AccX = 0, AccY = 0, ErrorFlag = 0;
  std::vector<Word> InitialX, InitialY, RefX, RefY;
};

} // namespace

std::unique_ptr<Application> apps::detail::makeLsBarnesHut() {
  return std::make_unique<LsBarnesHut>();
}
