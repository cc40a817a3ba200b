//===- apps/CtOctree.cpp - Cederman-Tsigas octree partitioning ----------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// Octree (here: quadtree over 2-D points, the dimensionality is
// inessential) partitioning in the style of Cederman and Tsigas
// [22, ch. 37]: a shared work queue of (point, cell, depth) items is
// consumed by workers that classify each point one level deeper, either
// re-enqueueing it or — at the leaf level — depositing it in its final
// cell. The queue is non-blocking: producers reserve a slot with an atomic
// and then publish payload and ready flag with plain stores.
//
// Weak-memory defect: the ready-flag store can become visible while the
// payload store is still buffered, so a consumer reads a stale payload —
// a particle is misclassified or lost, violating Tab. 4's post-condition
// that all original particles end up in the final octree.
//
//===----------------------------------------------------------------------===//

#include "apps/AppsInternal.h"

#include <vector>

using namespace gpuwmm;
using namespace gpuwmm::apps;
using sim::Addr;
using sim::Word;
using Code = detail::PlanBuilder::Code;

namespace {

enum Site : int {
  SiteBufSt = 0,  ///< store of the queue payload (the bug).
  SiteReadySt,    ///< store of the slot's ready flag.
  SiteReadyLd,    ///< consumer's poll of the ready flag.
  SiteBufLd,      ///< consumer's load of the payload.
  SiteLeafAdd,    ///< atomicAdd on a leaf cell's occupancy counter.
  NumSites
};

const char *const SiteNames[NumSites] = {
    "enqueue: store buf[slot]",
    "enqueue: store ready[slot]",
    "dequeue: load ready[slot]",
    "dequeue: load buf[slot]",
    "leaf: atomicAdd(cell count)",
};

constexpr unsigned NumPoints = 48;
constexpr unsigned GridDim = 4;
constexpr unsigned BlockDim = 16;
constexpr unsigned MaxDepth = 1;        ///< Items live at depths 0..MaxDepth.
constexpr unsigned TotalPops = NumPoints * (MaxDepth + 1);
constexpr unsigned QueueCap = TotalPops;
constexpr unsigned CoordBits = 8;       ///< Points in [0, 256)^2.
constexpr unsigned LeafCells = 16;      ///< 4^2 cells at depth 2.
constexpr Word EmptySlot = 0xffffffffu;

// Queue items pack (pointIdx:8 | x:8 | y:8 | depth:4 | cell:4... ) — we
// store the point index and depth; coordinates live in a read-only array.
Word packItem(unsigned PointIdx, unsigned Depth) {
  return static_cast<Word>(PointIdx | (Depth << 16));
}
unsigned itemPoint(Word Item) { return Item & 0xffffu; }
unsigned itemDepth(Word Item) { return (Item >> 16) & 0xffu; }

/// The depth-2 leaf cell of a point: two levels of quadrant selection.
unsigned leafCellOf(Word X, Word Y) {
  const unsigned Qx1 = (X >> (CoordBits - 1)) & 1;
  const unsigned Qy1 = (Y >> (CoordBits - 1)) & 1;
  const unsigned Qx2 = (X >> (CoordBits - 2)) & 1;
  const unsigned Qy2 = (Y >> (CoordBits - 2)) & 1;
  return (((Qy1 << 1) | Qx1) << 2) | ((Qy2 << 1) | Qx2);
}

/// The kernel's buffers, allocated in this order by setup (on the device)
/// and by the lowering (replaying the allocator).
struct Buffers {
  Addr Xs = 0, Ys = 0, Buf = 0, Ready = 0, Head = 0, Tail = 0,
       LeafCounts = 0, ErrorFlag = 0;

  template <class Allocator> void allocate(Allocator &M) {
    Xs = M.alloc(NumPoints);
    Ys = M.alloc(NumPoints);
    Buf = M.alloc(QueueCap);
    Ready = M.alloc(QueueCap);
    Head = M.alloc(1);
    Tail = M.alloc(1);
    LeafCounts = M.alloc(LeafCells);
    ErrorFlag = M.alloc(1);
  }
};

/// A worker lane's registers: the window its step functions see.
enum WorkerReg : uint16_t {
  RH,      ///< The popped queue index.
  RReady,  ///< Its ready flag.
  RItem,   ///< Its payload.
  RPoint,  ///< itemPoint(Item).
  RDepth,  ///< itemDepth(Item).
  RNext,   ///< The item one level deeper.
  RX,      ///< The point's coordinates.
  RY,
  RLeaf,   ///< leafCellOf(X, Y).
  RSlot,   ///< The reserved push slot.
  NumWorkerRegs
};

void decodeItem(Word *W) {
  W[RPoint] = itemPoint(W[RItem]);
  W[RDepth] = itemDepth(W[RItem]);
  W[RNext] = packItem(W[RPoint], W[RDepth] + 1);
}

void leafCell(Word *W) { W[RLeaf] = leafCellOf(W[RX], W[RY]); }

class CtOctree final : public Application {
public:
  const char *name() const override { return "ct-octree"; }
  unsigned numSites() const override { return NumSites; }
  const char *siteName(unsigned Site) const override {
    return SiteNames[Site];
  }

  void setup(sim::Device &Dev, Rng &R) override {
    Buf.allocate(Dev);
    SetupWords = Dev.memory().allocatedWords();

    ExpectedLeafCounts.assign(LeafCells, 0);
    for (unsigned I = 0; I != NumPoints; ++I) {
      const Word X = static_cast<Word>(R.below(1u << CoordBits));
      const Word Y = static_cast<Word>(R.below(1u << CoordBits));
      Dev.write(Buf.Xs + I, X);
      Dev.write(Buf.Ys + I, Y);
      ++ExpectedLeafCounts[leafCellOf(X, Y)];
    }
    for (unsigned I = 0; I != QueueCap; ++I) {
      Dev.write(Buf.Buf + I, EmptySlot);
      Dev.write(Buf.Ready + I, 0);
    }
    // Seed the queue with all points at depth 0.
    for (unsigned I = 0; I != NumPoints; ++I) {
      Dev.write(Buf.Buf + I, packItem(I, 0));
      Dev.write(Buf.Ready + I, 1);
    }
    Dev.write(Buf.Tail, NumPoints);
  }

  bool run(sim::Device &Dev) override {
    return detail::runPlan(Dev, AppKind::CtOctree, SetupWords);
  }

  bool checkPostCondition(const sim::Device &Dev) const override {
    if (Dev.read(Buf.ErrorFlag) != 0)
      return false;
    for (unsigned C = 0; C != LeafCells; ++C)
      if (Dev.read(Buf.LeafCounts + C) != ExpectedLeafCounts[C])
        return false;
    return true;
  }

private:
  Buffers Buf;
  unsigned SetupWords = 0;
  std::vector<Word> ExpectedLeafCounts;
};

} // namespace

void apps::detail::emitCtOctree(PlanBuilder &B) {
  Buffers Buf;
  Buf.allocate(B);
  B.launch(GridDim, BlockDim);

  for (unsigned Tid = 0; Tid != GridDim * BlockDim; ++Tid) {
    B.beginLane(Tid);
    const uint16_t W = B.regs(NumWorkerRegs);

    // while (true): pop the next queue index; past the last pop, return.
    const uint32_t Loop = B.size();
    B.emitMem(Code::AtomicAddReg, sim::NoSite, W + RH, 0, Buf.Head, 1);
    const uint32_t Popped = B.emit(Code::BrLt, W + RH, 0, 0, TotalPops);
    const uint32_t Exit = B.emit(Code::Jump);
    B.patch(Popped, B.size());

    // Wait for the slot's payload to be published, backing off with
    // yield(2 + rand(3)) between polls.
    const uint32_t Poll = B.emitMem(Code::LoadIdx, SiteReadyLd, W + RReady,
                                    W + RH, Buf.Ready);
    const uint32_t IsReady = B.emit(Code::BrNe, W + RReady, 0, 0, 0);
    B.emit(Code::SleepRand, 0, 0, 2, 3);
    B.emit(Code::Jump, 0, 0, Poll);
    B.patch(IsReady, B.size());
    B.emitMem(Code::LoadIdx, SiteBufLd, W + RItem, W + RH, Buf.Buf);

    // A stale payload: the out-of-bounds queue access the post-condition
    // (and, on the original code, a crash) would surface.
    B.step(decodeItem, W, NumWorkerRegs);
    const uint32_t Stale = B.emit(Code::BrEq, W + RItem, 0, 0, EmptySlot);
    const uint32_t Valid = B.emit(Code::BrLt, W + RPoint, 0, 0, NumPoints);
    B.patch(Stale, B.size());
    B.emitMem(Code::Store, sim::NoSite, 0, 0, Buf.ErrorFlag, 1);
    B.emit(Code::Jump, 0, 0, Loop);
    B.patch(Valid, B.size());

    B.emitMem(Code::LoadIdx, sim::NoSite, W + RX, W + RPoint, Buf.Xs);
    B.emitMem(Code::LoadIdx, sim::NoSite, W + RY, W + RPoint, Buf.Ys);
    const uint32_t Deeper = B.emit(Code::BrLt, W + RDepth, 0, 0, MaxDepth);

    // Leaf level: deposit the particle in its final cell.
    B.step(leafCell, W, NumWorkerRegs);
    B.emitMem(Code::AtomicAddIdx, SiteLeafAdd, 0, W + RLeaf, Buf.LeafCounts,
              1);
    B.emit(Code::Jump, 0, 0, Loop);

    // Push one level deeper: reserve, publish payload, publish flag.
    B.patch(Deeper, B.size());
    B.emitMem(Code::AtomicAddReg, sim::NoSite, W + RSlot, 0, Buf.Tail, 1);
    const uint32_t Room = B.emit(Code::BrLt, W + RSlot, 0, 0, QueueCap);
    B.emitMem(Code::Store, sim::NoSite, 0, 0, Buf.ErrorFlag, 1);
    B.emit(Code::Jump, 0, 0, Loop);
    B.patch(Room, B.size());
    B.emitMem(Code::WbStoreIdx, SiteBufSt, W + RNext, W + RSlot, Buf.Buf);
    B.emitMem(Code::StoreIdx, SiteReadySt, 0, W + RSlot, Buf.Ready, 1);
    B.emit(Code::Jump, 0, 0, Loop);
    B.patch(Exit, B.size()); // Leaving the loop ends the lane.
    B.endLane();
  }
}

std::unique_ptr<Application> apps::detail::makeCtOctree() {
  return std::make_unique<CtOctree>();
}
