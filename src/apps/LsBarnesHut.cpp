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
// The post-condition compares final positions against the sequentially
// consistent result of the fenced plan, the analogue of the paper's use
// of a conservatively fenced run as reference for ls-bh. setup computes
// it on the host: the bodies are inserted one at a time, centres of mass
// summed, forces traversed and positions integrated, through the
// kernels' own step functions. That equals the concurrent build's result
// exactly: all arithmetic is integer and the sums wrap, so their order
// does not matter, and child slots are indexed by quadrant, so the tree's
// shape and every traversal order depend only on the positions; the node
// numbering insertion order does change is read by no result. Where a
// guard of the plan would trip (node pool, descent or traversal budget,
// traversal stack; coincident bodies exhaust the pool), the host
// evaluation declines, and setup simulates the fenced plan sequentially
// on a private device instead and counts the fallback.
//
//===----------------------------------------------------------------------===//

#include "apps/AppsInternal.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <vector>

using namespace gpuwmm;
using namespace gpuwmm::apps;
using sim::Addr;
using sim::Word;
using Code = detail::PlanBuilder::Code;

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

constexpr unsigned NumBodies = detail::LsBhNumBodies;
constexpr unsigned GridDim = 2;
constexpr unsigned BlockDim = 16;
static_assert(GridDim * BlockDim == NumBodies,
              "the grid-stride body loops run once per thread");
constexpr unsigned MaxNodes = 128;
constexpr unsigned CoordBits = 14; ///< Space is [0, 2^14)^2 fixed-point.
constexpr Word CoordMask = (1u << CoordBits) - 1;
constexpr Word RootHalf = 1u << (CoordBits - 1);
constexpr unsigned BuildGuard = 512;  ///< Descent steps before giving up.
constexpr unsigned ForceGuard = 4096; ///< Traversal steps before giving up.
constexpr unsigned StackDepth = 64;   ///< The traversal stack.
constexpr unsigned StackLimit = 60;   ///< Deepest stack a step may start at.

// Child-slot encodings.
constexpr Word SlotEmpty = 0xffffffffu;
constexpr Word SlotLock = 0xfffffffeu;
constexpr Word BodyTagBit = 0x80000000u;

bool slotIsBody(Word S) { return (S & BodyTagBit) != 0 && S != SlotEmpty &&
                                 S != SlotLock; }
Word bodyTag(unsigned BodyIdx) { return BodyTagBit | BodyIdx; }
unsigned bodyOf(Word S) { return S & ~BodyTagBit; }

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

/// The app's buffers (node arrays struct-of-arrays), allocated in this
/// order by setup (on the device and on the SC reference device) and by
/// the lowering (replaying the allocator).
struct Buffers {
  Addr PosX = 0, PosY = 0, AccX = 0, AccY = 0;
  Addr Children = 0; ///< 4 slots per node.
  Addr CenterX = 0;  ///< Cell centre.
  Addr CenterY = 0;
  Addr Half = 0;     ///< Cell half-width.
  Addr Mass = 0;     ///< Filled by the summarise kernel.
  Addr ComX = 0;
  Addr ComY = 0;
  Addr NodeCount = 0; ///< Allocation bump counter.
  Addr ErrorFlag = 0;

  template <class Allocator> void allocate(Allocator &M) {
    PosX = M.alloc(NumBodies);
    PosY = M.alloc(NumBodies);
    AccX = M.alloc(NumBodies);
    AccY = M.alloc(NumBodies);
    Children = M.alloc(MaxNodes * 4);
    CenterX = M.alloc(MaxNodes);
    CenterY = M.alloc(MaxNodes);
    Half = M.alloc(MaxNodes);
    Mass = M.alloc(MaxNodes);
    ComX = M.alloc(MaxNodes);
    ComY = M.alloc(MaxNodes);
    NodeCount = M.alloc(1);
    ErrorFlag = M.alloc(1);
  }
};

//===----------------------------------------------------------------------===//
// Kernel 1: concurrent tree build
//===----------------------------------------------------------------------===//

/// A build lane's registers: the window its step functions see.
enum BuildReg : uint16_t {
  BX, BY,        ///< The body's position.
  BCur,          ///< The node being descended.
  BGuard,        ///< Descent steps taken.
  BCx, BCy, BHalf, ///< The node's geometry.
  BSlot,         ///< Cur * 4 + Q: the child slot's offset.
  BQ,            ///< Its quadrant.
  BC,            ///< The child slot's value.
  BPrev,         ///< CAS compare value, then the old word.
  BNew,          ///< The allocated node.
  BNewCx, BNewCy, BNewHalf, ///< Its geometry.
  BOld,          ///< The displaced body.
  BOldX, BOldY,  ///< Its position.
  BOldSlot,      ///< NewNode * 4 + its quadrant.
  NumBuildRegs
};

void buildQuadrant(Word *W) {
  W[BQ] = quadrantOf(W[BX], W[BY], W[BCx], W[BCy]);
  W[BSlot] = W[BCur] * 4 + W[BQ];
}

void buildNewCell(Word *W) {
  childCenter(W[BQ], W[BCx], W[BCy], W[BHalf], W[BNewCx], W[BNewCy]);
  W[BNewHalf] = W[BHalf] / 2;
}

void buildOldQuadrant(Word *W) {
  W[BOldSlot] =
      W[BNew] * 4 + quadrantOf(W[BOldX], W[BOldY], W[BNewCx], W[BNewCy]);
}

void emitBuild(detail::PlanBuilder &B, const Buffers &Buf,
               bool BuiltinFences) {
  B.launch(GridDim, BlockDim);
  for (unsigned Body = 0; Body != NumBodies; ++Body) {
    B.beginLane(Body);
    const uint16_t W = B.regs(NumBuildRegs);
    // Lanes that give up store the error flag and end; so does a guard
    // overflow, a garbage node pointer or an exhausted node pool.
    std::vector<uint32_t> ToError;
    B.emitMem(Code::Load, sim::NoSite, W + BX, 0, Buf.PosX + Body);
    B.emitMem(Code::Load, sim::NoSite, W + BY, 0, Buf.PosY + Body);
    B.emit(Code::MovImm, W + BCur, 0, 0, 0); // The root.
    B.emit(Code::MovImm, W + BGuard, 0, 0, 0);

    // while (!Done): a corrupt descent (e.g. through a half-initialised
    // node) gives up after BuildGuard steps.
    const uint32_t Loop = B.size();
    B.emit(Code::AddImm, W + BGuard, W + BGuard, 0, 1);
    const uint32_t InBudget =
        B.emit(Code::BrLt, W + BGuard, 0, 0, BuildGuard + 1);
    ToError.push_back(B.emit(Code::Jump));
    B.patch(InBudget, B.size());
    B.emitMem(Code::LoadIdx, SiteGeomLd, W + BCx, W + BCur, Buf.CenterX);
    B.emitMem(Code::LoadIdx, SiteGeomLd, W + BCy, W + BCur, Buf.CenterY);
    B.emitMem(Code::LoadIdx, SiteGeomLd, W + BHalf, W + BCur, Buf.Half);
    B.step(buildQuadrant, W, NumBuildRegs);
    B.emitMem(Code::LoadIdx, SiteChildLd, W + BC, W + BSlot, Buf.Children);

    // A locked slot: back off with yield(2 + rand(3)), then re-examine.
    const uint32_t NotLocked = B.emit(Code::BrNe, W + BC, 0, 0, SlotLock);
    B.emit(Code::SleepRand, 0, 0, 2, 3);
    B.emit(Code::Jump, 0, 0, Loop);
    B.patch(NotLocked, B.size());

    // An empty slot: CAS the body in; done on success, else re-examine.
    const uint32_t NotEmpty = B.emit(Code::BrNe, W + BC, 0, 0, SlotEmpty);
    B.emit(Code::MovImm, W + BPrev, 0, 0, SlotEmpty);
    B.emitMem(Code::AtomicCasIdx, SiteInsCAS, W + BPrev, W + BSlot,
              Buf.Children, bodyTag(Body));
    const uint32_t Inserted = B.emit(Code::BrEq, W + BPrev, 0, 0, SlotEmpty);
    B.emit(Code::Jump, 0, 0, Loop);
    B.patch(NotEmpty, B.size());

    // An internal node (no body tag): descend, unless the pointer is
    // garbage.
    const uint32_t IsNode = B.emit(Code::BrLt, W + BC, 0, 0, BodyTagBit);

    // Occupied by a body: split. Lock the slot first; a raced lock
    // re-examines the slot.
    B.emit(Code::AddImm, W + BPrev, W + BC, 0, 0);
    B.emitMem(Code::AtomicCasIdx, SiteLockCAS, W + BPrev, W + BSlot,
              Buf.Children, SlotLock);
    B.emit(Code::BrLtRR, W + BPrev, W + BC, Loop);
    B.emit(Code::BrLtRR, W + BC, W + BPrev, Loop);
    B.emitMem(Code::AtomicAddReg, sim::NoSite, W + BNew, 0, Buf.NodeCount,
              1);
    const uint32_t HaveNode = B.emit(Code::BrLt, W + BNew, 0, 0, MaxNodes);
    ToError.push_back(B.emit(Code::Jump));
    B.patch(HaveNode, B.size());

    // Initialise the fresh node.
    B.step(buildNewCell, W, NumBuildRegs);
    B.emitMem(Code::WbStoreIdx, SiteNewChildSt, W + BNewCx, W + BNew,
              Buf.CenterX);
    B.emitMem(Code::WbStoreIdx, SiteNewChildSt, W + BNewCy, W + BNew,
              Buf.CenterY);
    B.emitMem(Code::WbStoreIdx, SiteNewChildSt, W + BNewHalf, W + BNew,
              Buf.Half);
    B.emit(Code::MulImm, W + BOldSlot, W + BNew, 0, 4);
    for (unsigned I = 0; I != 4; ++I)
      B.emitMem(Code::StoreIdx, SiteNewChildSt, 0, W + BOldSlot,
                Buf.Children + I, SlotEmpty);

    // The original code fences here — covering the initialisation stores
    // but NOT the displaced-body placement below, which is why ls-bh's
    // provided fences are insufficient (paper Sec. 4.3).
    B.builtinFence(BuiltinFences);

    // Re-seat the displaced body in the new node.
    B.emit(Code::AndImm, W + BOld, W + BC, 0, ~BodyTagBit);
    B.emitMem(Code::LoadIdx, sim::NoSite, W + BOldX, W + BOld, Buf.PosX);
    B.emitMem(Code::LoadIdx, sim::NoSite, W + BOldY, W + BOld, Buf.PosY);
    B.step(buildOldQuadrant, W, NumBuildRegs);
    B.emitMem(Code::WbStoreIdx, SiteOldBodySt, W + BC, W + BOldSlot,
              Buf.Children);

    // Publish the new node (unlocks the slot). A plain store: the release
    // ordering is exactly what weak memory breaks. Then re-descend to
    // place our own body (now into NewNode).
    B.emitMem(Code::WbStoreIdx, SitePublishSt, W + BNew, W + BSlot,
              Buf.Children);
    B.emit(Code::Jump, 0, 0, Loop);

    B.patch(IsNode, B.size());
    const uint32_t Descend = B.emit(Code::BrLt, W + BC, 0, 0, MaxNodes);
    ToError.push_back(B.emit(Code::Jump)); // A garbage pointer.
    B.patch(Descend, B.size());
    B.emit(Code::AddImm, W + BCur, W + BC, 0, 0);
    B.emit(Code::Jump, 0, 0, Loop);

    for (const uint32_t J : ToError)
      B.patch(J, B.size());
    B.emitMem(Code::Store, sim::NoSite, 0, 0, Buf.ErrorFlag, 1);
    B.patch(Inserted, B.size());
    B.endLane();
  }
}

//===----------------------------------------------------------------------===//
// Kernel 2: centre-of-mass summarisation (single leader thread; the
// kernel boundary has already synchronised the tree).
//===----------------------------------------------------------------------===//

/// The leader's registers.
enum SumReg : uint16_t {
  SI,    ///< The node being summarised.
  SI4,   ///< I * 4.
  SC,    ///< A child slot's value.
  SB,    ///< The body it holds.
  SMass, ///< The node's mass and coordinate sums.
  SX,
  SY,
  NumSumRegs
};

void emitSummarise(detail::PlanBuilder &B, const Buffers &Buf) {
  B.launch(1, 1);
  B.beginLane(0);
  const uint16_t W = B.regs(NumSumRegs);

  // A failed build can leave NodeCount past the node arrays (every
  // inserter that overflows still bumps it) and garbage in child slots,
  // so the walk is bounded like the force kernel's: at most MaxNodes
  // nodes, child nodes below MaxNodes, bodies below NumBodies.
  B.emitMem(Code::Load, sim::NoSite, W + SI, 0, Buf.NodeCount);
  const uint32_t InRange = B.emit(Code::BrLt, W + SI, 0, 0, MaxNodes + 1);
  B.emit(Code::MovImm, W + SI, 0, 0, MaxNodes);
  B.patch(InRange, B.size());

  // Children always have higher indices than their parents, so one
  // reverse pass computes all centres of mass bottom-up. Exact coordinate
  // SUMS are stored (division happens at use in the force kernel), so the
  // results are independent of the racy-but-unique tree construction
  // order: a PR quadtree's shape, and hence every node's body set,
  // depends only on the body positions.
  const uint32_t Loop = B.emit(Code::BrEq, W + SI, 0, 0, 0);
  B.emit(Code::AddImm, W + SI, W + SI, 0, 0xffffffffu);
  B.emit(Code::MulImm, W + SI4, W + SI, 0, 4);
  B.emit(Code::MovImm, W + SMass, 0, 0, 0);
  B.emit(Code::MovImm, W + SX, 0, 0, 0);
  B.emit(Code::MovImm, W + SY, 0, 0, 0);
  for (unsigned Q = 0; Q != 4; ++Q) {
    std::vector<uint32_t> ToNext;
    B.emitMem(Code::LoadIdx, SiteSumLd, W + SC, W + SI4, Buf.Children + Q);
    ToNext.push_back(B.emit(Code::BrEq, W + SC, 0, 0, SlotEmpty));
    ToNext.push_back(B.emit(Code::BrEq, W + SC, 0, 0, SlotLock));
    const uint32_t IsNode = B.emit(Code::BrLt, W + SC, 0, 0, BodyTagBit);
    B.emit(Code::AndImm, W + SB, W + SC, 0, ~BodyTagBit);
    const uint32_t BodyOk = B.emit(Code::BrLt, W + SB, 0, 0, NumBodies);
    ToNext.push_back(B.emit(Code::Jump));
    B.patch(BodyOk, B.size());
    B.emit(Code::AddImm, W + SMass, W + SMass, 0, 1);
    B.emitMem(Code::LoadAccIdx, SiteSumLd, W + SX, W + SB, Buf.PosX);
    B.emitMem(Code::LoadAccIdx, SiteSumLd, W + SY, W + SB, Buf.PosY);
    ToNext.push_back(B.emit(Code::Jump));
    B.patch(IsNode, B.size());
    const uint32_t NodeOk = B.emit(Code::BrLt, W + SC, 0, 0, MaxNodes);
    ToNext.push_back(B.emit(Code::Jump));
    B.patch(NodeOk, B.size());
    B.emitMem(Code::LoadAccIdx, SiteSumLd, W + SMass, W + SC, Buf.Mass);
    B.emitMem(Code::LoadAccIdx, SiteSumLd, W + SX, W + SC, Buf.ComX);
    B.emitMem(Code::LoadAccIdx, SiteSumLd, W + SY, W + SC, Buf.ComY);
    for (const uint32_t J : ToNext)
      B.patch(J, B.size());
  }
  B.emitMem(Code::WbStoreIdx, SiteComSt, W + SMass, W + SI, Buf.Mass);
  B.emitMem(Code::WbStoreIdx, SiteComSt, W + SX, W + SI, Buf.ComX);
  B.emitMem(Code::WbStoreIdx, SiteComSt, W + SY, W + SI, Buf.ComY);
  B.emit(Code::Jump, 0, 0, Loop);
  B.patch(Loop, B.size());
  B.endLane();
}

//===----------------------------------------------------------------------===//
// Kernel 3: force computation (read-only traversal)
//===----------------------------------------------------------------------===//

/// A force lane's registers: the window its step functions see, ending
/// in the traversal stack.
enum ForceReg : uint16_t {
  FBody,         ///< The lane's body.
  FX, FY,        ///< Its position.
  FAx, FAy,      ///< The accumulated acceleration.
  FTop,          ///< Stack entries in use.
  FGuard,        ///< Traversal steps taken.
  FFlag,         ///< A step's verdict for the next branch.
  FNode, FNode4, ///< The popped node, and Node * 4.
  FMass, FComX, FComY, FHalf, ///< Its summary and size.
  FC,            ///< A child slot's value.
  FB,            ///< The body it holds.
  FBx, FBy,      ///< That body's position.
  FStack,        ///< StackDepth entries.
  NumForceRegs = FStack + StackDepth
};

/// One traversal step: give up (Flag) past ForceGuard steps or near a
/// full stack, else pop the next node.
void forcePop(Word *W) {
  W[FFlag] = ++W[FGuard] > ForceGuard || W[FTop] >= StackLimit;
  if (W[FFlag])
    return;
  W[FNode] = W[FStack + --W[FTop]];
  W[FNode4] = W[FNode] * 4;
}

/// The opening test with theta = 1/2: Flag if the cell must be opened,
/// else the cell's centre of mass approximates it.
void forceCell(Word *W) {
  const Word Mass = W[FMass];
  // COM fields hold exact coordinate sums; divide at use.
  const Word Cmx = W[FComX] / Mass;
  const Word Cmy = W[FComY] / Mass;
  const Word Half = W[FHalf];
  const int64_t Dx = static_cast<int64_t>(Cmx) - W[FX];
  const int64_t Dy = static_cast<int64_t>(Cmy) - W[FY];
  const int64_t Dist2 = Dx * Dx + Dy * Dy + 1;
  const int64_t Size2 = 4 * static_cast<int64_t>(Half) * Half;
  // Open the cell when (s/d)^2 >= theta^2.
  W[FFlag] = Size2 * 4 >= Dist2;
  if (W[FFlag])
    return;
  W[FAx] = static_cast<Word>(W[FAx] + Mass * ((Dx << 12) / Dist2));
  W[FAy] = static_cast<Word>(W[FAy] + Mass * ((Dy << 12) / Dist2));
}

/// An opened cell's child: Flag for another body (its position is loaded
/// next), push an internal node, skip the rest.
void forceChild(Word *W) {
  const Word C = W[FC];
  W[FFlag] = 0;
  if (C == SlotEmpty || C == SlotLock)
    return;
  if (slotIsBody(C)) {
    W[FB] = bodyOf(C);
    W[FFlag] = W[FB] != W[FBody];
  } else if (C < MaxNodes) {
    // forcePop's StackLimit leaves room for all four children.
    GPUWMM_CHECK(W[FTop] < StackDepth, "ls-bh traversal stack overflow");
    W[FStack + W[FTop]++] = C;
  }
}

/// A body's direct contribution.
void forceBody(Word *W) {
  const int64_t Ddx = static_cast<int64_t>(W[FBx]) - W[FX];
  const int64_t Ddy = static_cast<int64_t>(W[FBy]) - W[FY];
  const int64_t D2 = Ddx * Ddx + Ddy * Ddy + 1;
  W[FAx] = static_cast<Word>(W[FAx] + ((Ddx << 12) / D2));
  W[FAy] = static_cast<Word>(W[FAy] + ((Ddy << 12) / D2));
}

void emitForce(detail::PlanBuilder &B, const Buffers &Buf) {
  B.launch(GridDim, BlockDim);
  for (unsigned Body = 0; Body != NumBodies; ++Body) {
    B.beginLane(Body);
    const uint16_t W = B.regs(NumForceRegs);
    B.emit(Code::MovImm, W + FBody, 0, 0, Body);
    B.emitMem(Code::Load, sim::NoSite, W + FX, 0, Buf.PosX + Body);
    B.emitMem(Code::Load, sim::NoSite, W + FY, 0, Buf.PosY + Body);

    // Explicit-stack traversal from the root.
    B.emit(Code::MovImm, W + FAx, 0, 0, 0);
    B.emit(Code::MovImm, W + FAy, 0, 0, 0);
    B.emit(Code::MovImm, W + FGuard, 0, 0, 0);
    B.emit(Code::MovImm, W + FStack, 0, 0, 0);
    B.emit(Code::MovImm, W + FTop, 0, 0, 1);
    const uint32_t Loop = B.emit(Code::BrEq, W + FTop, 0, 0, 0);
    B.step(forcePop, W, NumForceRegs);
    const uint32_t Visit = B.emit(Code::BrEq, W + FFlag, 0, 0, 0);
    B.emitMem(Code::Store, sim::NoSite, 0, 0, Buf.ErrorFlag, 1);
    const uint32_t GiveUp = B.emit(Code::Jump);
    B.patch(Visit, B.size());

    B.emitMem(Code::LoadIdx, SiteForceLd, W + FMass, W + FNode, Buf.Mass);
    B.emit(Code::BrEq, W + FMass, 0, Loop, 0);
    B.emitMem(Code::LoadIdx, SiteForceLd, W + FComX, W + FNode, Buf.ComX);
    B.emitMem(Code::LoadIdx, SiteForceLd, W + FComY, W + FNode, Buf.ComY);
    B.emitMem(Code::LoadIdx, SiteForceLd, W + FHalf, W + FNode, Buf.Half);
    B.step(forceCell, W, NumForceRegs);
    B.emit(Code::BrEq, W + FFlag, 0, Loop, 0);
    for (unsigned Q = 0; Q != 4; ++Q) {
      B.emitMem(Code::LoadIdx, SiteForceLd, W + FC, W + FNode4,
                Buf.Children + Q);
      B.step(forceChild, W, NumForceRegs);
      const uint32_t Skip = B.emit(Code::BrEq, W + FFlag, 0, 0, 0);
      B.emitMem(Code::LoadIdx, SiteForceLd, W + FBx, W + FB, Buf.PosX);
      B.emitMem(Code::LoadIdx, SiteForceLd, W + FBy, W + FB, Buf.PosY);
      B.step(forceBody, W, NumForceRegs);
      B.patch(Skip, B.size());
    }
    B.emit(Code::Jump, 0, 0, Loop);

    B.patch(Loop, B.size());
    B.patch(GiveUp, B.size());
    B.emitMem(Code::WbStore, SiteAccSt, W + FAx, 0, Buf.AccX + Body);
    B.emitMem(Code::WbStore, SiteAccSt, W + FAy, 0, Buf.AccY + Body);
    B.endLane();
  }
}

//===----------------------------------------------------------------------===//
// Kernel 4: integration
//===----------------------------------------------------------------------===//

enum IntegrateReg : uint16_t { IX, IY, IAx, IAy, NumIntegrateRegs };

void integrateStep(Word *W) {
  W[IX] = (W[IX] + (W[IAx] >> 6)) & CoordMask;
  W[IY] = (W[IY] + (W[IAy] >> 6)) & CoordMask;
}

void emitIntegrate(detail::PlanBuilder &B, const Buffers &Buf) {
  B.launch(GridDim, BlockDim);
  for (unsigned Body = 0; Body != NumBodies; ++Body) {
    B.beginLane(Body);
    const uint16_t W = B.regs(NumIntegrateRegs);
    B.emitMem(Code::Load, sim::NoSite, W + IX, 0, Buf.PosX + Body);
    B.emitMem(Code::Load, sim::NoSite, W + IY, 0, Buf.PosY + Body);
    B.emitMem(Code::Load, sim::NoSite, W + IAx, 0, Buf.AccX + Body);
    B.emitMem(Code::Load, sim::NoSite, W + IAy, 0, Buf.AccY + Body);
    B.step(integrateStep, W, NumIntegrateRegs);
    B.emitMem(Code::WbStore, SitePosSt, W + IX, 0, Buf.PosX + Body);
    B.emitMem(Code::WbStore, SitePosSt, W + IY, 0, Buf.PosY + Body);
    B.endLane();
  }
}

//===----------------------------------------------------------------------===//
// Initial state and the SC reference
//===----------------------------------------------------------------------===//

/// Allocates the buffers on the fresh device \p Dev into \p Buf (every
/// fresh device yields the same layout) and writes the initial state for
/// bodies at (\p X, \p Y); returns the allocated words.
unsigned initialise(sim::Device &Dev, Buffers &Buf, const std::vector<Word> &X,
                    const std::vector<Word> &Y) {
  Buf.allocate(Dev);
  for (unsigned I = 0; I != NumBodies; ++I) {
    Dev.write(Buf.PosX + I, X[I]);
    Dev.write(Buf.PosY + I, Y[I]);
  }
  for (unsigned I = 0; I != MaxNodes * 4; ++I)
    Dev.write(Buf.Children + I, SlotEmpty);
  // Root cell covers the whole space.
  Dev.write(Buf.CenterX, RootHalf);
  Dev.write(Buf.CenterY, RootHalf);
  Dev.write(Buf.Half, RootHalf);
  Dev.write(Buf.NodeCount, 1);
  return Dev.memory().allocatedWords();
}

/// The node arrays of Buffers, on the host.
struct HostTree {
  Word Children[MaxNodes * 4];
  Word CenterX[MaxNodes], CenterY[MaxNodes], Half[MaxNodes];
  Word Mass[MaxNodes], ComX[MaxNodes], ComY[MaxNodes];
  unsigned NodeCount = 1;
};

/// Kernel 1 on the host: inserts the bodies one at a time with the build
/// lane's descent and split, through its step functions. Inserting in
/// body order yields the concurrent build's tree up to node numbering (a
/// PR quadtree's shape depends only on the positions). False if the node
/// pool or the descent budget runs out.
bool hostBuild(HostTree &T, const std::vector<Word> &X,
               const std::vector<Word> &Y) {
  std::fill(std::begin(T.Children), std::end(T.Children), SlotEmpty);
  T.CenterX[0] = T.CenterY[0] = T.Half[0] = RootHalf;
  T.NodeCount = 1;
  for (unsigned Body = 0; Body != NumBodies; ++Body) {
    Word W[NumBuildRegs] = {};
    W[BX] = X[Body];
    W[BY] = Y[Body];
    for (;;) {
      if (++W[BGuard] > BuildGuard)
        return false;
      W[BCx] = T.CenterX[W[BCur]];
      W[BCy] = T.CenterY[W[BCur]];
      W[BHalf] = T.Half[W[BCur]];
      buildQuadrant(W);
      W[BC] = T.Children[W[BSlot]];
      if (W[BC] == SlotEmpty) {
        T.Children[W[BSlot]] = bodyTag(Body);
        break;
      }
      if (W[BC] < BodyTagBit) { // An internal node: descend.
        W[BCur] = W[BC];
        continue;
      }
      // A body: split its leaf, then re-examine the slot.
      W[BNew] = T.NodeCount++;
      if (W[BNew] >= MaxNodes)
        return false;
      buildNewCell(W);
      T.CenterX[W[BNew]] = W[BNewCx];
      T.CenterY[W[BNew]] = W[BNewCy];
      T.Half[W[BNew]] = W[BNewHalf];
      W[BOld] = bodyOf(W[BC]);
      W[BOldX] = X[W[BOld]];
      W[BOldY] = Y[W[BOld]];
      buildOldQuadrant(W);
      T.Children[W[BOldSlot]] = W[BC];
      T.Children[W[BSlot]] = W[BNew];
    }
  }
  return true;
}

/// Kernel 2 on the host: the leader's reverse pass, with the same
/// wrapping sums.
void hostSummarise(HostTree &T, const std::vector<Word> &X,
                   const std::vector<Word> &Y) {
  for (unsigned I = T.NodeCount; I-- != 0;) {
    Word Mass = 0, SumX = 0, SumY = 0;
    for (unsigned Q = 0; Q != 4; ++Q) {
      const Word C = T.Children[I * 4 + Q];
      if (slotIsBody(C)) {
        ++Mass;
        SumX += X[bodyOf(C)];
        SumY += Y[bodyOf(C)];
      } else if (C < BodyTagBit) {
        Mass += T.Mass[C];
        SumX += T.ComX[C];
        SumY += T.ComY[C];
      }
    }
    T.Mass[I] = Mass;
    T.ComX[I] = SumX;
    T.ComY[I] = SumY;
  }
}

/// Kernel 3 on the host for one body: the force lane's traversal through
/// its step functions. False if the traversal budget or stack runs out.
bool hostForce(const HostTree &T, const std::vector<Word> &X,
               const std::vector<Word> &Y, unsigned Body, Word &Ax,
               Word &Ay) {
  Word W[NumForceRegs] = {};
  W[FBody] = Body;
  W[FX] = X[Body];
  W[FY] = Y[Body];
  W[FStack] = 0; // The root.
  W[FTop] = 1;
  while (W[FTop] != 0) {
    forcePop(W);
    if (W[FFlag])
      return false;
    W[FMass] = T.Mass[W[FNode]];
    if (W[FMass] == 0)
      continue;
    W[FComX] = T.ComX[W[FNode]];
    W[FComY] = T.ComY[W[FNode]];
    W[FHalf] = T.Half[W[FNode]];
    forceCell(W);
    if (!W[FFlag])
      continue;
    for (unsigned Q = 0; Q != 4; ++Q) {
      W[FC] = T.Children[W[FNode4] + Q];
      forceChild(W);
      if (!W[FFlag])
        continue;
      W[FBx] = X[W[FB]];
      W[FBy] = Y[W[FB]];
      forceBody(W);
    }
  }
  Ax = W[FAx];
  Ay = W[FAy];
  return true;
}

/// References that fell back to the plan.
std::atomic<uint64_t> ReferenceFallbacks{0};

} // namespace

bool apps::detail::lsBhHostReference(const std::vector<Word> &X,
                                     const std::vector<Word> &Y,
                                     std::vector<Word> &OutX,
                                     std::vector<Word> &OutY) {
  HostTree T = {};
  if (!hostBuild(T, X, Y))
    return false;
  hostSummarise(T, X, Y);
  OutX.resize(NumBodies);
  OutY.resize(NumBodies);
  // Forces read the initial positions, so integrate after all of them
  // (kernel 4, through its step function).
  Word Acc[NumBodies][2] = {};
  for (unsigned I = 0; I != NumBodies; ++I)
    if (!hostForce(T, X, Y, I, Acc[I][0], Acc[I][1]))
      return false;
  for (unsigned I = 0; I != NumBodies; ++I) {
    Word W[NumIntegrateRegs] = {X[I], Y[I], Acc[I][0], Acc[I][1]};
    integrateStep(W);
    OutX[I] = W[IX];
    OutY[I] = W[IY];
  }
  return true;
}

void apps::detail::lsBhPlanReference(const sim::ChipProfile &Chip,
                                     const std::vector<Word> &X,
                                     const std::vector<Word> &Y,
                                     std::vector<Word> &OutX,
                                     std::vector<Word> &OutY) {
  // A sequentially consistent execution of the fenced plan on a private
  // device (the analogue of the paper's conservatively fenced reference
  // run).
  sim::Device Ref(Chip, /*Seed=*/1);
  Ref.setSequentialMode(true);
  Buffers Buf;
  (void)detail::runPlan(Ref, AppKind::LsBh, initialise(Ref, Buf, X, Y));
  OutX.resize(NumBodies);
  OutY.resize(NumBodies);
  for (unsigned I = 0; I != NumBodies; ++I) {
    OutX[I] = Ref.read(Buf.PosX + I);
    OutY[I] = Ref.read(Buf.PosY + I);
  }
}

void apps::detail::lsBhReference(const sim::ChipProfile &Chip,
                                 const std::vector<Word> &X,
                                 const std::vector<Word> &Y,
                                 std::vector<Word> &OutX,
                                 std::vector<Word> &OutY) {
  if (lsBhHostReference(X, Y, OutX, OutY))
    return;
  ReferenceFallbacks.fetch_add(1, std::memory_order_relaxed);
  lsBhPlanReference(Chip, X, Y, OutX, OutY);
}

uint64_t apps::detail::lsBhReferenceFallbacks() {
  return ReferenceFallbacks.load(std::memory_order_relaxed);
}

namespace {

//===----------------------------------------------------------------------===//
// The application
//===----------------------------------------------------------------------===//

class LsBarnesHut final : public Application {
public:
  explicit LsBarnesHut(AppKind K) : Kind(K) {}

  const char *name() const override { return "ls-bh"; }
  unsigned numSites() const override { return NumSites; }
  const char *siteName(unsigned Site) const override {
    return SiteNames[Site];
  }
  uint64_t maxTicks() const override { return 120000; }

  void setup(sim::Device &Dev, Rng &R) override {
    InitialX.resize(NumBodies);
    InitialY.resize(NumBodies);
    for (unsigned I = 0; I != NumBodies; ++I) {
      InitialX[I] = static_cast<Word>(R.below(1u << CoordBits));
      InitialY[I] = static_cast<Word>(R.below(1u << CoordBits));
    }
    SetupWords = initialise(Dev, Buf, InitialX, InitialY);

    detail::lsBhReference(Dev.chip(), InitialX, InitialY, RefX, RefY);
  }

  bool run(sim::Device &Dev) override {
    return detail::runPlan(Dev, Kind, SetupWords);
  }

  bool checkPostCondition(const sim::Device &Dev) const override {
    if (Dev.read(Buf.ErrorFlag) != 0)
      return false;
    for (unsigned I = 0; I != NumBodies; ++I)
      if (Dev.read(Buf.PosX + I) != RefX[I] ||
          Dev.read(Buf.PosY + I) != RefY[I])
        return false;
    return true;
  }

private:
  AppKind Kind; ///< LsBh or LsBhNf: picks the plan.
  Buffers Buf;
  unsigned SetupWords = 0;
  std::vector<Word> InitialX, InitialY, RefX, RefY;
};

} // namespace

void apps::detail::emitLsBh(PlanBuilder &B, bool BuiltinFences) {
  Buffers Buf;
  Buf.allocate(B);
  emitBuild(B, Buf, BuiltinFences);
  emitSummarise(B, Buf);
  emitForce(B, Buf);
  emitIntegrate(B, Buf);
}

std::unique_ptr<Application> apps::detail::makeLsBarnesHut(AppKind K) {
  return std::make_unique<LsBarnesHut>(K);
}
