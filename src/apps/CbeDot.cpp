//===- apps/CbeDot.cpp - CUDA-by-Example dot product --------------------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// The paper's running example (Fig. 1), extracted from the dot product of
// the book CUDA by Example [45, ch. A1.2]: each block reduces its partial
// products in (shared) cache memory, then block leaders accumulate into a
// single global cell *c under a custom spinlock. Correctness depends on
// the store to *c draining before the unlock becomes visible; on a weak
// machine the unlock (an atomic, L2-direct) can overtake the buffered
// store, and the next lock holder reads a stale *c — a lost update.
//
// Integer arithmetic replaces the book's floats so the reference result is
// exact.
//
//===----------------------------------------------------------------------===//

#include "apps/AppsInternal.h"

using namespace gpuwmm;
using namespace gpuwmm::apps;
using sim::Addr;
using sim::Word;
using Code = detail::PlanBuilder::Code;

namespace {

/// Fence-insertion sites (every global access in the dot kernel; the
/// block-local cache models shared memory and is exempt, as in CUDA).
enum Site : int {
  SiteLoadInput = 0, ///< a[tid] / b[tid] loads.
  SiteLockCAS,       ///< atomicCAS in lock().
  SiteLoadC,         ///< load of *c in the critical section.
  SiteStoreC,        ///< store of *c in the critical section (the bug).
  SiteUnlockExch,    ///< atomicExch in unlock().
  NumSites
};

const char *const SiteNames[NumSites] = {
    "load a[i]/b[i]",
    "lock: atomicCAS(mutex)",
    "critical: load *c",
    "critical: store *c",
    "unlock: atomicExch(mutex)",
};

constexpr unsigned N = 256;
constexpr unsigned GridDim = 4;
constexpr unsigned BlockDim = 32;

/// The kernel's buffers, allocated in this order by setup (on the device)
/// and by the lowering (replaying the allocator).
struct Buffers {
  Addr A = 0, B = 0, Cache = 0, Mutex = 0, C = 0;

  template <class Allocator> void allocate(Allocator &M) {
    A = M.alloc(N);
    B = M.alloc(N);
    Cache = M.alloc(GridDim * BlockDim);
    Mutex = M.alloc(1);
    C = M.alloc(1);
  }
};

class CbeDot final : public Application {
public:
  const char *name() const override { return "cbe-dot"; }
  unsigned numSites() const override { return NumSites; }
  const char *siteName(unsigned Site) const override {
    return SiteNames[Site];
  }

  void setup(sim::Device &Dev, Rng &R) override {
    Buf.allocate(Dev);
    SetupWords = Dev.memory().allocatedWords();
    Expected = 0;
    for (unsigned I = 0; I != N; ++I) {
      const Word Av = static_cast<Word>(R.below(8));
      const Word Bv = static_cast<Word>(R.below(8));
      Dev.write(Buf.A + I, Av);
      Dev.write(Buf.B + I, Bv);
      Expected += Av * Bv;
    }
  }

  bool run(sim::Device &Dev) override {
    return detail::runPlan(Dev, AppKind::CbeDot, SetupWords);
  }

  bool checkPostCondition(const sim::Device &Dev) const override {
    return Dev.read(Buf.C) == Expected;
  }

private:
  Buffers Buf;
  unsigned SetupWords = 0;
  Word Expected = 0;
};

} // namespace

void apps::detail::emitCbeDot(PlanBuilder &B) {
  Buffers Buf;
  Buf.allocate(B);
  B.launch(GridDim, BlockDim);
  const unsigned Stride = GridDim * BlockDim; // 128: two iterations.

  for (unsigned Tid = 0; Tid != GridDim * BlockDim; ++Tid) {
    const unsigned CacheBase = Tid / BlockDim * BlockDim;
    const unsigned CacheIndex = Tid % BlockDim;
    B.beginLane(Tid);

    // Grid-stride partial products: Temp += a[i] * b[i]. The
    // multiply-accumulate folds into the b-load.
    const uint16_t RA = B.reg();
    const uint16_t RTemp = B.reg();
    B.emit(Code::MovImm, RTemp);
    for (unsigned I = Tid; I < N; I += Stride) {
      B.emitMem(Code::Load, SiteLoadInput, RA, 0, Buf.A + I);
      B.emitMem(Code::LoadMulAcc, SiteLoadInput, RTemp, RA, Buf.B + I);
    }

    // Block-local reduction through the (shared-memory) cache.
    B.emitMem(Code::WbStore, sim::NoSite, RTemp, 0, Buf.Cache + Tid);
    B.emit(Code::Barrier); // __syncthreads()
    if (CacheIndex != 0) {
      B.endLane();
      continue;
    }
    const uint16_t RSum = B.reg();
    B.emit(Code::MovImm, RSum);
    for (unsigned I = 0; I != BlockDim; ++I)
      B.emitMem(Code::LoadAcc, sim::NoSite, RSum, 0,
                Buf.Cache + CacheBase + I);

    // lock(mutex); *c += blockSum; unlock(mutex);  (Fig. 1, lines 13-16)
    B.spinLock(SiteLockCAS, B.reg(), Buf.Mutex);
    const uint16_t ROld = B.reg();
    const uint16_t RNew = B.reg();
    B.emitMem(Code::Load, SiteLoadC, ROld, 0, Buf.C);
    B.emit(Code::AddRR, RNew, ROld, RSum);
    B.emitMem(Code::WbStore, SiteStoreC, RNew, 0, Buf.C);
    B.emitMem(Code::AtomicExch, SiteUnlockExch, 0, 0, Buf.Mutex, 0);
    B.endLane();
  }
}

std::unique_ptr<Application> apps::detail::makeCbeDot() {
  return std::make_unique<CbeDot>();
}
