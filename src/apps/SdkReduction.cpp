//===- apps/SdkReduction.cpp - CUDA SDK threadFenceReduction ------------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// The single-pass reduction from the CUDA SDK samples
// (threadFenceReduction): every block reduces its slice and stores a
// partial sum; an atomic counter elects the last block to finish, which
// combines the partials. The original kernel places a __threadfence()
// between the partial-sum store and the counter increment — exactly the
// ordering a weak machine needs. The paper's sdk-red-nf variant removes
// that fence; the partial store can then still be buffered when the last
// block reads it, producing a wrong total.
//
// As in the paper, the original (fenced) sdk-red never exhibits errors;
// only the -nf variant does (Tab. 5).
//
//===----------------------------------------------------------------------===//

#include "apps/AppsInternal.h"

using namespace gpuwmm;
using namespace gpuwmm::apps;
using sim::Addr;
using sim::Word;
using Code = detail::PlanBuilder::Code;

namespace {

enum Site : int {
  SiteLoadInput = 0, ///< input loads.
  SitePartialSt,     ///< store of the block's partial sum (the bug).
  SiteCounterAdd,    ///< atomicAdd on the ticket counter.
  SitePartialLd,     ///< last block's loads of the partials.
  SiteOutSt,         ///< store of the final total.
  NumSites
};

const char *const SiteNames[NumSites] = {
    "load input[i]",
    "store partial[block]",
    "atomicAdd(ticket counter)",
    "last block: load partial[b]",
    "store out",
};

constexpr unsigned N = 256;
constexpr unsigned GridDim = 8;
constexpr unsigned BlockDim = 32;

/// The kernel's buffers, allocated in this order by setup (on the device)
/// and by the lowering (replaying the allocator).
struct Buffers {
  Addr In = 0, Cache = 0, Partials = 0, Counter = 0, Out = 0;

  template <class Allocator> void allocate(Allocator &M) {
    In = M.alloc(N);
    Cache = M.alloc(GridDim * BlockDim);
    Partials = M.alloc(GridDim);
    Counter = M.alloc(1);
    Out = M.alloc(1);
  }
};

class SdkReduction final : public Application {
public:
  explicit SdkReduction(AppKind K) : Kind(K) {}

  const char *name() const override { return "sdk-red"; }
  unsigned numSites() const override { return NumSites; }
  const char *siteName(unsigned Site) const override {
    return SiteNames[Site];
  }

  void setup(sim::Device &Dev, Rng &R) override {
    Buf.allocate(Dev);
    SetupWords = Dev.memory().allocatedWords();
    Expected = 0;
    for (unsigned I = 0; I != N; ++I) {
      const Word V = static_cast<Word>(R.below(100));
      Dev.write(Buf.In + I, V);
      Expected += V;
    }
  }

  bool run(sim::Device &Dev) override {
    return detail::runPlan(Dev, Kind, SetupWords);
  }

  bool checkPostCondition(const sim::Device &Dev) const override {
    return Dev.read(Buf.Out) == Expected;
  }

private:
  AppKind Kind; ///< SdkRed or SdkRedNf: picks the plan.
  Buffers Buf;
  unsigned SetupWords = 0;
  Word Expected = 0;
};

} // namespace

void apps::detail::emitSdkRed(PlanBuilder &B, bool BuiltinFences) {
  Buffers Buf;
  Buf.allocate(B);
  B.launch(GridDim, BlockDim);

  for (unsigned Tid = 0; Tid != GridDim * BlockDim; ++Tid) {
    const unsigned Block = Tid / BlockDim, ThreadIdx = Tid % BlockDim;
    const unsigned CacheBase = Block * BlockDim;
    B.beginLane(Tid);

    // Grid-stride slice sum (the stride is N: one element per thread),
    // then block reduction in shared-memory cache.
    const uint16_t RTemp = B.reg();
    B.emit(Code::MovImm, RTemp);
    B.emitMem(Code::LoadAcc, SiteLoadInput, RTemp, 0, Buf.In + Tid);
    B.emitMem(Code::WbStore, sim::NoSite, RTemp, 0,
              Buf.Cache + CacheBase + ThreadIdx);
    B.emit(Code::Barrier); // __syncthreads()
    if (ThreadIdx != 0) {
      B.endLane();
      continue;
    }

    const uint16_t RSum = B.reg();
    B.emit(Code::MovImm, RSum);
    for (unsigned I = 0; I != BlockDim; ++I)
      B.emitMem(Code::LoadAcc, sim::NoSite, RSum, 0,
                Buf.Cache + CacheBase + I);
    B.emitMem(Code::WbStore, SitePartialSt, RSum, 0, Buf.Partials + Block);

    // The SDK kernel's __threadfence() (removed in sdk-red-nf).
    B.builtinFence(BuiltinFences);

    // if (atomicAdd(counter, 1) != gridDim - 1) return;
    const uint16_t RTicket = B.reg();
    B.emitMem(Code::AtomicAddReg, SiteCounterAdd, RTicket, 0, Buf.Counter,
              1);
    const uint32_t NotLast = B.emit(Code::BrNe, RTicket, 0, 0, GridDim - 1);

    // Last block standing combines every partial.
    const uint16_t RTotal = B.reg();
    B.emit(Code::MovImm, RTotal);
    for (unsigned P = 0; P != GridDim; ++P)
      B.emitMem(Code::LoadAcc, SitePartialLd, RTotal, 0, Buf.Partials + P);
    B.emitMem(Code::WbStore, SiteOutSt, RTotal, 0, Buf.Out);
    B.patch(NotLast, B.size());
    B.endLane();
  }
}

std::unique_ptr<Application> apps::detail::makeSdkReduction(AppKind K) {
  return std::make_unique<SdkReduction>(K);
}
