//===- apps/CubScan.cpp - CUB decoupled-lookback prefix scan ------------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// The single-pass "decoupled lookback" prefix scan of the CUB library:
// every block publishes its local aggregate, then walks backwards over its
// predecessors' status flags, summing published aggregates until it meets
// an inclusive prefix, and finally publishes its own inclusive prefix.
// Each publication is an MP-style handshake: a data store (aggregate or
// inclusive prefix) followed by a flag store. CUB places a __threadfence()
// between data and flag on both handshakes; removing them (cub-scan-nf)
// lets the flag overtake the buffered data store, so a consumer adds a
// stale aggregate and the scan is wrong.
//
// As in the paper, original cub-scan never errs and the empirical fence
// insertion on cub-scan-nf rediscovers exactly the two provided fences.
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
  SiteInLd = 0,   ///< input loads.
  SiteAggSt,      ///< store of the block aggregate (bug #1).
  SiteFlagAggSt,  ///< store of the AGGREGATE_READY flag.
  SiteFlagLd,     ///< lookback flag polls.
  SiteAggLd,      ///< lookback load of a predecessor aggregate.
  SiteInclLd,     ///< lookback load of a predecessor inclusive prefix.
  SiteInclSt,     ///< store of the inclusive prefix (bug #2).
  SiteFlagInclSt, ///< store of the INCLUSIVE_READY flag.
  SiteOutSt,      ///< output stores.
  NumSites
};

const char *const SiteNames[NumSites] = {
    "load in[i]",
    "store aggregate[block]",
    "store flag[block] = AGG",
    "lookback: load flag[j]",
    "lookback: load aggregate[j]",
    "lookback: load inclusive[j]",
    "store inclusive[block]",
    "store flag[block] = INCL",
    "store out[i]",
};

constexpr unsigned GridDim = 8;
constexpr unsigned BlockDim = 32;
constexpr unsigned N = GridDim * BlockDim;
constexpr Word FlagEmpty = 0, FlagAgg = 1, FlagIncl = 2;

/// The kernel's buffers, allocated in this order by setup (on the device)
/// and by the lowering (replaying the allocator).
struct Buffers {
  Addr In = 0, Cache = 0, Aggregates = 0, Inclusives = 0, Flags = 0,
       Exclusive = 0, Out = 0;

  template <class Allocator> void allocate(Allocator &M) {
    In = M.alloc(N);
    Cache = M.alloc(N);
    Aggregates = M.alloc(GridDim);
    Inclusives = M.alloc(GridDim);
    Flags = M.alloc(GridDim);
    Exclusive = M.alloc(GridDim);
    Out = M.alloc(N);
  }
};

class CubScan final : public Application {
public:
  explicit CubScan(AppKind K) : Kind(K) {}

  const char *name() const override { return "cub-scan"; }
  unsigned numSites() const override { return NumSites; }
  const char *siteName(unsigned Site) const override {
    return SiteNames[Site];
  }

  void setup(sim::Device &Dev, Rng &R) override {
    Buf.allocate(Dev);
    SetupWords = Dev.memory().allocatedWords();
    Expected.assign(N, 0);
    Word Running = 0;
    for (unsigned I = 0; I != N; ++I) {
      const Word V = static_cast<Word>(R.below(50));
      Dev.write(Buf.In + I, V);
      Running += V;
      Expected[I] = Running; // Inclusive scan.
    }
  }

  bool run(sim::Device &Dev) override {
    return detail::runPlan(Dev, Kind, SetupWords);
  }

  bool checkPostCondition(const sim::Device &Dev) const override {
    for (unsigned I = 0; I != N; ++I)
      if (Dev.read(Buf.Out + I) != Expected[I])
        return false;
    return true;
  }

private:
  AppKind Kind; ///< CubScan or CubScanNf: picks the plan.
  Buffers Buf;
  unsigned SetupWords = 0;
  std::vector<Word> Expected;
};

} // namespace

void apps::detail::emitCubScan(PlanBuilder &B, bool BuiltinFences) {
  Buffers Buf;
  Buf.allocate(B);
  B.launch(GridDim, BlockDim);

  for (unsigned Gid = 0; Gid != N; ++Gid) {
    const unsigned Block = Gid / BlockDim, ThreadIdx = Gid % BlockDim;
    const unsigned CacheBase = Block * BlockDim;
    B.beginLane(Gid);

    // Stage values in the shared-memory cache.
    const uint16_t RV = B.reg();
    B.emitMem(Code::Load, SiteInLd, RV, 0, Buf.In + Gid);
    B.emitMem(Code::WbStore, sim::NoSite, RV, 0,
              Buf.Cache + CacheBase + ThreadIdx);
    B.emit(Code::Barrier); // __syncthreads()

    if (ThreadIdx == 0) {
      // Leader: block-local inclusive scan in shared memory; the running
      // sum ends as the block aggregate.
      const uint16_t RRunning = B.reg();
      B.emit(Code::MovImm, RRunning);
      for (unsigned I = 0; I != BlockDim; ++I) {
        B.emitMem(Code::LoadAcc, sim::NoSite, RRunning, 0,
                  Buf.Cache + CacheBase + I);
        B.emitMem(Code::WbStore, sim::NoSite, RRunning, 0,
                  Buf.Cache + CacheBase + I);
      }

      // Handshake 1: publish the block aggregate.
      B.emitMem(Code::WbStore, SiteAggSt, RRunning, 0,
                Buf.Aggregates + Block);
      B.builtinFence(BuiltinFences); // CUB's first __threadfence().
      B.emitMem(Code::Store, SiteFlagAggSt, 0, 0, Buf.Flags + Block,
                FlagAgg);

      // Decoupled lookback for the exclusive prefix: for J = Block - 1
      // down to 0, poll flag[J] (yield(2) while empty); an inclusive
      // prefix ends the walk, an aggregate adds and steps back.
      const uint16_t RPrefix = B.reg();
      B.emit(Code::MovImm, RPrefix);
      if (Block != 0) {
        const uint16_t RJ = B.reg();
        const uint16_t RFlag = B.reg();
        B.emit(Code::MovImm, RJ, 0, 0, Block - 1);
        const uint32_t Poll = B.size();
        B.emitMem(Code::LoadIdx, SiteFlagLd, RFlag, RJ, Buf.Flags);
        const uint32_t Ready = B.emit(Code::BrNe, RFlag, 0, 0, FlagEmpty);
        B.emit(Code::Sleep, 0, 0, 0, 2);
        B.emit(Code::Jump, 0, 0, Poll);
        B.patch(Ready, B.size());
        const uint32_t Incl = B.emit(Code::BrEq, RFlag, 0, 0, FlagIncl);
        B.emitMem(Code::LoadAccIdx, SiteAggLd, RPrefix, RJ, Buf.Aggregates);
        const uint32_t Done = B.emit(Code::BrEq, RJ, 0, 0, 0);
        B.emit(Code::AddImm, RJ, RJ, 0, 0xffffffffu); // --J
        B.emit(Code::Jump, 0, 0, Poll);
        B.patch(Incl, B.size());
        B.emitMem(Code::LoadAccIdx, SiteInclLd, RPrefix, RJ, Buf.Inclusives);
        B.patch(Done, B.size());
      }

      // Handshake 2: publish the inclusive prefix.
      const uint16_t RInclusive = B.reg();
      B.emit(Code::AddRR, RInclusive, RPrefix, RRunning);
      B.emitMem(Code::WbStore, SiteInclSt, RInclusive, 0,
                Buf.Inclusives + Block);
      B.builtinFence(BuiltinFences); // CUB's second __threadfence().
      B.emitMem(Code::Store, SiteFlagInclSt, 0, 0, Buf.Flags + Block,
                FlagIncl);

      // Block-local broadcast slot.
      B.emitMem(Code::WbStore, sim::NoSite, RPrefix, 0,
                Buf.Exclusive + Block);
    }
    B.emit(Code::Barrier); // __syncthreads()

    // out[gid] = exclusive[block] + scanned[tid].
    const uint16_t ROut = B.reg();
    B.emitMem(Code::Load, sim::NoSite, ROut, 0, Buf.Exclusive + Block);
    B.emitMem(Code::LoadAcc, sim::NoSite, ROut, 0,
              Buf.Cache + CacheBase + ThreadIdx);
    B.emitMem(Code::WbStore, SiteOutSt, ROut, 0, Buf.Out + Gid);
    B.endLane();
  }
}

std::unique_ptr<Application> apps::detail::makeCubScan(AppKind K) {
  return std::make_unique<CubScan>(K);
}
