//===- apps/CbeHashtable.cpp - CUDA-by-Example hashtable ----------------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// The concurrent hashtable of CUDA by Example [45, ch. A1.3]: threads
// insert key entries into per-bucket linked lists, each bucket protected by
// a custom spinlock. The post-condition (Tab. 4) checks that every
// inserted element is present in the final table exactly once.
//
// Weak-memory defect: the store publishing the new list head is a plain
// store that can stay buffered past the atomic unlock. The next inserter
// then links its node to the stale head, and whichever head-store drains
// last orphans the other chain — an element disappears.
//
// This is the paper's most provocable application: its many lock
// hand-offs per run make it the only case study to exhibit native errors
// (on the GTX 770) and the only one most of the weaker stressing
// strategies can expose (Tab. 5).
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
  SiteLockCAS = 0,  ///< atomicCAS acquiring the bucket lock.
  SiteHeadLd,       ///< load of the bucket's current head.
  SiteNextSt,       ///< store of node->next.
  SiteKeySt,        ///< store of node->key.
  SiteHeadSt,       ///< store publishing the new head (the bug).
  SiteUnlockExch,   ///< atomicExch releasing the bucket lock.
  NumSites
};

const char *const SiteNames[NumSites] = {
    "lock: atomicCAS(bucket mutex)",
    "insert: load bucket head",
    "insert: store node->next",
    "insert: store node->key",
    "insert: store bucket head",
    "unlock: atomicExch(bucket mutex)",
};

constexpr unsigned NumBuckets = 8;
constexpr unsigned GridDim = 2;
constexpr unsigned BlockDim = 32;
constexpr unsigned KeysPerThread = 2;
constexpr unsigned NumKeys = GridDim * BlockDim * KeysPerThread;
constexpr Word NilIndex = 0xffffffffu;
constexpr Word HashMultiplier = 2654435761u;

unsigned hashKey(Word Key) { return (Key * HashMultiplier) % NumBuckets; }

/// The kernel's buffers, allocated in this order by setup (on the device)
/// and by the lowering (replaying the allocator).
struct Buffers {
  Addr Keys = 0, Heads = 0, Mutexes = 0, NodeKeys = 0, NodeNexts = 0;

  template <class Allocator> void allocate(Allocator &M) {
    Keys = M.alloc(NumKeys);
    Heads = M.alloc(NumBuckets);
    Mutexes = M.alloc(NumBuckets);
    NodeKeys = M.alloc(NumKeys);
    NodeNexts = M.alloc(NumKeys);
  }
};

class CbeHashtable final : public Application {
public:
  const char *name() const override { return "cbe-ht"; }
  unsigned numSites() const override { return NumSites; }
  const char *siteName(unsigned Site) const override {
    return SiteNames[Site];
  }

  void setup(sim::Device &Dev, Rng &R) override {
    Buf.allocate(Dev);
    SetupWords = Dev.memory().allocatedWords();
    InsertedKeys.clear();
    for (unsigned I = 0; I != NumKeys; ++I) {
      // Distinct keys so "exactly once" is checkable.
      const Word Key = static_cast<Word>(I * 7 + 1 + R.below(3) * NumKeys * 8);
      InsertedKeys.push_back(Key);
      Dev.write(Buf.Keys + I, Key);
    }
    for (unsigned B = 0; B != NumBuckets; ++B)
      Dev.write(Buf.Heads + B, NilIndex);
    for (unsigned I = 0; I != NumKeys; ++I)
      Dev.write(Buf.NodeNexts + I, NilIndex);
  }

  bool run(sim::Device &Dev) override {
    return detail::runPlan(Dev, AppKind::CbeHt, SetupWords);
  }

  bool checkPostCondition(const sim::Device &Dev) const override {
    // Walk every bucket chain; every inserted key must appear exactly once
    // in the bucket its hash selects.
    std::vector<unsigned> Seen(NumKeys, 0);
    for (unsigned B = 0; B != NumBuckets; ++B) {
      Word Cur = Dev.read(Buf.Heads + B);
      unsigned Steps = 0;
      while (Cur != NilIndex) {
        if (Cur >= NumKeys || ++Steps > NumKeys)
          return false; // Corrupt link or cycle.
        const Word Key = Dev.read(Buf.NodeKeys + Cur);
        if (Key != InsertedKeys[Cur] || hashKey(Key) != B)
          return false;
        if (++Seen[Cur] > 1)
          return false;
        Cur = Dev.read(Buf.NodeNexts + Cur);
      }
    }
    for (unsigned I = 0; I != NumKeys; ++I)
      if (Seen[I] != 1)
        return false;
    return true;
  }

private:
  Buffers Buf;
  unsigned SetupWords = 0;
  std::vector<Word> InsertedKeys;
};

} // namespace

void apps::detail::emitCbeHt(PlanBuilder &B) {
  Buffers Buf;
  Buf.allocate(B);
  B.launch(GridDim, BlockDim);

  for (unsigned Tid = 0; Tid != GridDim * BlockDim; ++Tid) {
    B.beginLane(Tid);
    const uint16_t RKey = B.reg();
    const uint16_t RBucket = B.reg();
    const uint16_t RLock = B.reg();
    const uint16_t ROldHead = B.reg();

    for (unsigned I = 0; I != KeysPerThread; ++I) {
      const unsigned NodeIdx = Tid * KeysPerThread + I;
      B.emitMem(Code::Load, sim::NoSite, RKey, 0, Buf.Keys + NodeIdx);
      // Bucket = hashKey(Key).
      B.emit(Code::MulImm, RBucket, RKey, 0, HashMultiplier);
      B.emit(Code::ModImm, RBucket, RBucket, 0, NumBuckets);

      B.spinLock(SiteLockCAS, RLock, Buf.Mutexes, RBucket);

      // Link the node in front of the bucket chain.
      B.emitMem(Code::LoadIdx, SiteHeadLd, ROldHead, RBucket, Buf.Heads);
      B.emitMem(Code::WbStore, SiteNextSt, ROldHead, 0,
                Buf.NodeNexts + NodeIdx);
      B.emitMem(Code::WbStore, SiteKeySt, RKey, 0, Buf.NodeKeys + NodeIdx);
      B.emitMem(Code::StoreIdx, SiteHeadSt, 0, RBucket, Buf.Heads, NodeIdx);

      B.emitMem(Code::AtomicExchIdx, SiteUnlockExch, 0, RBucket, Buf.Mutexes,
                0);
    }
    B.endLane();
  }
}

std::unique_ptr<Application> apps::detail::makeCbeHashtable() {
  return std::make_unique<CbeHashtable>();
}
