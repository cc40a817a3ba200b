//===- apps/TpoTaskMgmt.cpp - Tzeng-Patney-Owens task management --------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// The dynamic task-management framework of Tzeng, Patney and Owens [48]:
// a work queue protected by a custom spinlock; workers pop task
// descriptors, execute them, and push spawned child tasks. The Tab. 4
// post-condition checks that exactly the expected set of tasks executes
// (each exactly once).
//
// Weak-memory defects: the enqueue's payload and tail stores are plain
// stores that can stay buffered past the atomic unlock; a popper then
// either reads a stale descriptor (executing a wrong/duplicate task) or
// never observes the push (workers spin forever — the timeout the paper's
// 30-second limit catches).
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
  SiteLockCAS = 0, ///< atomicCAS acquiring the queue lock.
  SiteHeadLd,      ///< pop: load head.
  SiteTailLd,      ///< pop/push: load tail.
  SiteBufLd,       ///< pop: load task descriptor.
  SiteBufSt,       ///< push: store task descriptor.
  SiteTailSt,      ///< push: store new tail (the bug).
  SiteUnlockExch,  ///< atomicExch releasing the queue lock.
  NumSites
};

const char *const SiteNames[NumSites] = {
    "lock: atomicCAS(queue mutex)",
    "pop: load head",
    "pop/push: load tail",
    "pop: load buf[head]",
    "push: store buf[tail]",
    "push: store tail",
    "unlock: atomicExch(queue mutex)",
};

constexpr unsigned GridDim = 4;
constexpr unsigned BlockDim = 16;
constexpr unsigned RootTasks = 24;
constexpr unsigned ChildrenPerRoot = 2;
constexpr unsigned TotalTasks = RootTasks * (1 + ChildrenPerRoot);
constexpr unsigned QueueCap = TotalTasks + 8;
constexpr Word EmptySlot = 0xffffffffu;

/// A task descriptor: the id in the low 16 bits, the root flag above.
constexpr Word TaskIdMask = 0xffffu, TaskRootBit = 0x10000u;
Word packTask(unsigned TaskId, bool IsRoot) {
  return static_cast<Word>(TaskId | (IsRoot ? TaskRootBit : 0u));
}

/// The kernel's buffers, allocated in this order by setup (on the device)
/// and by the lowering (replaying the allocator).
struct Buffers {
  Addr Buf = 0, Head = 0, Tail = 0, Mutex = 0, Done = 0, ExecCounts = 0,
       ErrorFlag = 0;

  template <class Allocator> void allocate(Allocator &M) {
    Buf = M.alloc(QueueCap);
    Head = M.alloc(1);
    Tail = M.alloc(1);
    Mutex = M.alloc(1);
    Done = M.alloc(1);
    ExecCounts = M.alloc(TotalTasks);
    ErrorFlag = M.alloc(1);
  }
};

class TpoTaskMgmt final : public Application {
public:
  const char *name() const override { return "tpo-tm"; }
  unsigned numSites() const override { return NumSites; }
  const char *siteName(unsigned Site) const override {
    return SiteNames[Site];
  }
  uint64_t maxTicks() const override { return 250000; }

  void setup(sim::Device &Dev, Rng &R) override {
    (void)R;
    Buf.allocate(Dev);
    SetupWords = Dev.memory().allocatedWords();
    for (unsigned I = 0; I != QueueCap; ++I)
      Dev.write(Buf.Buf + I, EmptySlot);
    for (unsigned I = 0; I != RootTasks; ++I)
      Dev.write(Buf.Buf + I, packTask(I, true));
    Dev.write(Buf.Tail, RootTasks);
  }

  bool run(sim::Device &Dev) override {
    return detail::runPlan(Dev, AppKind::TpoTm, SetupWords);
  }

  bool checkPostCondition(const sim::Device &Dev) const override {
    if (Dev.read(Buf.ErrorFlag) != 0)
      return false;
    for (unsigned I = 0; I != TotalTasks; ++I)
      if (Dev.read(Buf.ExecCounts + I) != 1)
        return false;
    return true;
  }

private:
  Buffers Buf;
  unsigned SetupWords = 0;
};

} // namespace

void apps::detail::emitTpoTm(PlanBuilder &B) {
  Buffers Buf;
  Buf.allocate(B);
  B.launch(GridDim, BlockDim);

  for (unsigned Tid = 0; Tid != GridDim * BlockDim; ++Tid) {
    B.beginLane(Tid);
    const uint16_t RDone = B.reg();
    const uint16_t RLock = B.reg();
    const uint16_t RH = B.reg();
    const uint16_t RT = B.reg();
    const uint16_t RTask = B.reg();
    const uint16_t RId = B.reg();
    const uint16_t RChildBase = B.reg();
    const uint16_t RSlot = B.reg();

    // while (ld(done) < TotalTasks): the exit jump is patched to the lane
    // end below.
    const uint32_t Loop = B.size();
    B.emitMem(Code::Load, sim::NoSite, RDone, 0, Buf.Done);
    const uint32_t Work = B.emit(Code::BrLt, RDone, 0, 0, TotalTasks);
    const uint32_t Exit = B.emit(Code::Jump);
    B.patch(Work, B.size());

    // Pop under the lock: Task = H < T ? buf[H] (and ++head) : empty.
    B.spinLock(SiteLockCAS, RLock, Buf.Mutex);
    B.emitMem(Code::Load, SiteHeadLd, RH, 0, Buf.Head);
    B.emitMem(Code::Load, SiteTailLd, RT, 0, Buf.Tail);
    B.emit(Code::MovImm, RTask, 0, 0, EmptySlot);
    const uint32_t NonEmpty = B.emit(Code::BrLtRR, RH, RT);
    const uint32_t Unlock = B.emit(Code::Jump);
    B.patch(NonEmpty, B.size());
    B.emitMem(Code::LoadIdx, SiteBufLd, RTask, RH, Buf.Buf);
    // The index update is atomic in the original framework.
    B.emitMem(Code::AtomicAdd, sim::NoSite, 0, 0, Buf.Head, 1);
    B.patch(Unlock, B.size());
    B.emitMem(Code::AtomicExch, SiteUnlockExch, 0, 0, Buf.Mutex, 0);

    // An empty queue: yield(3), then poll again.
    const uint32_t GotTask = B.emit(Code::BrNe, RTask, 0, 0, EmptySlot);
    B.emit(Code::Sleep, 0, 0, 0, 3);
    B.emit(Code::Jump, 0, 0, Loop);
    B.patch(GotTask, B.size());

    // A stale descriptor from a buffered push (Id >= TotalTasks): flag
    // it, and count it or the grid never exits.
    B.emit(Code::AndImm, RId, RTask, 0, TaskIdMask);
    const uint32_t Valid = B.emit(Code::BrLt, RId, 0, 0, TotalTasks);
    B.emitMem(Code::Store, sim::NoSite, 0, 0, Buf.ErrorFlag, 1);
    B.emitMem(Code::AtomicAdd, sim::NoSite, 0, 0, Buf.Done, 1);
    B.emit(Code::Jump, 0, 0, Loop);
    B.patch(Valid, B.size());

    // "Execute" the task; a root task pushes its children
    // RootTasks + 2 * Id + C under the lock.
    B.emitMem(Code::AtomicAddIdx, sim::NoSite, 0, RId, Buf.ExecCounts, 1);
    B.emit(Code::AndImm, RTask, RTask, 0, TaskRootBit);
    const uint32_t NotRoot = B.emit(Code::BrEq, RTask, 0, 0, 0);
    static_assert(ChildrenPerRoot == 2, "child ids are Id + Id + C");
    B.emit(Code::AddRR, RChildBase, RId, RId);
    for (unsigned C = 0; C != ChildrenPerRoot; ++C) {
      B.spinLock(SiteLockCAS, RLock, Buf.Mutex);
      B.emitMem(Code::Load, SiteTailLd, RSlot, 0, Buf.Tail);
      const uint32_t Room = B.emit(Code::BrLt, RSlot, 0, 0, QueueCap);
      B.emitMem(Code::Store, sim::NoSite, 0, 0, Buf.ErrorFlag, 1);
      const uint32_t Release = B.emit(Code::Jump);
      B.patch(Room, B.size());
      // buf[slot] = packTask(child, false); tail = slot + 1.
      B.emitMem(Code::WbStoreIdx, SiteBufSt, RChildBase, RSlot, Buf.Buf,
                RootTasks + C);
      B.emitMem(Code::WbStore, SiteTailSt, RSlot, 0, Buf.Tail, 1);
      B.patch(Release, B.size());
      B.emitMem(Code::AtomicExch, SiteUnlockExch, 0, 0, Buf.Mutex, 0);
    }
    B.patch(NotRoot, B.size());
    B.emitMem(Code::AtomicAdd, sim::NoSite, 0, 0, Buf.Done, 1);
    B.emit(Code::Jump, 0, 0, Loop);
    B.patch(Exit, B.size()); // Leaving the loop ends the lane.
    B.endLane();
  }
}

std::unique_ptr<Application> apps::detail::makeTpoTaskMgmt() {
  return std::make_unique<TpoTaskMgmt>();
}
