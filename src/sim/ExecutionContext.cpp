//===- sim/ExecutionContext.cpp - Reusable execution engine state -------------===//

#include "sim/ExecutionContext.h"

#include <cassert>
#include <memory>
#include <vector>

using namespace gpuwmm;
using namespace gpuwmm::sim;

namespace {

/// The per-thread context pool. Ownership lives in All (freed at thread
/// exit); Free holds the currently leasable subset. A plain free list —
/// leases may be released in any order, though stack-scoped use makes the
/// order LIFO in practice, which keeps the hottest context hot.
struct ContextPool {
  std::vector<std::unique_ptr<ExecutionContext>> All;
  std::vector<ExecutionContext *> Free;
};

ContextPool &pool() {
  static thread_local ContextPool P;
  return P;
}

} // namespace

ContextLease::ContextLease() {
  ContextPool &P = pool();
  Owner = &P;
  if (!P.Free.empty()) {
    Ctx = P.Free.back();
    P.Free.pop_back();
    return;
  }
  P.All.push_back(std::make_unique<ExecutionContext>());
  Ctx = P.All.back().get();
}

ContextLease::~ContextLease() {
  if (!Ctx)
    return;
  assert(Owner == &pool() &&
         "context lease released on a thread other than its acquirer");
  // A recycled context must come back with tracing and streaming
  // disarmed: the next acquirer opted into nothing (the trace buffer
  // itself is recycled and cleared by reset()), and a streaming sink is
  // external state the pool must never retain a pointer to.
  Ctx->requestTracing(false);
  Ctx->requestStreaming(nullptr);
  // Release builds: a foreign-thread release must not push into this
  // thread's free list (the context belongs to the acquirer's All vector
  // and would dangle once that thread exits). Dropping the lease merely
  // retires one context for the acquirer thread's lifetime — safe.
  if (Owner == &pool())
    pool().Free.push_back(Ctx);
}
