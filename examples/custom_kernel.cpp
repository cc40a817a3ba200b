//===- examples/custom_kernel.cpp - Testing your own kernel -------------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// Shows how a user brings their OWN fine-grained-concurrency kernel to the
// testing environment: write the kernel against the simulator API, give it
// a functional post-condition, and run it under the eight environments.
// The testing environment needs no knowledge of the kernel's communication
// idiom — that is the paper's black-box property.
//
// The kernel here is a producer/consumer pipeline: block 0 produces a
// sequence of items, publishing each with a data store followed by a
// ticket store (an MP handshake); block 1 consumes them. Without a fence
// between data and ticket the consumer can read stale items.
//
//===----------------------------------------------------------------------===//

#include "sim/Device.h"
#include "sim/ThreadContext.h"
#include "stress/Environment.h"
#include "support/Options.h"
#include "support/Table.h"

#include <cstdio>
#include <iostream>

using namespace gpuwmm;
using sim::Addr;
using sim::Kernel;
using sim::ThreadContext;
using sim::Word;

namespace {

constexpr unsigned NumItems = 24;

// Fence sites of the kernel, so the hardening machinery could be applied
// to it exactly as to the paper's case studies.
enum Site : int { SiteItemSt = 0, SiteTicketSt, SiteTicketLd, SiteItemLd };

Kernel producer(ThreadContext &Ctx, Addr Items, Addr Ticket, bool Fenced) {
  for (unsigned I = 0; I != NumItems; ++I) {
    co_await Ctx.st(Items + I, 1000 + I, SiteItemSt);
    if (Fenced)
      co_await Ctx.fence(); // __threadfence() between data and ticket.
    co_await Ctx.st(Ticket, I + 1, SiteTicketSt);
    co_await Ctx.yield(1 + static_cast<unsigned>(Ctx.rand(3)));
  }
}

Kernel consumer(ThreadContext &Ctx, Addr Items, Addr Ticket, Addr Sum) {
  unsigned Consumed = 0;
  Word Total = 0;
  while (Consumed != NumItems) {
    // Wait for the next ticket. (Awaits stay out of control-flow
    // conditions: GCC 12 coroutine bug; see README.)
    for (;;) {
      const Word T = co_await Ctx.ld(Ticket, SiteTicketLd);
      if (T > Consumed)
        break;
      co_await Ctx.yield(2);
    }
    Total += co_await Ctx.ld(Items + Consumed, SiteItemLd);
    ++Consumed;
  }
  co_await Ctx.st(Sum, Total);
}

/// One execution; returns true iff the post-condition held.
bool runOnce(const sim::ChipProfile &Chip, const stress::Environment &Env,
             bool Fenced, uint64_t Seed) {
  Rng R(Seed);
  sim::Device Dev(Chip, R.next());

  const Addr Items = Dev.alloc(NumItems);
  const Addr Ticket = Dev.alloc(1);
  const Addr Sum = Dev.alloc(1);

  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  Rng EnvRng = R.fork(1);
  const auto Stress = applyEnvironment(Env, Dev, Tuned, EnvRng);

  const auto Result =
      Dev.run({2, 1}, [=](ThreadContext &Ctx) -> Kernel {
        if (Ctx.blockIdx() == 0)
          return producer(Ctx, Items, Ticket, Fenced);
        return consumer(Ctx, Items, Ticket, Sum);
      });
  if (!Result.completed())
    return false;

  // Post-condition: the consumer summed exactly the produced items.
  Word Expected = 0;
  for (unsigned I = 0; I != NumItems; ++I)
    Expected += 1000 + I;
  return Dev.read(Sum) == Expected;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts(Argc, Argv);
  const std::string ChipName = Opts.getString("chip", "titan");
  const unsigned Runs = Opts.getCount("runs", scaledCount(200));
  const uint64_t Seed = Opts.getSeed(7);

  const sim::ChipProfile *Chip = sim::ChipProfile::lookup(ChipName);
  if (!Chip) {
    std::fprintf(stderr, "error: unknown chip '%s'\n", ChipName.c_str());
    return 1;
  }

  std::printf("== Black-box testing a custom producer/consumer kernel on "
              "%s ==\n\n",
              Chip->Name);
  Table T({"environment", "unfenced errors", "fenced errors"});
  for (const auto &Env : stress::Environment::all()) {
    unsigned Unfenced = 0, Fenced = 0;
    for (unsigned I = 0; I != Runs; ++I) {
      Unfenced += !runOnce(*Chip, Env, false, Seed * 1000 + I);
      Fenced += !runOnce(*Chip, Env, true, Seed * 2000 + I);
    }
    T.addRow({Env.name(),
              std::to_string(Unfenced) + "/" + std::to_string(Runs),
              std::to_string(Fenced) + "/" + std::to_string(Runs)});
  }
  T.print(std::cout);
  std::printf("\nThe tuned environment exposes the missing fence without "
              "knowing anything about the kernel; the fence eliminates "
              "the errors.\n");
  return 0;
}
