//===- examples/custom_kernel.cpp - Testing your own kernel -------------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// Shows how a user brings their OWN fine-grained-concurrency kernel to the
// testing environment: write the kernel as a program for the simulator,
// give it a functional post-condition, and run it under the eight
// environments. The testing environment needs no knowledge of the kernel's
// communication idiom — that is the paper's black-box property.
//
// The kernel here is a producer/consumer pipeline: block 0 produces a
// sequence of items, publishing each with a data store followed by a
// ticket store (an MP handshake); block 1 consumes them. Without a fence
// between data and ticket the consumer can read stale items.
//
// A kernel is a sim::BatchProgram: one op range per launched thread, each
// op one simulated instruction (a store, a load, a fence, a sleep) or a
// free register computation (arithmetic, branches) that runs before the
// next instruction.
//
//===----------------------------------------------------------------------===//

#include "sim/Device.h"
#include "stress/Environment.h"
#include "support/Options.h"
#include "support/Table.h"

#include <cstdio>
#include <iostream>

using namespace gpuwmm;
using sim::Addr;
using sim::BatchOp;
using sim::Word;
using Code = sim::BatchOp::Code;

namespace {

constexpr unsigned NumItems = 24;

/// Appends an op to \p BP and returns its index.
uint32_t emit(sim::BatchProgram &BP, Code C, uint16_t Slot = 0,
              Addr A = 0, Word Imm = 0) {
  BP.Ops.push_back({C, Slot, 0, A, Imm});
  return static_cast<uint32_t>(BP.Ops.size() - 1);
}

/// Two blocks of one thread: block 0 produces, block 1 consumes.
sim::BatchProgram pipeline(Addr Items, Addr Ticket, Addr Sum, bool Fenced) {
  sim::BatchProgram BP;
  BP.GridDim = 2;
  BP.BlockDim = 1;
  BP.NumSlots = 2;
  constexpr uint16_t RTicket = 0, RTotal = 1;

  // Producer: for each item, the data store, an optional __threadfence()
  // between data and ticket, the ticket store, then a random backoff
  // yield(1 + rand(3)).
  for (unsigned I = 0; I != NumItems; ++I) {
    emit(BP, Code::Store, 0, Items + I, 1000 + I);
    if (Fenced)
      emit(BP, Code::FenceDevice);
    emit(BP, Code::Store, 0, Ticket, I + 1);
    emit(BP, Code::SleepRand, 0, /*A=*/1, /*Imm=*/3);
  }
  const uint32_t ConsumerBegin = static_cast<uint32_t>(BP.Ops.size());
  BP.Lanes.push_back({0, ConsumerBegin});

  // Consumer: for each item, poll the ticket until it passes the item
  // (yield(2) between polls), then add the item to the running total;
  // finally store the total.
  for (unsigned I = 0; I != NumItems; ++I) {
    const uint32_t Poll = emit(BP, Code::Load, RTicket, Ticket);
    const uint32_t Ready = Poll + 5;
    emit(BP, Code::BrLt, RTicket, /*A=*/Poll + 3, /*Imm=*/I + 1);
    emit(BP, Code::Jump, 0, Ready);
    emit(BP, Code::Sleep, 0, 0, 2); // Poll + 3: not yet, back off.
    emit(BP, Code::Jump, 0, Poll);
    emit(BP, Code::LoadAcc, RTotal, Items + I); // Ready.
  }
  emit(BP, Code::WbStore, RTotal, Sum);
  BP.Lanes.push_back({ConsumerBegin, static_cast<uint32_t>(BP.Ops.size())});
  return BP;
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

  const auto Result = Dev.run(pipeline(Items, Ticket, Sum, Fenced));
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
