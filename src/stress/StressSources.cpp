//===- stress/StressSources.cpp - Stressing strategies -----------------------===//

#include "stress/StressSources.h"

#include <algorithm>
#include <cassert>

using namespace gpuwmm;
using namespace gpuwmm::stress;
using sim::BankPressure;

double stress::threadUnits(const sim::ChipProfile &Chip,
                           unsigned StressThreads) {
  return 56.0 * static_cast<double>(StressThreads) /
         static_cast<double>(Chip.maxConcurrentThreads());
}

//===----------------------------------------------------------------------===//
// SysStress
//===----------------------------------------------------------------------===//

SysStress::SysStress(const sim::ChipProfile &Chip, AccessSequence Seq,
                     std::vector<sim::Addr> Locations, double Units)
    : SysStress(Chip) {
  retarget(Seq, /*Base=*/0, Locations, Units);
}

void SysStress::retarget(AccessSequence Seq, sim::Addr Base,
                         const std::vector<unsigned> &Offsets, double Units) {
  assert(!Offsets.empty() && "sys-str needs at least one location");
  Banks.clear();
  for (unsigned Off : Offsets)
    Banks.push_back(Chip.bankOf(Base + Off));
  Rate = Seq.trafficPerTick();
  setUnits(Units);
}

void SysStress::setUnits(double Units) {
  const double PerLoc = Units / static_cast<double>(Banks.size());
  PerLocation.Write = Rate.Write * PerLoc;
  PerLocation.Read = Rate.Read * PerLoc;
  // Saturate: one location absorbs only PerLocationCap units of pressure;
  // beyond that the stressing threads queue behind each other.
  const double Total = PerLocation.Write + PerLocation.Read;
  if (Total > PerLocationCap) {
    const double Scale = PerLocationCap / Total;
    PerLocation.Write *= Scale;
    PerLocation.Read *= Scale;
  }
  std::fill(Filled.begin(), Filled.end(), 0);
}

BankPressure SysStress::pressureAt(uint64_t, unsigned Bank) const {
  assert(Bank < Table.size() && "bank out of range");
  // The pressure does not depend on the tick, so each bank's is summed
  // once per setUnits, on first use (a run asks for a few banks only).
  if (Filled[Bank])
    return Table[Bank];
  BankPressure &P = Table[Bank];
  P = BankPressure{};
  const unsigned NB = Chip.NumBanks;
  for (unsigned B : Banks) {
    if (B == Bank) {
      P += PerLocation;
      continue;
    }
    // Partial conflicts with adjacent banks.
    const bool Neighbour =
        Bank == (B + 1) % NB || (Bank + 1) % NB == B;
    if (Neighbour) {
      P.Write += PerLocation.Write * NeighbourSpill;
      P.Read += PerLocation.Read * NeighbourSpill;
    }
  }
  Filled[Bank] = 1;
  return P;
}

//===----------------------------------------------------------------------===//
// RandStress
//===----------------------------------------------------------------------===//

namespace {

/// Cheap stateless mixing for per-epoch pseudo-random choices.
uint64_t mix64(uint64_t X) {
  X ^= X >> 33;
  X *= 0xff51afd7ed558ccdULL;
  X ^= X >> 33;
  X *= 0xc4ceb9fe1a85ec53ULL;
  X ^= X >> 33;
  return X;
}

} // namespace

RandStress::RandStress(const sim::ChipProfile &Chip, double Units,
                       uint64_t RunSeed)
    : Chip(Chip), Units(Units), RunSeed(RunSeed) {}

BankPressure RandStress::pressureAt(uint64_t Tick, unsigned Bank) const {
  const double Total = Units * TrafficRate;
  BankPressure P;
  // Uniform smear over all banks (usually below the congestion threshold).
  const double Smeared =
      Total * (1.0 - HotFraction) / static_cast<double>(Chip.NumBanks);
  P.Write = 0.5 * Smeared;
  P.Read = 0.5 * Smeared;
  // Transient hot spots: in some epochs the random accesses momentarily
  // cluster on one bank; most epochs have no significant clustering.
  const uint64_t Epoch = Tick / HotEpochTicks;
  const uint64_t Mix = mix64(RunSeed ^ (Epoch * 0x9e3779b97f4a7c15ULL));
  const bool EpochHot = (Mix >> 32) % 8 == 0;
  if (EpochHot && Bank == Mix % Chip.NumBanks) {
    const double Hot = Total * HotFraction * 5.0;
    P.Write += 0.5 * Hot;
    P.Read += 0.5 * Hot;
  }
  return P;
}

//===----------------------------------------------------------------------===//
// CacheStress
//===----------------------------------------------------------------------===//

CacheStress::CacheStress(const sim::ChipProfile &Chip, double Units,
                         uint64_t RunSeed)
    : Chip(Chip), Units(Units), RunSeed(RunSeed) {}

BankPressure CacheStress::pressureAt(uint64_t Tick, unsigned Bank) const {
  // The sweep walks the L2-sized scratchpad linearly, so its instantaneous
  // focus is one bank, advancing every SweepDwellTicks. The sweep phase is
  // randomised per run.
  const uint64_t Phase = mix64(RunSeed) % Chip.NumBanks;
  const unsigned HotBank = static_cast<unsigned>(
      (Tick / SweepDwellTicks + Phase) % Chip.NumBanks);
  BankPressure P;
  if (Bank == HotBank) {
    const double Hot = Units * TrafficRate;
    P.Write = 0.5 * Hot;
    P.Read = 0.5 * Hot;
  }
  return P;
}
