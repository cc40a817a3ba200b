//===- stress/StressSources.h - Stressing strategies ------------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory-stressing strategies of the paper as CongestionSource
/// implementations:
///
///  * SysStress  — the paper's contribution ("sys-str"): per-chip tuned
///    stress on a small spread of patch-aligned scratchpad locations with a
///    tuned access sequence. Pressure is focused on the banks of the
///    stressed locations (with a small spill onto neighbouring banks).
///  * RandStress — "rand-str": loads/stores to random scratchpad locations.
///    Total traffic is smeared over all banks (mostly below the congestion
///    threshold) with occasional transient hot spots.
///  * CacheStress — "cache-str": sequential sweeps over an L2-sized
///    scratchpad; a strong but constantly moving hot bank.
///
/// Intensities are expressed in warp-normalised thread units: a stressing
/// population of S threads on a chip with occupancy O contributes
/// 32 * S / O units, split evenly over its target locations.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_STRESS_STRESSSOURCES_H
#define GPUWMM_STRESS_STRESSSOURCES_H

#include "sim/ChipProfile.h"
#include "sim/Congestion.h"
#include "sim/Types.h"
#include "stress/AccessSequence.h"

#include <vector>

namespace gpuwmm {
namespace stress {

/// Converts a stressing thread count into warp-normalised units.
double threadUnits(const sim::ChipProfile &Chip, unsigned StressThreads);

/// The paper's systematically tuned stress ("sys-str").
class SysStress final : public sim::CongestionSource {
public:
  /// Stress is applied at the given absolute word addresses (normally the
  /// first word of distinct critical-patch-sized scratchpad regions) with
  /// \p Units thread units in total, split evenly across the locations.
  SysStress(const sim::ChipProfile &Chip, AccessSequence Seq,
            std::vector<sim::Addr> Locations, double Units);

  /// A source with no locations yet (zero pressure): \ref retarget it
  /// before use.
  explicit SysStress(const sim::ChipProfile &Chip)
      : Chip(Chip), Table(Chip.NumBanks), Filled(Chip.NumBanks, 0) {}

  /// Re-targets the source at \p Seq applied at \p Base plus each of
  /// \p Offsets (at least one) with \p Units thread units. Equivalent to
  /// constructing a fresh source at those addresses, but it keeps its
  /// storage, so a runner can serve every call from one source.
  void retarget(AccessSequence Seq, sim::Addr Base,
                const std::vector<unsigned> &Offsets, double Units);

  /// Re-targets the source at a new total intensity, keeping its access
  /// sequence and locations. Equivalent to constructing a fresh source
  /// with the same sequence/locations and \p Units — the hook that lets
  /// the compiled litmus path reuse one source across a countWeak call
  /// while still drawing the per-run random stressing population.
  void setUnits(double Units);

  /// Tick-invariant: the bank's entry of a per-bank table, filled on
  /// first use after each setUnits.
  sim::BankPressure pressureAt(uint64_t Tick, unsigned Bank) const override;

  const std::vector<unsigned> &stressedBanks() const { return Banks; }

private:
  const sim::ChipProfile &Chip;
  std::vector<unsigned> Banks;
  /// Pressure per bank, valid where Filled is set (a cache that
  /// pressureAt fills; setUnits clears it).
  mutable std::vector<sim::BankPressure> Table;
  mutable std::vector<uint8_t> Filled;
  sim::BankPressure Rate;        ///< Sequence traffic per tick per unit.
  sim::BankPressure PerLocation; ///< Pressure each stressed bank receives.
  /// Fraction of a stressed bank's pressure that spills onto its
  /// neighbouring banks (partial set conflicts).
  static constexpr double NeighbourSpill = 0.12;
  /// A single location can only absorb so much traffic: beyond this the
  /// stressing threads queue behind each other and add no pressure. This
  /// is why stressing a single location wastes threads and a small spread
  /// of locations is optimal (paper Fig. 4).
  static constexpr double PerLocationCap = 8.5;
};

/// Straightforward random stressing ("rand-str").
class RandStress final : public sim::CongestionSource {
public:
  RandStress(const sim::ChipProfile &Chip, double Units, uint64_t RunSeed);

  sim::BankPressure pressureAt(uint64_t Tick, unsigned Bank) const override;

private:
  const sim::ChipProfile &Chip;
  double Units;
  uint64_t RunSeed;
  /// Random accesses average ~0.65 adjacency weight per op over a loop of
  /// one op + overhead; see AccessSequence::trafficPerTick.
  static constexpr double TrafficRate = 0.22;
  /// Transient hot spots: fraction of total traffic that momentarily
  /// clusters on one bank, re-rolled every HotEpochTicks.
  static constexpr double HotFraction = 0.10;
  static constexpr uint64_t HotEpochTicks = 48;
};

/// L2-sized sweep stressing ("cache-str").
class CacheStress final : public sim::CongestionSource {
public:
  CacheStress(const sim::ChipProfile &Chip, double Units, uint64_t RunSeed);

  sim::BankPressure pressureAt(uint64_t Tick, unsigned Bank) const override;

private:
  const sim::ChipProfile &Chip;
  double Units;
  uint64_t RunSeed;
  /// The sweep parks on each bank for this many ticks before moving on.
  static constexpr uint64_t SweepDwellTicks = 16;
  /// Sweep traffic thrashes DRAM, so only a modest fraction of it turns
  /// into bank-queue pressure.
  static constexpr double TrafficRate = 0.075;
};

} // namespace stress
} // namespace gpuwmm

#endif // GPUWMM_STRESS_STRESSSOURCES_H
