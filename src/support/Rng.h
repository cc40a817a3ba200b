//===- support/Rng.h - Deterministic random number generation --*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, fast, deterministic pseudo-random number generator
/// (xoshiro256**) used throughout the simulator and the experiment
/// harnesses.  Every experiment derives its generators from a master seed so
/// that all results in this repository are exactly reproducible.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_SUPPORT_RNG_H
#define GPUWMM_SUPPORT_RNG_H

#include <cassert>
#include <cstdint>
#include <vector>

namespace gpuwmm {

/// xoshiro256** generator with splitmix64 seeding.
///
/// The generator supports deterministic forking (\ref fork) so that
/// independent experiment runs draw from statistically independent streams
/// while remaining a pure function of (master seed, stream id).
class Rng {
public:
  /// Seeds the generator from a single 64-bit value via splitmix64.
  explicit Rng(uint64_t Seed) { reseed(Seed); }

  /// Re-seeds in place (see constructor).
  void reseed(uint64_t Seed) {
    SeedMaterial = Seed;
    uint64_t X = Seed;
    for (uint64_t &Word : State)
      Word = splitmix64(X);
  }

  /// Returns the next raw 64-bit output.
  uint64_t next() {
    const uint64_t Result = rotl(State[1] * 5, 7) * 9;
    const uint64_t T = State[1] << 17;
    State[2] ^= State[0];
    State[3] ^= State[1];
    State[1] ^= State[2];
    State[0] ^= State[3];
    State[2] ^= T;
    State[3] = rotl(State[3], 45);
    return Result;
  }

  /// Returns a uniform integer in [0, Bound). \p Bound must be non-zero.
  uint64_t below(uint64_t Bound) {
    assert(Bound != 0 && "below() requires a non-zero bound");
    // Debiased multiply-shift (Lemire). The bias for our bounds (tiny
    // relative to 2^64) is negligible, so the simple variant suffices.
    return static_cast<uint64_t>(
        (static_cast<__uint128_t>(next()) * Bound) >> 64);
  }

  /// Returns a uniform integer in the inclusive range [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi) {
    assert(Lo <= Hi && "range() requires Lo <= Hi");
    return Lo + static_cast<int64_t>(
                    below(static_cast<uint64_t>(Hi - Lo) + 1));
  }

  /// Returns a uniform double in [0, 1).
  double real() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Returns a uniform double in [Lo, Hi).
  double realIn(double Lo, double Hi) { return Lo + (Hi - Lo) * real(); }

  /// Returns true with probability \p P (clamped to [0, 1]).
  bool chance(double P) {
    if (P <= 0.0)
      return false;
    if (P >= 1.0)
      return true;
    return real() < P;
  }

  /// Fisher-Yates shuffle of \p Values.
  template <typename T> void shuffle(std::vector<T> &Values) {
    for (size_t I = Values.size(); I > 1; --I)
      std::swap(Values[I - 1], Values[below(I)]);
  }

  /// Returns a deterministic child generator for stream \p StreamId.
  ///
  /// fork(S) depends only on this generator's seed material and \p StreamId,
  /// never on how many numbers have been drawn, so run K of an experiment is
  /// reproducible in isolation.
  Rng fork(uint64_t StreamId) const {
    return Rng(deriveStream(SeedMaterial, StreamId));
  }

  /// Derives the seed of independent stream \p StreamIndex of \p BaseSeed.
  ///
  /// A pure function (SplitMix-style double avalanche), so streams can be
  /// instantiated in any order, on any thread, without shared state: this
  /// is the primitive behind the parallel engine's determinism contract
  /// (DESIGN.md Sec. 11). Distinct (BaseSeed, StreamIndex) pairs yield
  /// decorrelated generators; unlike `Seed + I`-style offsets, nearby
  /// indices share no structure. Layers compose it hierarchically, e.g.
  /// deriveStream(deriveStream(Seed, Cell), Run).
  static uint64_t deriveStream(uint64_t BaseSeed, uint64_t StreamIndex) {
    // Whiten the base first so BaseSeed pairs that differ only in low bits
    // (common for user-chosen seeds) land in unrelated stream families,
    // then mix the stream index through a second avalanche round.
    uint64_t X = BaseSeed;
    const uint64_t Whitened = splitmix64(X);
    X = Whitened ^ (0x9e3779b97f4a7c15ULL * (StreamIndex + 1));
    return splitmix64(X);
  }

  /// Draws K distinct values from [0, Bound) in selection order.
  std::vector<unsigned> sampleDistinct(unsigned K, unsigned Bound) {
    std::vector<unsigned> Sample;
    sampleDistinct(K, Bound, Sample);
    return Sample;
  }

  /// The same draws into \p Sample, reusing its capacity.
  void sampleDistinct(unsigned K, unsigned Bound,
                      std::vector<unsigned> &Sample) {
    assert(K <= Bound && "cannot sample more values than the universe holds");
    Sample.resize(Bound);
    for (unsigned I = 0; I != Bound; ++I)
      Sample[I] = I;
    // Partial Fisher-Yates: the first K slots are the sample.
    for (unsigned I = 0; I != K; ++I)
      std::swap(Sample[I], Sample[I + below(Bound - I)]);
    Sample.resize(K);
  }

private:
  static uint64_t splitmix64(uint64_t &X) {
    X += 0x9e3779b97f4a7c15ULL;
    uint64_t Z = X;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

  static uint64_t rotl(uint64_t X, int K) {
    return (X << K) | (X >> (64 - K));
  }

  uint64_t State[4];
  uint64_t SeedMaterial = 0;
};

} // namespace gpuwmm

#endif // GPUWMM_SUPPORT_RNG_H
