//===- sim/FencePolicy.h - Per-site fence insertion policy ------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A FencePolicy decides, per instrumented memory-access site, whether a
/// device fence follows the access. This is the mechanism behind the
/// paper's Sec. 5 (empirical fence insertion: start from a fence after
/// every access and reduce) and Sec. 6 (cost of the no/emp/cons fencing
/// configurations). A policy is read when a program is compiled (an app's
/// plan, a litmus program's inserted fences), never per simulated op, so
/// its range checks stay on in every build.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_SIM_FENCEPOLICY_H
#define GPUWMM_SIM_FENCEPOLICY_H

#include "support/Check.h"

#include <cstddef>
#include <vector>

namespace gpuwmm {
namespace sim {

/// Marker for uninstrumented accesses (never fenced by a policy).
inline constexpr int NoSite = -1;

/// A set of access sites after which a device fence is inserted.
class FencePolicy {
public:
  FencePolicy() = default;

  /// Policy over \p NumSites sites with none selected.
  static FencePolicy none(unsigned NumSites) {
    FencePolicy P;
    P.AfterSite.assign(NumSites, false);
    return P;
  }

  /// Policy with a fence after every site (the paper's "cons fences").
  static FencePolicy all(unsigned NumSites) {
    FencePolicy P;
    P.AfterSite.assign(NumSites, true);
    return P;
  }

  /// Policy fencing exactly the sites in \p Sites.
  static FencePolicy ofSites(unsigned NumSites,
                             const std::vector<unsigned> &Sites) {
    FencePolicy P = none(NumSites);
    for (unsigned S : Sites) {
      GPUWMM_CHECK(S < NumSites, "fence site out of range");
      P.AfterSite[S] = true;
    }
    return P;
  }

  /// True if a device fence follows the access at \p Site.
  bool fenceAfter(int Site) const {
    if (Site < 0)
      return false;
    GPUWMM_CHECK(static_cast<size_t>(Site) < AfterSite.size(),
                 "unknown fence site");
    return AfterSite[Site];
  }

  void set(unsigned Site, bool Fenced) {
    GPUWMM_CHECK(Site < AfterSite.size(), "fence site out of range");
    AfterSite[Site] = Fenced;
  }

  unsigned numSites() const { return AfterSite.size(); }

  /// Number of fenced sites.
  unsigned count() const {
    unsigned N = 0;
    for (bool B : AfterSite)
      N += B;
    return N;
  }

  /// Returns the fenced sites in increasing order.
  std::vector<unsigned> sites() const {
    std::vector<unsigned> S;
    for (unsigned I = 0; I != AfterSite.size(); ++I)
      if (AfterSite[I])
        S.push_back(I);
    return S;
  }

  bool operator==(const FencePolicy &O) const {
    return AfterSite == O.AfterSite;
  }

private:
  std::vector<bool> AfterSite;
};

} // namespace sim
} // namespace gpuwmm

#endif // GPUWMM_SIM_FENCEPOLICY_H
