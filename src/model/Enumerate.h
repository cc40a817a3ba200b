//===- model/Enumerate.h - Axiomatic execution enumerator -------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A herd-style enumerator over a litmus program (Alglave, Maranget and
/// Tautschnig, "Herding cats", TOPLAS 2014): it asks, without simulating,
/// whether any execution can show the program's forbidden outcome, and
/// whether any that does is non-SC (DESIGN.md Sec. 20).
///
/// A candidate execution picks a coherence order per location (every
/// permutation of the program's writes to it, after the initial state) and
/// a write for every load to read from (the initial state or any write to
/// its location); an atomic reads its co-predecessor. A program without
/// split-phase loads admits only coherent candidates (po-loc ∪ rf ∪ co ∪
/// fr acyclic). Each candidate is judged by the same relations the
/// checkers use (model/ConsistencyChecker.h: addCommunicationEdges,
/// findCycle): a po ∪ rf ∪ co ∪ fr cycle makes it non-SC. The candidates
/// include every run of the program either checker accepts as
/// axiom-clean (the checkers order each location's writes totally from
/// the initial state, bind each read to a write of its value, and give
/// every atomic its co-predecessor; such runs are coherent unless a
/// split-phase load is involved), so when no non-SC candidate shows the
/// outcome, no simulated run of the program can be judged weak with it —
/// the soundness the shrinker's pre-filter rests on.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_MODEL_ENUMERATE_H
#define GPUWMM_MODEL_ENUMERATE_H

#include "litmus/Program.h"

#include <cstdint>

namespace gpuwmm {
namespace model {

/// What the enumerator proved about a program's forbidden outcome.
enum class Reach : uint8_t {
  Unreachable, ///< No candidate execution shows it.
  ScOnly,      ///< Shown only by SC (po ∪ rf ∪ co ∪ fr acyclic) executions.
  NonSc,       ///< Some non-SC candidate execution shows it.
  Unknown      ///< The search passed its candidate cap first.
};

/// "unreachable", "sc-only", "non-sc" or "unknown".
const char *reachName(Reach R);

/// Candidates the enumerator examines before answering Reach::Unknown.
inline constexpr uint64_t DefaultCandidateCap = uint64_t{1} << 21;

/// The enumerator's answer and the candidates it examined (coherence
/// orders plus complete executions) to reach it.
struct Enumeration {
  Reach Answer = Reach::Unknown;
  uint64_t Candidates = 0;
  /// Some SC candidate execution shows the outcome. Exact unless the
  /// answer is NonSc from a search that stopped at its first non-SC
  /// candidate, or the cap was passed first.
  bool ScReachable = false;

  /// No simulated run of the program can be judged weak with its
  /// forbidden outcome.
  bool rulesOutWeak() const {
    return Answer == Reach::Unreachable || Answer == Reach::ScOnly;
  }
};

/// Classifies \p P's forbidden outcome. Before enumerating, a load pinned
/// by the forbidden clause keeps only the writes whose values satisfy its
/// atoms, and a location's coherence orders must give its pinned final
/// value; the search stops at the first non-SC execution or, with
/// \p FindSc, once it has also seen an SC one (so ScReachable is exact
/// within the cap). Fences and block placement do not enter the
/// relations. An empty forbidden clause is unreachable. \p P must
/// validate.
Enumeration enumerateForbidden(const litmus::Program &P,
                               uint64_t Cap = DefaultCandidateCap,
                               bool FindSc = false);

} // namespace model
} // namespace gpuwmm

#endif // GPUWMM_MODEL_ENUMERATE_H
