//===- fuzz/LitmusBridge.h - Fuzz cases as .litmus tests --------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fuzz cases are litmus programs (fuzz/ProgramFuzzer.h); this header
/// turns a weak one into a replayable `.litmus` artifact — named, with a
/// forbidden clause pinning the observed non-SC outcome — and checks that
/// an imported `.litmus` file fits the fuzz model before it is re-fuzzed
/// against its exhaustive SC set.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_FUZZ_LITMUSBRIDGE_H
#define GPUWMM_FUZZ_LITMUSBRIDGE_H

#include "fuzz/ProgramFuzzer.h"
#include "litmus/Program.h"

#include <string>

namespace gpuwmm {
namespace fuzz {

/// \p P (a fuzzable program, e.g. from generateProgram) as an exported
/// fuzz case named \p Name. When \p Weak is given (an outcome in the
/// layout of fuzz::Outcome), the forbidden clause pins it exactly: every
/// load's value, keyed by the load's register, and every final memory
/// value; otherwise the clause is empty and the test never reports weak
/// (useful as a program listing).
litmus::Program toLitmusProgram(const litmus::Program &P,
                                const std::string &Name,
                                const Outcome *Weak = nullptr);

/// Why \p P cannot be fuzzed, or an empty string when it can. The fuzz
/// model needs a well-formed program of exactly two threads in distinct
/// blocks, only st/ld/add/fence ops, and an all-zero initial state.
std::string fuzzabilityError(const litmus::Program &P);

} // namespace fuzz
} // namespace gpuwmm

#endif // GPUWMM_FUZZ_LITMUSBRIDGE_H
