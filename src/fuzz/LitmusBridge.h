//===- fuzz/LitmusBridge.h - Fuzz programs as .litmus tests -----*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Conversions between the fuzzer's two-thread programs and the litmus IR,
/// so a failing fuzz case shrinks to a replayable `.litmus` artifact: the
/// generated program becomes a litmus test whose forbidden clause pins the
/// observed non-SC outcome, and an exported file can be imported back for
/// re-fuzzing against the exhaustive SC set.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_FUZZ_LITMUSBRIDGE_H
#define GPUWMM_FUZZ_LITMUSBRIDGE_H

#include "fuzz/ProgramFuzzer.h"
#include "litmus/Program.h"

#include <optional>
#include <string>

namespace gpuwmm {
namespace fuzz {

/// Expresses \p P in the litmus IR: locations v0..vN-1 in variable order,
/// registers r0.. in load order (thread 0's loads first), two threads in
/// blocks 0 and 1, and the fuzz runner's start-phase jitter. When
/// \p Weak is given (an outcome in the layout of fuzz::Outcome), the
/// forbidden clause pins it exactly: every load's value and every final
/// memory value; otherwise the clause is empty and the test never reports
/// weak (useful as a program listing).
litmus::Program toLitmusProgram(const Program &P, const std::string &Name,
                                const Outcome *Weak = nullptr);

/// Converts a litmus program back into a fuzz program, for re-fuzzing an
/// exported case against its exhaustive SC set. Requires exactly two
/// threads in distinct blocks, only st/ld/add/fence ops, and an all-zero
/// initial state (the fuzz model's assumptions). On failure returns
/// std::nullopt and, when \p Why is non-null, a description of the first
/// unrepresentable construct.
std::optional<Program> fromLitmusProgram(const litmus::Program &P,
                                         std::string *Why = nullptr);

} // namespace fuzz
} // namespace gpuwmm

#endif // GPUWMM_FUZZ_LITMUSBRIDGE_H
