//===- tests/EngineModeGuard.h - Scoped engine selection --------*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// Every per-run entry point picks its engine from the process-wide
// --engine mode alone, so tests reach the reference engine (the
// Scheduler) by switching the mode for a scope.
//
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_TESTS_ENGINEMODEGUARD_H
#define GPUWMM_TESTS_ENGINEMODEGUARD_H

#include "sim/BatchExec.h"

#include "gtest/gtest.h"

namespace gpuwmm {

/// Installs an engine mode and restores the previous one on scope exit.
class EngineModeGuard {
public:
  explicit EngineModeGuard(sim::EngineMode M) : Saved(sim::engineMode()) {
    sim::setEngineMode(M);
  }
  ~EngineModeGuard() { sim::setEngineMode(Saved); }

  EngineModeGuard(const EngineModeGuard &) = delete;
  EngineModeGuard &operator=(const EngineModeGuard &) = delete;

private:
  sim::EngineMode Saved;
};

/// Runs \p Body once on each engine, the reference engine first.
template <typename Fn> void onBothEngines(Fn Body) {
  for (const sim::EngineMode M :
       {sim::EngineMode::Scalar, sim::EngineMode::Auto}) {
    SCOPED_TRACE(sim::engineModeName(M));
    EngineModeGuard Guard(M);
    Body();
  }
}

} // namespace gpuwmm

#endif // GPUWMM_TESTS_ENGINEMODEGUARD_H
