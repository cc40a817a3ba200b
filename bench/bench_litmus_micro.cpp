//===- bench/bench_litmus_micro.cpp - Scalar vs compiled litmus A/B ----------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// A/B-measures the compiled litmus engine (DESIGN.md Sec. 17) against the
// coroutine reference interpretation of the same op stream
// (sim::runProgram under --engine=scalar) on the unit of work the Sec. 3
// tuning pipeline performs hundreds of millions of times: one full
// litmus-test execution. The arms differ only in the engine mode (--engine=scalar vs
// auto). Two configurations per arm:
//
//  * plain:    native MP executions (no stress) — the pure interpreter
//              loop, where the compiled engine's flat op streams and
//              recycled lane state pay off most directly.
//  * stressed: tuned sys-str MP executions — the tuning pipeline's real
//              workload, with the per-call stress source amortised.
//
// Hard failure conditions:
//  * any arm's per-run weak-verdict sequence diverges between scalar and
//    compiled execution (a determinism-contract violation), or
//  * a baseline JSON is supplied (--baseline=FILE or GPUWMM_BENCH_BASELINE)
//    and the scalar plain-path throughput regressed more than 2% against
//    its committed scalar_runs_per_sec — the guard that keeps the shared
//    scalar engine honest while the compiled engine carries the speedup.
//    The committed reference lives in bench/baselines/ (same-machine
//    comparisons only; see its README).
//
//===----------------------------------------------------------------------===//

#include "litmus/Litmus.h"
#include "stress/Environment.h"
#include "support/Options.h"
#include "support/Table.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace gpuwmm;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Extracts "scalar_runs_per_sec": <number> from a baseline JSON (no JSON
/// dependency; the bench writes the field itself, so the shape is known).
double baselineScalarRunsPerSec(const std::string &Path) {
  std::ifstream IS(Path);
  if (!IS) {
    std::fprintf(stderr, "error: cannot read baseline '%s'\n", Path.c_str());
    return -1.0;
  }
  std::ostringstream Text;
  Text << IS.rdbuf();
  const std::string Key = "\"scalar_runs_per_sec\": ";
  const size_t At = Text.str().find(Key);
  if (At == std::string::npos) {
    std::fprintf(stderr, "error: no scalar_runs_per_sec in '%s'\n",
                 Path.c_str());
    return -1.0;
  }
  return std::strtod(Text.str().c_str() + At + Key.size(), nullptr);
}

/// One configuration's A/B: a runOnce loop under --engine=scalar vs one
/// compiled countWeak call, per-run verdicts compared bit for bit.
struct ArmResult {
  double ScalarSeconds = 0;
  double BatchedSeconds = 0;
  bool Identical = false;
  double speedup() const {
    return BatchedSeconds > 0.0 ? ScalarSeconds / BatchedSeconds : 0.0;
  }
};

ArmResult runArm(const sim::ChipProfile &Chip, const litmus::Program &P,
                 unsigned Distance,
                 const litmus::LitmusRunner::MicroStress &S, unsigned Runs,
                 uint64_t Seed) {
  ArmResult R;
  std::vector<uint8_t> ScalarWeak, BatchedWeak, Slice;
  ScalarWeak.reserve(Runs);
  BatchedWeak.reserve(Runs);

  // Interleave the engines in slices so clock-speed drift (thermal
  // throttling, noisy neighbours) hits both arms equally instead of
  // whichever ran second. Each runner still consumes its seed stream
  // contiguously, so per-run verdicts stay comparable index by index.
  litmus::LitmusRunner Scalar(Chip, Seed);
  litmus::LitmusRunner Batched(Chip, Seed);
  const unsigned SliceRuns = std::max(1u, Runs / 20);
  for (unsigned Done = 0; Done != Runs;) {
    const unsigned N = std::min(SliceRuns, Runs - Done);
    sim::setEngineMode(sim::EngineMode::Scalar);
    double T = now();
    for (unsigned I = 0; I != N; ++I)
      ScalarWeak.push_back(Scalar.runOnce(P, Distance, S));
    R.ScalarSeconds += now() - T;
    sim::setEngineMode(sim::EngineMode::Auto);
    T = now();
    (void)Batched.countWeak(P, Distance, S, N, {}, &Slice);
    R.BatchedSeconds += now() - T;
    BatchedWeak.insert(BatchedWeak.end(), Slice.begin(), Slice.end());
    Done += N;
  }

  R.Identical = ScalarWeak == BatchedWeak;
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts(Argc, Argv);
  const auto &Chip = *sim::ChipProfile::lookup("titan");
  const unsigned Runs = scaledCount(40000);
  const uint64_t Seed = 42;
  const litmus::Program &P = litmus::catalogProgram(litmus::LitmusKind::MP);
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  const auto Stress = litmus::LitmusRunner::MicroStress::at(Tuned.Seq, 64);
  const unsigned Distance = 2 * Chip.PatchSizeWords;

  std::printf("litmus micro: %u MP executions per arm and configuration, "
              "seed %llu\n\n",
              Runs, static_cast<unsigned long long>(Seed));

  // Warm the thread-local context pool so no arm pays first-run
  // allocation.
  {
    litmus::LitmusRunner Warm(Chip, Seed);
    (void)Warm.countWeak(P, Distance, Stress, 200);
    sim::setEngineMode(sim::EngineMode::Scalar);
    for (unsigned I = 0; I != 200; ++I)
      (void)Warm.runOnce(P, Distance, litmus::LitmusRunner::MicroStress::none());
    sim::setEngineMode(sim::EngineMode::Auto);
  }

  const ArmResult Plain =
      runArm(Chip, P, Distance, litmus::LitmusRunner::MicroStress::none(),
             Runs, Seed);
  const ArmResult Stressed = runArm(Chip, P, Distance, Stress, Runs, Seed);

  const bool Identical = Plain.Identical && Stressed.Identical;
  const double ScalarRate = Runs / Plain.ScalarSeconds;
  const double BatchedRate = Runs / Plain.BatchedSeconds;
  const double StressedScalarRate = Runs / Stressed.ScalarSeconds;
  const double StressedBatchedRate = Runs / Stressed.BatchedSeconds;

  Table T({"config", "engine", "seconds", "runs/s", "speedup", "identical"});
  T.addRow({"plain", "scalar", formatDouble(Plain.ScalarSeconds, 3),
            formatDouble(ScalarRate, 0), "1.00x", "-"});
  T.addRow({"plain", "batched", formatDouble(Plain.BatchedSeconds, 3),
            formatDouble(BatchedRate, 0),
            formatDouble(Plain.speedup(), 2) + "x",
            Plain.Identical ? "yes" : "NO"});
  T.addRow({"stressed", "scalar", formatDouble(Stressed.ScalarSeconds, 3),
            formatDouble(StressedScalarRate, 0), "1.00x", "-"});
  T.addRow({"stressed", "batched", formatDouble(Stressed.BatchedSeconds, 3),
            formatDouble(StressedBatchedRate, 0),
            formatDouble(Stressed.speedup(), 2) + "x",
            Stressed.Identical ? "yes" : "NO"});
  T.print(std::cout);

  // Optional committed-baseline guard for the scalar plain path (>2%
  // regression fails). Same-machine comparisons only — never enabled
  // blindly in CI.
  bool BaselineOk = true;
  std::string BaselinePath = Opts.getString("baseline", "");
  if (BaselinePath.empty())
    if (const char *Env = std::getenv("GPUWMM_BENCH_BASELINE"))
      BaselinePath = Env;
  if (!BaselinePath.empty()) {
    const double Reference = baselineScalarRunsPerSec(BaselinePath);
    if (Reference <= 0.0) {
      BaselineOk = false;
    } else {
      const double Ratio = ScalarRate / Reference;
      BaselineOk = Ratio >= 0.98;
      std::printf("\nscalar plain path vs baseline %s: %.0f vs %.0f runs/s "
                  "(%+.1f%%) -> %s\n",
                  BaselinePath.c_str(), ScalarRate, Reference,
                  100.0 * (Ratio - 1.0),
                  BaselineOk ? "ok" : "REGRESSION (>2%)");
    }
  }

  std::printf("\n{\"bench\": \"batched_litmus\", \"runs\": %u, "
              "\"scalar_runs_per_sec\": %.0f, "
              "\"batched_runs_per_sec\": %.0f, \"speedup\": %.2f, "
              "\"stressed_scalar_runs_per_sec\": %.0f, "
              "\"stressed_batched_runs_per_sec\": %.0f, "
              "\"stressed_speedup\": %.2f, \"identical\": %s}\n",
              Runs, ScalarRate, BatchedRate, Plain.speedup(),
              StressedScalarRate, StressedBatchedRate, Stressed.speedup(),
              Identical ? "true" : "false");

  // Identity is the determinism contract; the baseline guard is the
  // scalar-path-unharmed contract. The speedup itself is reported, not
  // gated: machines differ, but divergence and scalar regressions are
  // bugs everywhere.
  return Identical && BaselineOk ? 0 : 1;
}
