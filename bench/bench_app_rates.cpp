//===- bench/bench_app_rates.cpp - Scalar vs compiled application A/B ---------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// A/B-measures the compiled application engine (DESIGN.md Sec. 19) against
// the scalar coroutine interpreter on the unit of work the Tab. 5 campaign
// performs millions of times: one full application execution under the
// tuned sys-str+ environment. The arms run the same runApplicationOnce
// loop and differ only in the engine mode (--engine=scalar vs auto). One
// arm per lowered kernel code base —
// sdk-red (regular reduction), cub-scan (decoupled-lookback polls),
// cbe-dot (spin locks), cbe-ht (data-dependent addressing) — so each
// control-flow shape the compiler lowers is measured separately.
//
// Hard failure conditions:
//  * any arm's per-run verdict sequence diverges between scalar and
//    compiled execution (a determinism-contract violation), or
//  * a baseline JSON is supplied (--baseline=FILE or GPUWMM_BENCH_BASELINE)
//    and the aggregate scalar throughput regressed more than 2% against
//    its committed scalar_runs_per_sec — the guard that keeps the shared
//    scalar engine honest while the compiled engine carries the speedup.
//    The committed reference lives in bench/baselines/ (same-machine
//    comparisons only; see its README).
//
//===----------------------------------------------------------------------===//

#include "apps/AppCompile.h"
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

/// One application's A/B: runApplicationOnce loops under --engine=scalar
/// and auto, per-run verdicts compared bit for bit.
struct ArmResult {
  double ScalarSeconds = 0;
  double BatchedSeconds = 0;
  bool Identical = false;
  double speedup() const {
    return BatchedSeconds > 0.0 ? ScalarSeconds / BatchedSeconds : 0.0;
  }
};

ArmResult runArm(apps::AppKind App, const sim::ChipProfile &Chip,
                 const stress::Environment &Env,
                 const stress::TunedStressParams &Tuned, unsigned Runs,
                 uint64_t Seed) {
  ArmResult R;
  std::vector<apps::AppVerdict> ScalarV(Runs), BatchedV(Runs);
  std::vector<uint64_t> Seeds(Runs);
  for (unsigned I = 0; I != Runs; ++I)
    Seeds[I] = Rng::deriveStream(Seed, I);

  // Interleave the engines in slices so clock-speed drift (thermal
  // throttling, noisy neighbours) hits both arms equally instead of
  // whichever ran second. Each engine owns one recycled context and
  // consumes the shared seed stream contiguously, so per-run verdicts
  // stay comparable index by index.
  sim::ExecutionContext ScalarCtx, BatchedCtx;
  const unsigned SliceRuns = std::max(1u, Runs / 20);
  for (unsigned Done = 0; Done != Runs;) {
    const unsigned N = std::min(SliceRuns, Runs - Done);
    sim::setEngineMode(sim::EngineMode::Scalar);
    double T = now();
    for (unsigned I = Done; I != Done + N; ++I)
      ScalarV[I] = apps::runApplicationOnce(ScalarCtx, App, Chip, Env,
                                            Tuned, nullptr, Seeds[I]);
    R.ScalarSeconds += now() - T;
    sim::setEngineMode(sim::EngineMode::Auto);
    T = now();
    for (unsigned I = Done; I != Done + N; ++I)
      BatchedV[I] = apps::runApplicationOnce(BatchedCtx, App, Chip, Env,
                                             Tuned, nullptr, Seeds[I]);
    R.BatchedSeconds += now() - T;
    Done += N;
  }

  R.Identical = ScalarV == BatchedV;
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts(Argc, Argv);
  const auto &Chip = *sim::ChipProfile::lookup("titan");
  const unsigned Runs = scaledCount(2000);
  const uint64_t Seed = 42;
  const stress::Environment Env{stress::StressKind::Sys, true};
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  const apps::AppKind Apps[] = {apps::AppKind::SdkRed,
                                apps::AppKind::CubScan,
                                apps::AppKind::CbeDot, apps::AppKind::CbeHt};

  std::printf("app batch: %u sys-str+ executions per kernel and engine, "
              "seed %llu\n\n",
              Runs, static_cast<unsigned long long>(Seed));

  // Warm both engines (plan compilation, context lane state) so no arm pays
  // first-run allocation.
  for (apps::AppKind App : Apps)
    (void)runArm(App, Chip, Env, Tuned, std::max(8u, Runs / 50), Seed + 1);

  Table T({"app", "scalar s", "batched s", "scalar/s", "batched/s",
           "speedup", "identical"});
  double ScalarTotal = 0, BatchedTotal = 0;
  bool Identical = true;
  double BestSpeedup = 0;
  std::string Json;
  for (apps::AppKind App : Apps) {
    const ArmResult R = runArm(App, Chip, Env, Tuned, Runs, Seed);
    ScalarTotal += R.ScalarSeconds;
    BatchedTotal += R.BatchedSeconds;
    Identical = Identical && R.Identical;
    BestSpeedup = std::max(BestSpeedup, R.speedup());
    T.addRow({apps::appName(App), formatDouble(R.ScalarSeconds, 3),
              formatDouble(R.BatchedSeconds, 3),
              formatDouble(Runs / R.ScalarSeconds, 0),
              formatDouble(Runs / R.BatchedSeconds, 0),
              formatDouble(R.speedup(), 2) + "x",
              R.Identical ? "yes" : "NO"});
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf), "\"%s_speedup\": %.2f, ",
                  apps::appName(App), R.speedup());
    for (char *C = Buf; *C; ++C)
      if (*C == '-')
        *C = '_';
    Json += Buf;
  }
  T.print(std::cout);

  const double ScalarRate = 4.0 * Runs / ScalarTotal;
  const double BatchedRate = 4.0 * Runs / BatchedTotal;

  // Optional committed-baseline guard for the aggregate scalar path (>2%
  // regression fails). Same-machine comparisons only — never enabled
  // blindly in CI.
  bool BaselineOk = true;
  std::string BaselinePath = Opts.getString("baseline", "");
  if (BaselinePath.empty())
    if (const char *E = std::getenv("GPUWMM_BENCH_BASELINE"))
      BaselinePath = E;
  if (!BaselinePath.empty()) {
    const double Reference = baselineScalarRunsPerSec(BaselinePath);
    if (Reference <= 0.0) {
      BaselineOk = false;
    } else {
      const double Ratio = ScalarRate / Reference;
      BaselineOk = Ratio >= 0.98;
      std::printf("\nscalar path vs baseline %s: %.0f vs %.0f runs/s "
                  "(%+.1f%%) -> %s\n",
                  BaselinePath.c_str(), ScalarRate, Reference,
                  100.0 * (Ratio - 1.0),
                  BaselineOk ? "ok" : "REGRESSION (>2%)");
    }
  }

  std::printf("\n{\"bench\": \"app_batch\", \"runs\": %u, "
              "\"scalar_runs_per_sec\": %.0f, "
              "\"batched_runs_per_sec\": %.0f, %s\"best_speedup\": %.2f, "
              "\"identical\": %s}\n",
              Runs, ScalarRate, BatchedRate, Json.c_str(), BestSpeedup,
              Identical ? "true" : "false");

  // Identity is the determinism contract; the baseline guard is the
  // scalar-path-unharmed contract. Speedups are reported, not gated:
  // machines differ, but divergence and scalar regressions are bugs
  // everywhere.
  return Identical && BaselineOk ? 0 : 1;
}
