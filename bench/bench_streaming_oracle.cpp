//===- bench/bench_streaming_oracle.cpp - Online oracle overhead A/B ----------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
// A/B/C/D-measures the streaming consistency oracle (DESIGN.md Sec. 15) on
// the litmus hot path (stressed MP executions, the unit `campaign
// --oracle=all` pays per checked run):
//
//  * off:        no observation — the production path.
//  * trace-only: the recorder seam alone (events appended, never checked).
//  * streaming:  the online checker as the run's sink (axioms + live
//                po ∪ rf ∪ co ∪ fr graph, frontier-bounded memory).
//  * post-hoc:   record, then replay the trace through the reference
//                checker — what --oracle cost before the streaming rework.
//
// Hard failure conditions:
//  * any arm's weak-outcome sequence differs from the off arm's (the
//    oracle perturbed the simulation — a determinism-contract violation),
//  * a streamed run is judged inconsistent (the simulator must satisfy its
//    own model), or
//  * the streaming arm costs more than STREAM_BUDGET times the trace-only
//    arm (the in-process relative budget: checking while tracing may cost
//    a bounded multiple of tracing alone, measured in the same process so
//    machine speed cancels out), or
//  * a baseline JSON is supplied (--baseline=FILE or GPUWMM_BENCH_BASELINE)
//    and the off-arm throughput regressed more than 2% against its
//    committed off_runs_per_sec (bench/baselines/; same-machine only).
//
// The app-trace arms replay recorded titan traces of the three hub-heavy
// applications (tpo-tm, cbe-ht, ls-bh; unstressed, so the runs stay
// sequentially consistent and the live graph does work to the end)
// through both checkers, where the litmus arms above never build a hub.
// Each arm hard-fails when the checkers' verdicts differ, when streaming
// costs more than its budgeted multiple of the post-hoc replay of the same
// traces, or when the live graph's edge operations per event exceed the
// arm's budget. The last is a deterministic work counter: a splice that
// densifies again (the unreduced one spent over 300 per event on tpo-tm)
// fails it on any machine.
//
//===----------------------------------------------------------------------===//

#include "apps/Application.h"
#include "litmus/Litmus.h"
#include "model/ConsistencyChecker.h"
#include "model/StreamingChecker.h"
#include "sim/ExecutionContext.h"
#include "stress/Environment.h"
#include "support/Options.h"
#include "support/Table.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace gpuwmm;

namespace {

/// The in-process relative budget: streaming-checked runs may cost at most
/// this multiple of tracing-only runs. Measured ~2x on the reference
/// container; 3.5x leaves noise headroom while still catching an
/// accidental per-event allocation or a quadratic frontier walk.
constexpr double StreamBudget = 3.5;

/// One app-trace arm's budgets: streaming seconds over post-hoc seconds on
/// the same traces, and live-graph edge operations per event. Measured on
/// a 4-core x86 host: tpo-tm 38-56x and 76/event (the unreduced splice:
/// ~500x and over 300/event), cbe-ht ~5x and 14/event, ls-bh ~3x and
/// 3/event.
struct AppArm {
  apps::AppKind App;
  double TimeBudget;
  double EdgeOpsBudget;
};
constexpr AppArm AppArms[] = {
    {apps::AppKind::TpoTm, 100.0, 100.0},
    {apps::AppKind::CbeHt, 20.0, 20.0},
    {apps::AppKind::LsBh, 20.0, 5.0},
};

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Extracts "off_runs_per_sec": <number> from a baseline JSON (no JSON
/// dependency; the bench writes the field itself, so the shape is known).
double baselineOffRunsPerSec(const std::string &Path) {
  std::ifstream IS(Path);
  if (!IS) {
    std::fprintf(stderr, "error: cannot read baseline '%s'\n", Path.c_str());
    return -1.0;
  }
  std::ostringstream Text;
  Text << IS.rdbuf();
  const std::string Key = "\"off_runs_per_sec\": ";
  const size_t At = Text.str().find(Key);
  if (At == std::string::npos) {
    std::fprintf(stderr, "error: no off_runs_per_sec in '%s'\n",
                 Path.c_str());
    return -1.0;
  }
  return std::strtod(Text.str().c_str() + At + Key.size(), nullptr);
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts(Argc, Argv);
  const auto &Chip = *sim::ChipProfile::lookup("titan");
  const unsigned Runs = scaledCount(20000);
  const uint64_t Seed = 42;
  const litmus::Program &P = litmus::catalogProgram(litmus::LitmusKind::MP);
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  const auto Stress = litmus::LitmusRunner::MicroStress::at(Tuned.Seq, 64);
  const unsigned Distance = 2 * Chip.PatchSizeWords;

  std::printf("streaming oracle: %u stressed MP executions per arm, "
              "seed %llu\n\n",
              Runs, static_cast<unsigned long long>(Seed));

  // Warm the thread-local context pool so no arm pays first-run
  // allocation.
  {
    litmus::LitmusRunner Warm(Chip, Seed);
    (void)Warm.countWeak(P, Distance, Stress, 200);
  }

  // --- Arm A: observation off (the production path) --------------------------
  std::vector<uint8_t> OffWeak(Runs), TraceWeak(Runs), StreamWeak(Runs),
      PostWeak(Runs);
  litmus::LitmusRunner Off(Chip, Seed);
  const double OffStart = now();
  for (unsigned I = 0; I != Runs; ++I)
    OffWeak[I] = Off.runOnce(P, Distance, Stress);
  const double OffSeconds = now() - OffStart;

  // --- Arm B: trace-only (record, never check) -------------------------------
  litmus::LitmusRunner Traced(Chip, Seed);
  litmus::LitmusRunner::RunOpts TraceOpts;
  TraceOpts.Trace = true;
  const double TraceStart = now();
  for (unsigned I = 0; I != Runs; ++I)
    TraceWeak[I] = Traced.runOnce(P, Distance, Stress, TraceOpts);
  const double TraceSeconds = now() - TraceStart;

  // --- Arm C: streaming oracle ----------------------------------------------
  litmus::LitmusRunner Streamed(Chip, Seed);
  model::StreamingChecker Checker;
  litmus::LitmusRunner::RunOpts StreamOpts;
  StreamOpts.Sink = &Checker;
  unsigned StreamWeakVerdicts = 0, StreamViolations = 0;
  const double StreamStart = now();
  for (unsigned I = 0; I != Runs; ++I) {
    Checker.begin();
    StreamWeak[I] = Streamed.runOnce(P, Distance, Stress, StreamOpts);
    const model::StreamVerdict &R = Checker.finish();
    StreamViolations += !R.AxiomsOk;
    StreamWeakVerdicts += R.weak();
  }
  const double StreamSeconds = now() - StreamStart;

  // --- Arm D: post-hoc (record + replay through the reference checker) ------
  litmus::LitmusRunner Replayed(Chip, Seed);
  model::ConsistencyChecker PostHoc;
  unsigned PostViolations = 0;
  const double PostStart = now();
  for (unsigned I = 0; I != Runs; ++I) {
    PostWeak[I] = Replayed.runOnce(P, Distance, Stress, TraceOpts);
    PostViolations += !PostHoc.check(Replayed.trace()).AxiomsOk;
  }
  const double PostSeconds = now() - PostStart;

  const bool Identical = OffWeak == TraceWeak && OffWeak == StreamWeak &&
                         OffWeak == PostWeak;
  const bool Clean = StreamViolations == 0 && PostViolations == 0;
  const double OffRate = Runs / OffSeconds;
  const double TraceRate = Runs / TraceSeconds;
  const double StreamRate = Runs / StreamSeconds;
  const double PostRate = Runs / PostSeconds;
  const double StreamRatio =
      TraceSeconds > 0.0 ? StreamSeconds / TraceSeconds : 0.0;
  const bool WithinBudget = StreamRatio <= StreamBudget;

  Table T({"arm", "seconds", "runs/s", "identical"});
  T.addRow({"off", formatDouble(OffSeconds, 3), formatDouble(OffRate, 0),
            "-"});
  T.addRow({"trace-only", formatDouble(TraceSeconds, 3),
            formatDouble(TraceRate, 0), OffWeak == TraceWeak ? "yes" : "NO"});
  T.addRow({"streaming", formatDouble(StreamSeconds, 3),
            formatDouble(StreamRate, 0),
            OffWeak == StreamWeak ? "yes" : "NO"});
  T.addRow({"post-hoc", formatDouble(PostSeconds, 3),
            formatDouble(PostRate, 0), OffWeak == PostWeak ? "yes" : "NO"});
  T.print(std::cout);
  std::printf("\nstreaming vs trace-only: %.2fx (budget %.1fx) -> %s\n",
              StreamRatio, StreamBudget,
              WithinBudget ? "ok" : "OVER BUDGET");
  std::printf("streaming weak verdicts: %u/%u; violations: %u\n",
              StreamWeakVerdicts, Runs, StreamViolations);

  // --- App-trace arms: hub-heavy traces, streaming vs post-hoc ------------
  const unsigned AppRuns = scaledCount(6);
  const stress::Environment Unstressed{stress::StressKind::None, false};
  std::printf("\napp traces: %u recorded unstressed titan runs per app\n\n",
              AppRuns);
  Table AT({"app", "events", "post-hoc s", "streaming s", "ratio",
            "edge ops/event", "peak degree", "verdict"});
  bool AppsOk = true;
  std::string AppJson;
  sim::ExecutionContext Ctx;
  Ctx.requestTracing(true);
  for (const AppArm &Arm : AppArms) {
    std::vector<std::vector<sim::TraceEvent>> Traces;
    for (unsigned I = 0; I != AppRuns; ++I) {
      (void)apps::runApplicationOnce(Ctx, Arm.App, Chip, Unstressed, Tuned,
                                     /*Policy=*/nullptr,
                                     Rng::deriveStream(Seed, I));
      Traces.push_back(Ctx.trace().events());
    }
    uint64_t Events = 0, EdgeOps = 0;
    size_t PeakDegree = 0;
    std::vector<uint8_t> PostVerdicts, StreamVerdicts;
    const double PostStart = now();
    for (const auto &T : Traces) {
      const model::CheckResult R = PostHoc.check(T);
      PostVerdicts.push_back(R.AxiomsOk ? 1 + R.weak() : 0);
    }
    const double AppPostSeconds = now() - PostStart;
    const double ArmStart = now();
    for (const auto &T : Traces) {
      const model::StreamVerdict &R = Checker.checkAll(T);
      StreamVerdicts.push_back(R.AxiomsOk ? 1 + R.weak() : 0);
      Events += T.size();
      EdgeOps += Checker.edgeOps();
      PeakDegree = std::max(PeakDegree, Checker.peakDegree());
    }
    const double AppStreamSeconds = now() - ArmStart;
    const double Ratio =
        AppPostSeconds > 0.0 ? AppStreamSeconds / AppPostSeconds : 0.0;
    const double OpsPerEvent =
        Events ? static_cast<double>(EdgeOps) / Events : 0.0;
    const bool Agree = PostVerdicts == StreamVerdicts;
    const bool Ok = Agree && Ratio <= Arm.TimeBudget &&
                    OpsPerEvent <= Arm.EdgeOpsBudget;
    AppsOk = AppsOk && Ok;
    AT.addRow({apps::appName(Arm.App), std::to_string(Events),
               formatDouble(AppPostSeconds, 3),
               formatDouble(AppStreamSeconds, 3),
               formatDouble(Ratio, 1) + "x (<=" +
                   formatDouble(Arm.TimeBudget, 0) + ")",
               formatDouble(OpsPerEvent, 1) + " (<=" +
                   formatDouble(Arm.EdgeOpsBudget, 0) + ")",
               std::to_string(PeakDegree),
               !Agree ? "CHECKERS DISAGREE" : Ok ? "ok" : "OVER BUDGET"});
    char Buf[256];
    std::snprintf(Buf, sizeof Buf,
                  "%s{\"app\": \"%s\", \"events\": %llu, "
                  "\"stream_vs_posthoc_ratio\": %.2f, "
                  "\"edge_ops_per_event\": %.2f, \"peak_degree\": %zu}",
                  AppJson.empty() ? "" : ", ", apps::appName(Arm.App),
                  static_cast<unsigned long long>(Events), Ratio, OpsPerEvent,
                  PeakDegree);
    AppJson += Buf;
  }
  AT.print(std::cout);

  // Optional committed-baseline guard for the off path (>2% regression
  // fails). Same-machine comparisons only — never enabled blindly in CI.
  bool BaselineOk = true;
  std::string BaselinePath = Opts.getString("baseline", "");
  if (BaselinePath.empty())
    if (const char *Env = std::getenv("GPUWMM_BENCH_BASELINE"))
      BaselinePath = Env;
  if (!BaselinePath.empty()) {
    const double Reference = baselineOffRunsPerSec(BaselinePath);
    if (Reference <= 0.0) {
      BaselineOk = false;
    } else {
      const double Ratio = OffRate / Reference;
      BaselineOk = Ratio >= 0.98;
      std::printf("off-path vs baseline %s: %.0f vs %.0f runs/s "
                  "(%+.1f%%) -> %s\n",
                  BaselinePath.c_str(), OffRate, Reference,
                  100.0 * (Ratio - 1.0),
                  BaselineOk ? "ok" : "REGRESSION (>2%)");
    }
  }

  std::printf("\n{\"bench\": \"streaming_oracle\", \"runs\": %u, "
              "\"off_runs_per_sec\": %.0f, \"trace_runs_per_sec\": %.0f, "
              "\"stream_runs_per_sec\": %.0f, \"posthoc_runs_per_sec\": "
              "%.0f, \"stream_vs_trace_ratio\": %.2f, \"identical\": %s, "
              "\"app_arms\": [%s]}\n",
              Runs, OffRate, TraceRate, StreamRate, PostRate, StreamRatio,
              Identical ? "true" : "false", AppJson.c_str());

  // Identity, axiom-cleanliness and checker agreement are correctness
  // contracts; the relative budgets and the edge-op budget are the
  // "checking every run is affordable" contract.
  return Identical && Clean && WithinBudget && AppsOk && BaselineOk ? 0 : 1;
}
