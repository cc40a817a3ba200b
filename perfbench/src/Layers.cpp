//===- perfbench/src/Layers.cpp - Layer probes on a fixed sample ----------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-layer counts and costs that no workload call exposes: the memory
/// system's counters and the trace shape of single application runs, the
/// streaming and post-hoc checkers on those traces, and the oracle's cost
/// per campaign cell. The sample is fixed (independent of the benchmark
/// seed), so its counts repeat exactly from run to run and commit to commit.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include "apps/Application.h"
#include "harness/Campaign.h"
#include "model/ConsistencyChecker.h"
#include "model/StreamingChecker.h"
#include "sim/ExecutionContext.h"
#include "support/Rng.h"

#include <algorithm>

using namespace gpuwmm;
using namespace perfbench;

namespace {

/// The seed every probe derives its runs from.
constexpr uint64_t ProbeSeed = 0x9e3779b97f4a7c15ull;

/// Apps whose traces funnel through one lock or queue head ("hub").
bool isHubApp(apps::AppKind K) {
  return K == apps::AppKind::TpoTm || K == apps::AppKind::CbeDot ||
         K == apps::AppKind::CbeHt;
}

/// Sums over the probe sample, split hub/other where the metric is.
struct Totals {
  sim::MemStats Mem;
  double Runs[2] = {0, 0};       ///< [other, hub] sampled runs.
  double Events[2] = {0, 0};     ///< [other, hub] trace events.
  double StreamSec[2] = {0, 0};  ///< [other, hub] StreamingChecker time.
  double PosthocSec = 0;
  double PeakLive = 0;
  double Retired = 0, Consumed = 0;
};

/// One sampled app run: counters, trace, both checkers.
void probeRun(apps::AppKind App, const stress::Environment &Env,
              uint64_t Seed, SpanLog &Log, uint32_t Parent, Totals &T,
              Checks &C) {
  const sim::ChipProfile &Chip = *sim::ChipProfile::lookup("titan");
  const auto Tuned = stress::TunedStressParams::paperDefaults(Chip);
  const std::string Tag =
      std::string(apps::appName(App)) + "/" + Env.name();
  sim::ExecutionContext Ctx;

  apps::AppVerdict Plain;
  {
    ScopedSpan S(Log, "apps.runApplicationOnce", Parent, Tag);
    Plain = apps::runApplicationOnce(Ctx, App, Chip, Env, Tuned, nullptr,
                                     Seed);
  }
  const sim::MemStats &M = Ctx.memory().stats();
  T.Mem.Loads += M.Loads;
  T.Mem.Stores += M.Stores;
  T.Mem.Atomics += M.Atomics;
  T.Mem.DeviceFences += M.DeviceFences;
  T.Mem.BlockFences += M.BlockFences;
  T.Mem.DrainedStores += M.DrainedStores;
  T.Mem.ForcedSelfDrains += M.ForcedSelfDrains;

  Ctx.requestTracing(true);
  apps::AppVerdict Traced;
  {
    ScopedSpan S(Log, "apps.runApplicationOnce.traced", Parent, Tag);
    Traced = apps::runApplicationOnce(Ctx, App, Chip, Env, Tuned, nullptr,
                                      Seed);
  }
  C.expect(Plain == Traced, "tracing changed the verdict of " + Tag);
  const std::vector<sim::TraceEvent> &Events = Ctx.trace().events();
  const int Hub = isHubApp(App) ? 1 : 0;
  T.Events[Hub] += static_cast<double>(Events.size());
  T.Runs[Hub] += 1;

  model::StreamingChecker SC;
  ScopedSpan SS(Log, "model.StreamingChecker.checkAll", Parent, Tag);
  const model::StreamVerdict SV = SC.checkAll(Events);
  T.StreamSec[Hub] += SS.close();
  T.PeakLive = std::max(T.PeakLive, static_cast<double>(SC.peakLiveEvents()));
  T.Retired += static_cast<double>(SC.retiredEvents());
  T.Consumed += static_cast<double>(SC.consumedEvents());

  model::ConsistencyChecker PC;
  ScopedSpan PS(Log, "model.ConsistencyChecker.check", Parent, Tag);
  const model::CheckResult PV = PC.check(Events);
  T.PosthocSec += PS.close();
  C.expect(SV.AxiomsOk == PV.AxiomsOk && (!SV.AxiomsOk || SV.Sc == PV.Sc),
           "streaming and post-hoc checkers disagree on " + Tag);
  C.expect(SV.AxiomsOk, "axiom violation on " + Tag + ": " +
                            SV.AxiomViolation);
}

/// One campaign cell's time with every run oracle-checked over its time
/// unchecked; the counts must not depend on the oracle.
double oracleOverhead(apps::AppKind App, SpanLog &Log, uint32_t Parent,
                      Checks &C) {
  harness::CampaignConfig Cfg;
  const sim::ChipProfile &Chip = *sim::ChipProfile::lookup("titan");
  Cfg.Chips = {&Chip};
  const stress::Environment Env = *stress::Environment::parse("no-str+");
  Cfg.Envs = {Env};
  Cfg.Apps = {App};
  // Enough runs that the unchecked cell is not a few microseconds; a
  // checked tpo-tm run alone takes seconds.
  Cfg.Runs = App == apps::AppKind::TpoTm ? 2 : 64;
  Cfg.Seed = ProbeSeed;
  const std::string Tag = apps::appName(App);

  ScopedSpan U(Log, "harness.runCampaignAppCell", Parent, Tag + " unchecked");
  const harness::CampaignCell Plain =
      harness::runCampaignAppCell(Cfg, Chip, Env, App, nullptr);
  const double PlainSec = U.close();
  Cfg.OracleEvery = 1;
  ScopedSpan K(Log, "harness.runCampaignAppCell", Parent, Tag + " checked");
  const harness::CampaignCell Checked =
      harness::runCampaignAppCell(Cfg, Chip, Env, App, nullptr);
  const double CheckedSec = K.close();
  C.expect(Plain.Result == Checked.Result,
           "the oracle changed the counts of " + Tag);
  C.expect(Checked.OracleViolations == 0,
           "oracle violation in the " + Tag + " overhead probe");
  return PlainSec > 0 ? CheckedSec / PlainSec : 0.0;
}

} // namespace

void perfbench::probeLayers(SpanLog &Log, uint32_t Parent, MetricMap &M,
                            Checks &C) {
  ScopedSpan Top(Log, "probe.layers", Parent);
  Totals T;
  const stress::Environment Envs[] = {*stress::Environment::parse("no-str+"),
                                      *stress::Environment::parse(
                                          "cache-str-")};
  for (size_t A = 0; A != apps::AllAppKinds.size(); ++A)
    for (size_t E = 0; E != std::size(Envs); ++E)
      probeRun(apps::AllAppKinds[A], Envs[E],
               Rng::deriveStream(ProbeSeed, A * std::size(Envs) + E), Log,
               Top.id(), T, C);

  auto PerRun = [&](uint64_t N) {
    return static_cast<double>(N) / (T.Runs[0] + T.Runs[1]);
  };
  M["sim.mem.loads_per_run"] = {PerRun(T.Mem.Loads), "count"};
  M["sim.mem.stores_per_run"] = {PerRun(T.Mem.Stores), "count"};
  M["sim.mem.atomics_per_run"] = {PerRun(T.Mem.Atomics), "count"};
  M["sim.mem.fences_per_run"] = {
      PerRun(T.Mem.DeviceFences + T.Mem.BlockFences), "count"};
  M["sim.mem.drained_per_run"] = {PerRun(T.Mem.DrainedStores), "count"};
  M["sim.mem.forced_drains_per_run"] = {PerRun(T.Mem.ForcedSelfDrains),
                                        "count"};
  M["sim.trace.events_per_run.hub"] = {T.Events[1] / T.Runs[1], "count"};
  M["sim.trace.events_per_run.other"] = {T.Events[0] / T.Runs[0], "count"};
  M["model.stream.ns_per_event.hub"] = {1e9 * T.StreamSec[1] / T.Events[1],
                                        "ns"};
  M["model.stream.ns_per_event.other"] = {1e9 * T.StreamSec[0] / T.Events[0],
                                          "ns"};
  M["model.posthoc.ns_per_event"] = {
      1e9 * T.PosthocSec / (T.Events[0] + T.Events[1]), "ns"};
  M["model.peak_live"] = {T.PeakLive, "count"};
  M["model.retired_frac"] = {T.Retired / T.Consumed, "ratio"};

  for (apps::AppKind App : {apps::AppKind::TpoTm, apps::AppKind::CbeHt,
                            apps::AppKind::LsBh})
    M[std::string("model.overhead_x.") + apps::appName(App)] = {
        oracleOverhead(App, Log, Top.id(), C), "x"};
}
