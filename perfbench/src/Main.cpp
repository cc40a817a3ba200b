//===- perfbench/src/Main.cpp - Benchmark program -------------------------===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
///   perfbench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
///             [--quick] [--work-dir=DIR]
///
/// --trace=0 sets the workload up five times, then times untraced passes
/// for about --seconds and prints the end-to-end metrics. --trace=1 runs
/// one untraced pass, the traced replay, quick replays of the workloads
/// that reach the layers this one does not, and the layer probes, prints
/// the per-layer metrics and writes the spans to DIR/spans-NAME.json.
/// Either way the last stdout line is one JSON object
/// {"correct", "attempted", "failed", "metrics"}; the exit code is 1 when
/// an output check failed and 2 on bad arguments.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Spans.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

struct Args {
  WorkloadKind Workload = WorkloadKind::Tab5;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  bool Quick = false;
  std::string WorkDir = ".";
};

[[noreturn]] void usage(const std::string &Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload=tab5|tab5-oracle|"
               "hunt|tune [--seed=N] [--seconds=S] [--trace=0|1] [--quick] "
               "[--work-dir=DIR]\n",
               Why.c_str());
  std::exit(2);
}

/// Accepts "--key=value" and "--key value".
Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Key = Argv[I], Value;
    if (Key.rfind("--", 0) != 0)
      usage("unexpected argument '" + Key + "'");
    if (Key == "--quick") {
      A.Quick = true;
      continue;
    }
    if (const size_t Eq = Key.find('='); Eq != std::string::npos) {
      Value = Key.substr(Eq + 1);
      Key.resize(Eq);
    } else if (I + 1 < Argc) {
      Value = Argv[++I];
    } else {
      usage("missing value for " + Key);
    }
    char *End = nullptr;
    if (Key == "--workload") {
      const auto K = parseWorkload(Value);
      if (!K)
        usage("unknown workload '" + Value + "'");
      A.Workload = *K;
      HaveWorkload = true;
      continue;
    }
    if (Key == "--seed") {
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
    } else if (Key == "--seconds") {
      A.Seconds = std::strtod(Value.c_str(), &End);
    } else if (Key == "--trace") {
      A.Trace = std::strtoul(Value.c_str(), &End, 10) != 0;
    } else if (Key == "--work-dir") {
      A.WorkDir = Value;
      continue;
    } else {
      usage("unknown option " + Key);
    }
    if (Value.empty() || !End || *End)
      usage("bad value '" + Value + "' for " + Key);
  }
  if (!HaveWorkload)
    usage("--workload is required");
  return A;
}

/// Pool size: four workers (the size the sizes were chosen for), capped
/// at the machine's cores.
unsigned poolJobs() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

void printResult(const Checks &C, const MetricMap &M) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              C.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(C.Attempted),
              static_cast<unsigned long long>(C.Failed));
  bool First = true;
  for (const auto &[Name, Mt] : M) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", Name.c_str(), Mt.Value, Mt.Unit.c_str());
    First = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Untraced run: repeated set-up, then passes for about A.Seconds.
void runUntraced(const Args &A, const Sizes &S, Checks &C, MetricMap &M) {
  const unsigned SetupReps = A.Quick ? 1 : 5;
  std::vector<double> SetupSec;
  std::unique_ptr<gpuwmm::ThreadPool> Pool;
  std::unique_ptr<Workload> W;
  for (unsigned R = 0; R != SetupReps; ++R) {
    W.reset();
    Pool.reset();
    const Clock::time_point T0 = Clock::now();
    Pool = std::make_unique<gpuwmm::ThreadPool>(poolJobs());
    W = makeWorkload(A.Workload, A.Seed, S, A.WorkDir);
    W->setup(*Pool);
    SetupSec.push_back(secondsBetween(T0, Clock::now()));
  }

  const unsigned MinPasses = A.Quick ? 1 : 2;
  std::vector<double> Wall, Cpu, Rate;
  std::string Reference;
  const Clock::time_point Start = Clock::now();
  while (true) {
    const double Cpu0 = processCpuSeconds();
    const Clock::time_point T0 = Clock::now();
    PassOutput Out = W->pass(*Pool);
    const double Sec = secondsBetween(T0, Clock::now());
    Cpu.push_back(processCpuSeconds() - Cpu0);
    Wall.push_back(Sec);
    Rate.push_back(Out.Units / Sec);
    std::string Problems;
    for (const std::string &P : Out.Problems)
      Problems += (Problems.empty() ? "" : "; ") + P;
    C.expect(Problems.empty(),
             "pass " + std::to_string(Wall.size()) + ": " + Problems);
    if (Wall.size() == 1)
      Reference = std::move(Out.Report);
    else
      C.expect(Out.Report == Reference,
               "pass " + std::to_string(Wall.size()) +
                   " report differs from pass 1");
    const double Elapsed = secondsBetween(Start, Clock::now());
    if (Wall.size() >= MinPasses && Elapsed + median(Wall) > A.Seconds)
      break;
  }

  if (A.Quick && A.Workload == WorkloadKind::Tab5) {
    gpuwmm::ThreadPool One(1);
    C.expect(W->pass(One).Report == Reference,
             "tab5 report at 1 worker differs from " +
                 std::to_string(Pool->jobs()) + " workers");
  }

  M["wall_s"] = {median(Wall), "s"};
  M["cpu_s"] = {median(Cpu), "s"};
  M["throughput"] = {median(Rate), "units/s"};
  M["setup_s"] = {median(SetupSec), "s"};
  M["peak_rss_mb"] = {peakRssMiB(), "MiB"};
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu passes on %u workers; wall "
               "median %.3f s (min %.3f, max %.3f); cpu median %.3f s; "
               "setup median %.3f s of %u\n",
               workloadName(A.Workload),
               static_cast<unsigned long long>(A.Seed), Wall.size(),
               Pool->jobs(), median(Wall),
               *std::min_element(Wall.begin(), Wall.end()),
               *std::max_element(Wall.begin(), Wall.end()), median(Cpu),
               median(SetupSec), SetupReps);
}

/// The layer group each workload reaches with its own replay.
int layerGroup(WorkloadKind K) {
  switch (K) {
  case WorkloadKind::Tab5:
  case WorkloadKind::Tab5Oracle:
    return 0;
  case WorkloadKind::Hunt:
    return 1;
  case WorkloadKind::Tune:
    return 2;
  }
  return -1;
}

/// Traced run: one untraced pass, the traced replay, quick replays for the
/// other layer groups, and the layer probes.
void runTraced(const Args &A, const Sizes &S, Checks &C, MetricMap &M) {
  gpuwmm::ThreadPool Pool(poolJobs());
  SpanLog Log;
  const uint32_t Root =
      Log.open("perfbench.traced", 0, workloadName(A.Workload));

  auto ReplayOne = [&](WorkloadKind K, const Sizes &Sz, double *PassSec,
                       double *ReplaySec) {
    std::unique_ptr<Workload> W = makeWorkload(K, A.Seed, Sz, A.WorkDir);
    W->setup(Pool);
    Clock::time_point T0 = Clock::now();
    const PassOutput Ref = W->pass(Pool);
    if (PassSec)
      *PassSec = secondsBetween(T0, Clock::now());
    T0 = Clock::now();
    const PassOutput Rep = W->replay(Pool, Log, Root, M);
    if (ReplaySec)
      *ReplaySec = secondsBetween(T0, Clock::now());
    for (const PassOutput *O : {&Ref, &Rep})
      for (const std::string &P : O->Problems)
        C.expect(false, std::string(workloadName(K)) + ": " + P);
    C.expect(Rep.Report == Ref.Report,
             std::string(workloadName(K)) +
                 ": traced replay report differs from the untraced pass");
  };

  double PassSec = 0, ReplaySec = 0;
  ReplayOne(A.Workload, S, &PassSec, &ReplaySec);
  for (WorkloadKind K :
       {WorkloadKind::Tab5, WorkloadKind::Hunt, WorkloadKind::Tune})
    if (layerGroup(K) != layerGroup(A.Workload))
      ReplayOne(K, Sizes::quick(), nullptr, nullptr);
  probeLayers(Log, Root, M, C);
  Log.close(Root);

  M["trace.wall_s"] = {ReplaySec, "s"};
  M["trace.untraced_wall_s"] = {PassSec, "s"};
  M["trace.overhead_x"] = {PassSec > 0 ? ReplaySec / PassSec : 0.0, "x"};

  const std::string Path =
      A.WorkDir + "/spans-" + workloadName(A.Workload) + ".json";
  C.expect(Log.write(Path), "cannot write " + Path);
  std::fprintf(stderr,
               "perfbench: %s seed %llu traced: untraced pass %.3f s, "
               "traced replay %.3f s; spans in %s\n",
               workloadName(A.Workload),
               static_cast<unsigned long long>(A.Seed), PassSec, ReplaySec,
               Path.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  const Args A = parseArgs(Argc, Argv);
  const Sizes S = A.Quick ? Sizes::quick() : Sizes::standard();
  Checks C;
  MetricMap M;
  if (A.Trace)
    runTraced(A, S, C, M);
  else
    runUntraced(A, S, C, M);
  if (!A.Trace)
    M["ok_frac"] = {1.0 - static_cast<double>(C.Failed) /
                              static_cast<double>(std::max<uint64_t>(
                                  C.Attempted, 1)),
                    "ratio"};
  for (auto &[Name, Mt] : M)
    if (!std::isfinite(Mt.Value)) {
      C.expect(false, "metric " + Name + " is not finite");
      Mt.Value = 0.0;
    }
  printResult(C, M);
  return C.Failed == 0 ? 0 : 1;
}
