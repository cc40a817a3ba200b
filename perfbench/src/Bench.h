//===- perfbench/src/Bench.h - End-to-end benchmark of gpuwmm ---*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the benchmark program: metrics, output checks, run
/// sizes and the four workloads (perfbench/README.md explains each).
///
/// A workload is bound to inputs generated from the benchmark seed; the
/// library sees only the generated configs. Each workload offers
///  * setup()  — pool-independent config plus a warm-up on the pool,
///  * pass()   — one untraced call of the workload's public entry point,
///  * replay() — the same work driven stage by stage through the layers'
///               public functions with a span around every call, which
///               must reproduce pass()'s report byte for byte.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "support/ThreadPool.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class SpanLog;

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// User + system CPU seconds consumed by this process so far.
double processCpuSeconds();

/// Peak resident set size of this process so far, in MiB.
double peakRssMiB();

/// Median of \p V (0 when empty).
double median(std::vector<double> V);

struct Metric {
  double Value = 0.0;
  std::string Unit;
};
/// Metrics by name; std::map keeps the printed order stable.
using MetricMap = std::map<std::string, Metric>;

/// Output checks. Every comparison is one attempted operation; a mismatch
/// is printed to stderr and counted as failed.
struct Checks {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  void expect(bool Ok, const std::string &What);
};

enum class WorkloadKind { Tab5, Tab5Oracle, Hunt, Tune };

inline constexpr WorkloadKind AllWorkloads[] = {
    WorkloadKind::Tab5, WorkloadKind::Tab5Oracle, WorkloadKind::Hunt,
    WorkloadKind::Tune};

const char *workloadName(WorkloadKind K);
std::optional<WorkloadKind> parseWorkload(std::string_view Name);

/// How much work one pass of each workload does.
struct Sizes {
  unsigned Tab5Runs = 0;   ///< Runs per cell of the full 7x8x10 grid.
  unsigned OracleRuns = 0; ///< Runs per cell of the checked titan grid.
  unsigned HuntRounds = 0;
  double TuneScale = 0.0;

  static Sizes standard();
  /// Tiny sizes for the benchmark's own tests and for the traced run's
  /// survey of layers its workload does not reach.
  static Sizes quick();
};

/// What one pass of a workload produced.
struct PassOutput {
  /// The report every pass and the traced replay must reproduce exactly.
  std::string Report;
  /// Completed work, the numerator of `throughput`.
  double Units = 0.0;
  /// Semantic check failures (oracle violations, unclean hunt corpus,
  /// library errors), each one failed operation.
  std::vector<std::string> Problems;
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Builds the configs and warms thread-local caches and context pools
  /// on \p Pool.
  virtual void setup(gpuwmm::ThreadPool &Pool) = 0;

  /// One untraced call of the workload's public entry point.
  virtual PassOutput pass(gpuwmm::ThreadPool &Pool) = 0;

  /// The same work, one span per layer call, adding the layer metrics of
  /// this workload's layers to \p M.
  virtual PassOutput replay(gpuwmm::ThreadPool &Pool, SpanLog &Log,
                            uint32_t Parent, MetricMap &M) = 0;
};

/// \p WorkDir is a scratch directory the workload may write (hunt
/// corpora); it must exist.
std::unique_ptr<Workload> makeWorkload(WorkloadKind K, uint64_t Seed,
                                       const Sizes &S,
                                       const std::string &WorkDir);

/// Layer probes on a fixed per-app sample (sim memory counters, trace
/// shape, streaming vs post-hoc checker, oracle overhead per cell).
void probeLayers(SpanLog &Log, uint32_t Parent, MetricMap &M, Checks &C);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
