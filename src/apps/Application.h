//===- apps/Application.h - Application case-study framework ----*- C++ -*-===//
//
// Part of the gpuwmm project, a reproduction of "Exposing Errors Related to
// Weak Memory in GPU Applications" (Sorensen & Donaldson, PLDI 2016).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The framework for the paper's ten application case studies (Tab. 4):
/// seven code bases plus three "-nf" (no-fence) variants. Every application
/// provides its kernels as a compiled plan (apps/AppCompile.h),
/// instrumented fence sites (for Sec. 5's empirical fence insertion and
/// Sec. 6's cost study), and a functional post-condition that decides
/// whether an execution was erroneous.
///
//===----------------------------------------------------------------------===//

#ifndef GPUWMM_APPS_APPLICATION_H
#define GPUWMM_APPS_APPLICATION_H

#include "sim/Device.h"
#include "stress/Environment.h"
#include "support/Rng.h"

#include <array>
#include <memory>
#include <optional>
#include <string>

namespace gpuwmm {
namespace apps {

/// The ten case studies of Tab. 4.
enum class AppKind {
  CbeHt,     ///< CUDA-by-Example hashtable (mutex-protected buckets).
  CbeDot,    ///< CUDA-by-Example dot product (mutex-protected reduction).
  CtOctree,  ///< Cederman-Tsigas octree partitioning (non-blocking queues).
  TpoTm,     ///< Tzeng-Patney-Owens task management (mutex-guarded queues).
  SdkRed,    ///< CUDA SDK reduction (atomic counter, last block combines).
  SdkRedNf,  ///< sdk-red with its fences removed.
  CubScan,   ///< CUB decoupled-lookback prefix scan (MP handshake).
  CubScanNf, ///< cub-scan with its fences removed.
  LsBh,      ///< Lonestar Barnes-Hut N-body (lock-free tree build).
  LsBhNf     ///< ls-bh with its fences removed.
};

inline constexpr std::array<AppKind, 10> AllAppKinds = {
    AppKind::CbeHt,     AppKind::CbeDot,  AppKind::CtOctree,
    AppKind::TpoTm,     AppKind::SdkRed,  AppKind::SdkRedNf,
    AppKind::CubScan,   AppKind::CubScanNf, AppKind::LsBh,
    AppKind::LsBhNf};

/// The paper's short name, e.g. "cbe-dot" or "sdk-red-nf".
const char *appName(AppKind K);

/// Parses an appName; returns nullopt for unknown names.
std::optional<AppKind> parseAppName(const std::string &Name);

/// True for the variants whose original code contains fence instructions
/// (sdk-red, cub-scan, ls-bh). Their -nf variants disable those fences.
bool appHasBuiltinFences(AppKind K);

/// True for -nf variants.
bool isNoFenceVariant(AppKind K);

/// One application case study. Instances are single-use: create, setup,
/// run, check.
class Application {
public:
  virtual ~Application() = default;

  virtual const char *name() const = 0;

  /// Number of instrumented memory-access sites (fence-insertion targets).
  virtual unsigned numSites() const = 0;

  /// Human-readable name of a site, e.g. "store *c (critical section)".
  virtual const char *siteName(unsigned Site) const = 0;

  /// Allocates device memory and initialises inputs. Must be called once,
  /// before the environment's scratchpad is allocated.
  virtual void setup(sim::Device &Dev, Rng &R) = 0;

  /// Launches the application's kernels. Returns false if any launch
  /// faulted (timeout, barrier divergence, kernel fault).
  virtual bool run(sim::Device &Dev) = 0;

  /// The paper's user-supplied functional post-condition (Tab. 4).
  virtual bool checkPostCondition(const sim::Device &Dev) const = 0;

  /// Per-launch tick budget (the analogue of the paper's 30s timeout).
  virtual uint64_t maxTicks() const { return 60000; }
};

/// Creates a fresh instance of the given case study.
std::unique_ptr<Application> makeApp(AppKind K);

/// Number of fence sites of \p K (without instantiating device state).
unsigned appNumSites(AppKind K);

/// How one application execution ended.
enum class AppVerdict {
  Pass,          ///< Completed and satisfied the post-condition.
  PostCondFail,  ///< Completed but computed a wrong result.
  Timeout,       ///< Exceeded the tick budget.
  SimFault       ///< Barrier divergence / kernel fault / deadlock.
};

const char *appVerdictName(AppVerdict V);

inline bool isErroneous(AppVerdict V) { return V != AppVerdict::Pass; }

/// Executes one application run under a testing environment.
///
/// \p Policy is the inserted-fence policy (null = no inserted fences);
/// built-in fences are enabled unless \p K is a -nf variant. \p Sequential
/// selects the SC reference mode.
///
/// Runs on \p Ctx, the reusable execution engine (reset for this run):
/// loops and pool workers pass their recycled context so repeated runs
/// allocate nothing in steady state. Results are bit-identical for any
/// context history (DESIGN.md Sec. 12).
AppVerdict runApplicationOnce(sim::ExecutionContext &Ctx, AppKind K,
                              const sim::ChipProfile &Chip,
                              const stress::Environment &Env,
                              const stress::TunedStressParams &Tuned,
                              const sim::FencePolicy *Policy, uint64_t Seed,
                              bool Sequential = false);

/// As above, leasing a recycled context from the current thread's pool.
AppVerdict runApplicationOnce(AppKind K, const sim::ChipProfile &Chip,
                              const stress::Environment &Env,
                              const stress::TunedStressParams &Tuned,
                              const sim::FencePolicy *Policy, uint64_t Seed,
                              bool Sequential = false);

} // namespace apps
} // namespace gpuwmm

#endif // GPUWMM_APPS_APPLICATION_H
