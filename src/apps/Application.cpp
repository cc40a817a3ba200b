//===- apps/Application.cpp - Application case-study framework ---------------===//

#include "apps/Application.h"

#include "apps/AppsInternal.h"

using namespace gpuwmm;
using namespace gpuwmm::apps;

const char *apps::appName(AppKind K) {
  switch (K) {
  case AppKind::CbeHt:
    return "cbe-ht";
  case AppKind::CbeDot:
    return "cbe-dot";
  case AppKind::CtOctree:
    return "ct-octree";
  case AppKind::TpoTm:
    return "tpo-tm";
  case AppKind::SdkRed:
    return "sdk-red";
  case AppKind::SdkRedNf:
    return "sdk-red-nf";
  case AppKind::CubScan:
    return "cub-scan";
  case AppKind::CubScanNf:
    return "cub-scan-nf";
  case AppKind::LsBh:
    return "ls-bh";
  case AppKind::LsBhNf:
    return "ls-bh-nf";
  }
  return "unknown";
}

std::optional<AppKind> apps::parseAppName(const std::string &Name) {
  for (AppKind K : AllAppKinds)
    if (Name == appName(K))
      return K;
  return std::nullopt;
}

bool apps::appHasBuiltinFences(AppKind K) {
  return K == AppKind::SdkRed || K == AppKind::CubScan ||
         K == AppKind::LsBh;
}

bool apps::isNoFenceVariant(AppKind K) {
  return K == AppKind::SdkRedNf || K == AppKind::CubScanNf ||
         K == AppKind::LsBhNf;
}

std::unique_ptr<Application> apps::makeApp(AppKind K) {
  switch (K) {
  case AppKind::CbeHt:
    return detail::makeCbeHashtable();
  case AppKind::CbeDot:
    return detail::makeCbeDot();
  case AppKind::CtOctree:
    return detail::makeCtOctree();
  case AppKind::TpoTm:
    return detail::makeTpoTaskMgmt();
  case AppKind::SdkRed:
  case AppKind::SdkRedNf:
    return detail::makeSdkReduction(K);
  case AppKind::CubScan:
  case AppKind::CubScanNf:
    return detail::makeCubScan(K);
  case AppKind::LsBh:
  case AppKind::LsBhNf:
    return detail::makeLsBarnesHut(K);
  }
  return nullptr;
}

unsigned apps::appNumSites(AppKind K) { return makeApp(K)->numSites(); }

const char *apps::appVerdictName(AppVerdict V) {
  switch (V) {
  case AppVerdict::Pass:
    return "pass";
  case AppVerdict::PostCondFail:
    return "postcondition-fail";
  case AppVerdict::Timeout:
    return "timeout";
  case AppVerdict::SimFault:
    return "sim-fault";
  }
  return "unknown";
}

AppVerdict apps::runApplicationOnce(sim::ExecutionContext &Ctx, AppKind K,
                                    const sim::ChipProfile &Chip,
                                    const stress::Environment &Env,
                                    const stress::TunedStressParams &Tuned,
                                    const sim::FencePolicy *Policy,
                                    uint64_t Seed, bool Sequential) {
  Rng R(Seed);
  sim::Device Dev(Ctx, Chip, R.next());
  Dev.setSequentialMode(Sequential);
  Dev.setFencePolicy(Policy);

  std::unique_ptr<Application> App = makeApp(K);
  Dev.setMaxTicks(App->maxTicks());
  App->setup(Dev, R);

  // The environment's scratchpad is allocated after the application's
  // arrays, as in the paper's testing harness.
  Rng EnvRng = R.fork(1);
  const auto Stress = applyEnvironment(Env, Dev, Tuned, EnvRng);

  if (!App->run(Dev))
    return Dev.lastStatus() == sim::RunStatus::Timeout ? AppVerdict::Timeout
                                                       : AppVerdict::SimFault;
  return App->checkPostCondition(Dev) ? AppVerdict::Pass
                                      : AppVerdict::PostCondFail;
}

AppVerdict apps::runApplicationOnce(AppKind K, const sim::ChipProfile &Chip,
                                    const stress::Environment &Env,
                                    const stress::TunedStressParams &Tuned,
                                    const sim::FencePolicy *Policy,
                                    uint64_t Seed, bool Sequential) {
  sim::ContextLease Ctx;
  return runApplicationOnce(Ctx.get(), K, Chip, Env, Tuned, Policy, Seed,
                            Sequential);
}
